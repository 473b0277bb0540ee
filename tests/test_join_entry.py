"""One join engine: no code under ``rex_ray/`` calls ``Dataset.join``
(Ray's actor hash-shuffle join); every shuffle join is the task-only
co-group of ``relational.hash_join``."""

import ast
import os
import sys
import textwrap
from pathlib import Path

import process_group
from test_checkpoint import SF  # the sf0.001 test tables

PKG = Path(__file__).resolve().parent.parent / "rex_ray"


class _JoinCalls(ast.NodeVisitor):
    """Collect the enclosing function of every ``X.join(...)`` call
    that passes a ``join_type`` or ``on`` keyword (``str.join`` and
    ``os.path.join`` pass neither)."""

    def __init__(self):
        self.scope: list = []
        self.found: list = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        if (
            isinstance(f, ast.Attribute)
            and f.attr == "join"
            and any(k.arg in ("join_type", "on") for k in node.keywords)
        ):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_no_dataset_join_in_package():
    sites = []
    for path in sorted(PKG.rglob("*.py")):
        v = _JoinCalls()
        v.visit(ast.parse(path.read_text(), filename=str(path)))
        rel = path.relative_to(PKG).as_posix()
        sites += [(rel, fn) for fn in v.found]
    assert sites == []


def test_hash_join_finishes_on_one_cpu():
    """On a 1-CPU cluster the join's aggregator actors must leave a
    CPU for the shuffle tasks; otherwise no shuffle task schedules and
    the join hangs.  Runs in its own 1-CPU Ray session; a hang is a
    timeout failure."""
    script = textwrap.dedent(
        """
        import ray
        import ray.data as rd

        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        rd.DataContext.get_current().enable_progress_bars = False
        from rex_ray.stages.relational import hash_join

        left = rd.from_items([{"k": i % 50, "x": i} for i in range(2000)])
        right = rd.from_items([{"k": i, "y": -i} for i in range(50)])
        print(hash_join(left, right, on="k").count())
        """
    )
    env = {**os.environ, "PYTHONPATH": str(PKG.parent)}
    r = process_group.run(
        [sys.executable, "-c", script], env=env, timeout=180,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout.split()[-1] == "2000"


def test_two_join_pipeline_finishes_on_eight_cpus():
    """``q_dd_line_dedup`` chains two ``hash_join`` calls in one
    streaming pipeline; in an 8-CPU session their aggregator actors
    must still leave CPUs for the shuffle tasks.  Runs in its own
    8-CPU Ray session at sf0.001; a hang is a timeout failure."""
    script = textwrap.dedent(
        """
        import sys

        import ray
        import ray.data as rd

        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
        rd.DataContext.get_current().enable_progress_bars = False
        from rex_ray.pipelines.queries_ext import q_dd_line_dedup

        print(q_dd_line_dedup(sys.argv[1]).count())
        """
    )
    env = {**os.environ, "PYTHONPATH": str(PKG.parent)}
    r = process_group.run(
        [sys.executable, "-c", script, SF], env=env, timeout=240,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    assert int(r.stdout.split()[-1]) > 0
