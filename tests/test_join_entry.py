"""One join entry point: ``relational.hash_join`` is the only code
under ``rex_ray/`` that calls ``Dataset.join`` (it owns block
compaction and partition sizing for every shuffle join)."""

import ast
from pathlib import Path

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


def test_hash_join_is_the_only_dataset_join():
    sites = []
    for path in sorted(PKG.rglob("*.py")):
        v = _JoinCalls()
        v.visit(ast.parse(path.read_text(), filename=str(path)))
        rel = path.relative_to(PKG).as_posix()
        sites += [(rel, fn) for fn in v.found]
    assert sites == [("stages/relational.py", "hash_join")]
