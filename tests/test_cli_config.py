"""Registry, layered config, CLI run/dryrun/new/include-package
(reference surface: rex/utils/registry.py, rex/utils/config.py,
rex/cmds/)."""

import json
import os
import sys

import pytest

import process_group

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_registry_register_get_shadow():
    from rex_ray.registry import get_registered, list_registered, register

    @register("testns", "alpha")
    def alpha():
        return 1

    assert get_registered("testns", "alpha") is alpha
    assert "alpha" in list_registered("testns")

    @register("testns", "alpha")  # user shadowing: last wins
    def alpha2():
        return 2

    assert get_registered("testns", "alpha")() == 2
    with pytest.raises(KeyError, match="known: alpha"):
        get_registered("testns", "missing")


def test_config_layering(tmp_path):
    from rex_ray.config import load_config

    f1 = tmp_path / "a.yaml"
    f1.write_text("pipeline: p1\nnested:\n  x: 1\n  y: 2\n")
    f2 = tmp_path / "b.yaml"
    f2.write_text("nested:\n  y: 20\n")
    cfg = load_config(
        [str(f1), str(f2)],
        ["nested.z=3.5", "flag=true", "tiers=[0.9, 0.99]"],
        defaults={"pipeline": "default", "keep": "me"},
    )
    assert cfg["pipeline"] == "p1"          # file overrides default
    assert cfg["nested"] == {"x": 1, "y": 20, "z": 3.5}  # later file + dotlist
    assert cfg["flag"] is True and cfg["keep"] == "me"
    assert cfg["tiers"] == [0.9, 0.99]
    with pytest.raises(ValueError):
        load_config(None, ["notakeyvalue"])


def _cli(args, cwd, extra_env=None):
    env = {**os.environ, "PYTHONPATH": REPO, **(extra_env or {})}
    return process_group.run(
        [sys.executable, "-m", "rex_ray", *args],
        cwd=cwd, env=env, timeout=400,
    )


def test_cli_dryrun_and_list(tmp_path):
    r = _cli(["dryrun", "-a", "min_score=0.25"], cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr[-2000:]
    rep = json.loads(r.stdout.strip().splitlines()[-1])
    assert rep["dryrun"] and rep["config"]["min_score"] == 0.25

    r = _cli(["list"], cwd=str(tmp_path))
    names = r.stdout.split()
    assert "flagship_resumable" in names
    assert "query:kg_parity_prf" in names


def test_cli_run_resumable_and_scaffold(tmp_path):
    out_dir = tmp_path / "out"
    r = _cli(
        [
            "run",
            "-a", "num_partitions=2",
            "-a", f"out_dir={out_dir}",
            "-a", "sf_dir=/root/testdata/sf0.001",
        ],
        cwd=str(tmp_path),
    )
    assert r.returncode == 0, r.stderr[-2000:]
    rep = json.loads(r.stdout.strip().splitlines()[-1])
    assert rep["partitions"] == 2 and rep["rows"] == 144
    assert os.path.exists(os.path.join(str(out_dir), "triple_store"))

    # scaffold + include-package: the generated stage registers and runs
    pkg = tmp_path / "userpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    r = _cli(["new", "mystage", "--dir", str(pkg)], cwd=str(tmp_path))
    assert r.returncode == 0
    r = _cli(
        [
            "run", "-m", "userpkg",
            "-a", "pipeline=mystage",
            "-a", "sf_dir=/root/testdata/sf0.001",
        ],
        cwd=str(tmp_path),
        extra_env={"PYTHONPATH": f"{REPO}:{tmp_path}"},
    )
    assert r.returncode == 0, r.stderr[-2000:]
    rep = json.loads(r.stdout.strip().splitlines()[-1])
    assert rep["rows"] == 500  # one row per document at sf0.001


def test_cli_rerun_is_idempotent(tmp_path):
    """Re-running with the same out_dir skips finished partitions AND
    rebuilds (not accumulates) the merged triple store."""
    out_dir = tmp_path / "out2"
    args = [
        "run", "-a", "num_partitions=2", "-a", f"out_dir={out_dir}",
        "-a", "sf_dir=/root/testdata/sf0.001",
    ]
    r1 = _cli(args, cwd=str(tmp_path))
    rep1 = json.loads(r1.stdout.strip().splitlines()[-1])
    r2 = _cli(args, cwd=str(tmp_path))
    rep2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert rep1["rows"] == rep2["rows"] == 144
    # deterministic skip evidence: the rerun returned every partition's
    # lineage untouched (identical finished_at), i.e. no partition re-ran
    assert rep2["partition_finished_at"] == rep1["partition_finished_at"]


def test_cli_bootstrap_plus_incremental(tmp_path):
    """The bootstrap + incremental pair: a store built from md5 doc
    buckets [0, 2) then an increment over [2, 100) must append EXACTLY
    the keys the full-corpus store has beyond the bootstrap (132 + 12
    = 144 at sf0.001), and re-running the increment must skip all
    partitions (idempotent, identical lineage timestamps)."""
    out_dir = tmp_path / "inc"
    r = _cli(
        [
            "run", "-a", "num_partitions=2", "-a", f"out_dir={out_dir}",
            "-a", "sf_dir=/root/testdata/sf0.001", "-a", "bucket_hi=2",
        ],
        cwd=str(tmp_path),
    )
    assert r.returncode == 0, r.stderr[-2000:]
    boot = json.loads(r.stdout.strip().splitlines()[-1])

    inc_args = [
        "run", "-a", "pipeline=incremental", "-a", "num_partitions=2",
        "-a", f"out_dir={out_dir}", "-a", "sf_dir=/root/testdata/sf0.001",
        "-a", "bucket_lo=2", "-a", "bucket_hi=100",
    ]
    r1 = _cli(inc_args, cwd=str(tmp_path))
    assert r1.returncode == 0, r1.stderr[-2000:]
    rep1 = json.loads(r1.stdout.strip().splitlines()[-1])
    assert boot["rows"] + rep1["rows"] == 144  # full-store key count
    assert rep1["rows"] > 0

    # appended keys must be disjoint from the bootstrap store
    import pyarrow.parquet as pq

    def keys(d):
        t = pq.read_table(d, columns=["subj_id", "pred", "obj_id"])
        return set(zip(*(t[c].to_pylist() for c in t.schema.names)))

    base = keys(str(out_dir / "triple_store"))
    new = keys(rep1["new_triples"])
    assert len(new) == rep1["rows"] and not (base & new)

    r2 = _cli(inc_args, cwd=str(tmp_path))
    rep2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert rep2["rows"] == rep1["rows"]
    assert rep2["partition_finished_at"] == rep1["partition_finished_at"]
