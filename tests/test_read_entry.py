"""One Parquet read entry point: every package read goes through
``sources.io.read_parquet``, which sizes its blocks from the Parquet
footers (Ray's own rule without its twice-the-CPUs floor)."""

import ast
import re
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from rex_ray.sources import io

PKG = Path(__file__).resolve().parent.parent / "rex_ray"
MiB = 1 << 20


def test_no_read_parquet_outside_the_entry_point():
    """No ``X.read_parquet(...)`` call (``rd.read_parquet``,
    ``ray.data.read_parquet``) under ``rex_ray/`` outside
    ``sources/io.py``, also not in code templates, and every bare
    ``read_parquet`` name comes from ``rex_ray.sources.io``."""
    sites = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        if rel == "sources/io.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "read_parquet"
            ):
                sites.append((rel, node.lineno))
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if ".read_parquet(" in node.value:
                    sites.append((rel, node.lineno))
            if isinstance(node, ast.ImportFrom) and any(
                a.name == "read_parquet" for a in node.names
            ):
                if node.module != "rex_ray.sources.io":
                    sites.append((rel, node.lineno))
    assert sites == []


def test_block_count_rule():
    """Under 1 MiB one block; k MiB k blocks; the 200-block cap holds
    until blocks would pass the 128 MiB max block size."""
    assert io.parquet_num_blocks(0) == 1
    assert io.parquet_num_blocks(MiB - 1) == 1
    for k in (1, 3, 17):
        assert io.parquet_num_blocks(k * MiB) == k
    assert io.parquet_num_blocks(199 * MiB) == 199
    assert io.parquet_num_blocks(200 * MiB) == 200
    assert io.parquet_num_blocks(5000 * MiB) == 200
    assert io.parquet_num_blocks(300 * 128 * MiB) == 300


def _write(path, mib: int, row_groups: int) -> None:
    """A Parquet file of ``mib`` MiB uncompressed (incompressible
    bytes) in ``row_groups`` row groups, with an int key column."""
    rows = 64 * row_groups
    per_row = mib * MiB // rows
    rng = np.random.default_rng(0)
    t = pa.table({
        "k": pa.array(np.arange(rows), pa.int64()),
        "blob": pa.array([rng.bytes(per_row) for _ in range(rows)],
                         pa.binary()),
    })
    pq.write_table(t, path, row_group_size=64, compression="none")


def test_footer_bytes_select_columns_and_row_groups(tmp_path):
    small, big = tmp_path / "small.parquet", tmp_path / "big.parquet"
    _write(small, 0, 1)
    _write(big, 3, 4)
    assert io.parquet_num_blocks(io.parquet_footer_bytes(str(small))) == 1
    nbytes = io.parquet_footer_bytes(str(big))
    assert 3 * MiB <= nbytes < 4 * MiB
    assert io.parquet_num_blocks(nbytes) == 3
    # a projection counts only its columns
    assert io.parquet_footer_bytes(str(big), columns=["k"]) < 4096
    # a filter counts only the row groups its statistics may select
    one = io.parquet_footer_bytes(str(big), filter=pc.field("k") < 64)
    assert 0.7 * MiB < one < 0.8 * MiB
    assert io.parquet_footer_bytes(str(big), filter=pc.field("k") < 0) == 0
    ds = io.read_parquet(str(big)).materialize()
    assert ds.count() == 256
    assert ds.num_blocks() == 3


def _read_blocks(ds) -> list:
    """Blocks produced by every ReadParquet operator in ``ds``'s stats
    summary and its parents' (a read Ray splits after its tasks shows
    as ``ReadParquet->SplitBlocks(n)``, one task and n blocks)."""
    found = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        for op in summary.operators_stats:
            if op.operator_name.startswith("ReadParquet"):
                m = re.search(r"(\d+) blocks produced",
                              op.block_execution_summary_str)
                found.append(int(m.group(1)))

    walk(ds._get_stats_summary())
    return found


def test_resumable_partition_reads_as_one_block(tmp_path, monkeypatch):
    """``kg.run_flagship_resumable`` over a sub-MiB documents table:
    the partition's stage read is one block, not twice the CPUs."""
    from rex_ray.pipelines import kg
    from rex_ray.state import checkpoint as ckpt

    stages = []
    run_resumable = ckpt.run_resumable

    def spy(parts, stage_fn, out_dir):
        def stage(ds):
            stages.append(stage_fn(ds).materialize())
            return stages[-1]

        return run_resumable(parts, stage, out_dir)

    monkeypatch.setattr(ckpt, "run_resumable", spy)
    store, lineage = kg.run_flagship_resumable(
        "/root/testdata/sf0.001", str(tmp_path / "out"), num_partitions=1
    )
    assert store.count() > 0 and len(lineage) == 1
    assert [_read_blocks(s) for s in stages] == [[1]]
