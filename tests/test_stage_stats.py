"""``tools/stage_stats.py`` reads Ray Data's structured stats summary
(``Dataset._get_stats_summary()``), not the text of ``stats()``."""

import importlib.util
from pathlib import Path

import ray.data as rd

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_stats.py"


def _tool():
    spec = importlib.util.spec_from_file_location("stage_stats", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_final_operator_rows_equal_the_dataset_count():
    ds = (
        rd.range(200, override_num_blocks=4)
        .map_batches(
            lambda df: df.assign(k=df["id"] % 7), batch_format="pandas"
        )
        .groupby("k")
        .count()
        .materialize()
    )
    ops = _tool().operator_stats(ds)
    assert len(ops) >= 2
    assert ops[-1]["rows_out"] == ds.count() == 7
    for op in ops:
        assert set(op) >= {
            "operator", "wall_s", "rows_out", "bytes_out", "peak_heap_mib",
        }
    assert ops[-1]["bytes_out"] > 0
    assert all(op["wall_s"] >= 0 for op in ops)
