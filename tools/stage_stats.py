"""Per-stage throughput report for any registered query: runs the
pipeline, reads Ray Data's structured stats summary
(``Dataset._get_stats_summary()``) and prints one JSON line per
operator (name, wall_s, rows_out, bytes_out, rows_per_s,
peak_heap_mib) plus a dataset-level summary — the stats-driven
feedback loop used to size batch/concurrency per stage (SURVEY.md §4
throughput-metrics row).

Usage:  python tools/stage_stats.py [query] [sf_dir] [num_cpus]
        (defaults: kg_triple_store_interleaved /root/testdata/sf0.1 32)
"""

from __future__ import annotations

import json
import os
import sys


def operator_stats(ds) -> list:
    """One dict per executed operator of the materialized ``ds``, in
    execution order (parents first): ``operator``, ``wall_s`` (remote
    wall time summed over the operator's tasks), ``rows_out``,
    ``bytes_out``, ``peak_heap_mib`` and, when rows and wall time are
    both non-zero, ``rows_per_s``.  An operator reached through two
    parents is listed once."""
    ops: list = []
    seen: set = set()

    def walk(summary) -> None:
        for parent in summary.parents:
            walk(parent)
        for op in summary.operators_stats:
            if (summary.dataset_uuid, op.operator_name) in seen:
                continue
            seen.add((summary.dataset_uuid, op.operator_name))
            row = {
                "operator": op.operator_name,
                "wall_s": (op.wall_time or {}).get("sum"),
                "rows_out": (op.output_num_rows or {}).get("sum"),
                "bytes_out": (op.output_size_bytes or {}).get("sum"),
                "peak_heap_mib": (op.memory or {}).get("max"),
            }
            if row["rows_out"] and row["wall_s"]:
                row["rows_per_s"] = round(row["rows_out"] / row["wall_s"], 1)
            ops.append(row)

    walk(ds._get_stats_summary())
    return ops


def main() -> None:
    query = sys.argv[1] if len(sys.argv) > 1 else "kg_triple_store_interleaved"
    sf_dir = sys.argv[2] if len(sys.argv) > 2 else "/root/testdata/sf0.1"
    ncpu = int(sys.argv[3]) if len(sys.argv) > 3 else 32

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=ncpu, include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from rex_ray.pipelines.queries import queries

    import time

    t0 = time.perf_counter()
    res = queries()[query](sf_dir)
    if hasattr(res, "materialize"):
        res = res.materialize()
        ops = operator_stats(res)
        rows = res.count()
    else:  # driver-side result (pandas/arrow)
        ops, rows = [], len(res)
    wall = time.perf_counter() - t0

    for op in ops:
        print(json.dumps({"query": query, **op}))
    print(
        json.dumps(
            {
                "query": query,
                "sf_dir": sf_dir,
                "num_cpus": ncpu,
                "rows": int(rows),
                "wall_s": round(wall, 3),
                "rows_per_s": round(rows / wall, 1) if wall else None,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
