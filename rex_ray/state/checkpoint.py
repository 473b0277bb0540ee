"""Per-partition checkpointed execution with lineage + throughput metrics.

Protocol (SURVEY.md §4, north_rule "resumable from checkpoint with
per-partition lineage + metrics"):

* the input is split into named partitions (by input file group at
  production scale, by pushed-down key range at test scale);
* each partition runs the SAME stage pipeline independently and writes
  ``<out>/parts/part=<id>/`` Parquet, then a ``_SUCCESS`` marker and a
  lineage record ``<out>/lineage/part-<id>.json`` (inputs, row count,
  wall seconds, finish time) — marker written LAST, so a crash leaves
  either nothing or a stale dir that resume wipes and re-runs;
* resume = re-invoke with the same plan; partitions with markers are
  skipped (their lineage is returned untouched);
* small global artifacts (dictionaries, canonical maps) go through
  :func:`write_artifact` — atomic tmp+rename, same skip-if-done rule.

This is exact (not approximate) for any per-partition stage whose
cross-partition merge is associative — the triple store's
(max score, sum support) qualifies; see ``pipelines/kg.py``.

All filesystem access routes through :mod:`rex_ray.functions.fsio`
(pyarrow.fs), so ``out_dir`` may be a local path OR an object-store
URI (s3://...) — a 100-TB run checkpoints straight to the store the
cluster reads from, no POSIX assumption (same hardening the round-4
verdict required of the ANN layouts).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from rex_ray.functions import fsio

_SUCCESS = "_SUCCESS"


@dataclass
class Partition:
    """One resumable unit of work.

    ``make_dataset`` builds the partition's input ``ray.data.Dataset``
    lazily (so planning N partitions doesn't open N readers), and
    ``inputs`` records the lineage description (file paths, key range).
    """

    part_id: str
    make_dataset: Callable[[], Any]
    inputs: Dict[str, Any] = field(default_factory=dict)


def plan_id_ranges(
    path: str, col: str, num_partitions: int
) -> List[Partition]:
    """Split one Parquet table into contiguous ``col`` ranges.

    Range bounds come from the file's column statistics (metadata-only
    read); each partition reads with a pushed-down predicate, so at
    scale only matching row groups leave storage.  For multi-file
    inputs prefer one partition per file group instead.
    """
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from rex_ray.sources.io import read_parquet

    meta = pq.read_metadata(path)
    schema = pq.read_schema(path)
    idx = schema.get_field_index(col)
    lo, hi = None, None
    for rg in range(meta.num_row_groups):
        st = meta.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:
            continue
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    if lo is None:  # no stats: single partition
        return [
            Partition("00000", lambda: read_parquet(path),
                      {"path": path, "range": "all"})
        ]
    span = int(hi) - int(lo) + 1
    step = max(1, (span + num_partitions - 1) // num_partitions)
    parts: List[Partition] = []
    for i, start in enumerate(range(int(lo), int(hi) + 1, step)):
        end = min(start + step, int(hi) + 1)

        def make(s=start, e=end):
            return read_parquet(
                path, filter=(pc.field(col) >= s) & (pc.field(col) < e)
            )

        parts.append(
            Partition(
                f"{i:05d}", make,
                {"path": path, "col": col, "range": [start, end]},
            )
        )
    return parts


def _part_dir(out_dir: str, part_id: str) -> str:
    return f"{out_dir.rstrip('/')}/parts/part={part_id}"


def _lineage_path(out_dir: str, part_id: str) -> str:
    return f"{out_dir.rstrip('/')}/lineage/part-{part_id}.json"


def run_resumable(
    partitions: List[Partition],
    stage_fn: Callable[[Any], Any],
    out_dir: str,
) -> List[Dict[str, Any]]:
    """Run ``stage_fn`` over every partition, checkpointed.

    Returns the full lineage (one record per partition, finished runs
    included).  Partitions whose ``_SUCCESS`` marker exists are
    skipped; stale dirs without a marker are wiped and re-run.
    """
    lineage: List[Dict[str, Any]] = []
    for part in partitions:
        pdir = _part_dir(out_dir, part.part_id)
        marker = f"{pdir}/{_SUCCESS}"
        lpath = _lineage_path(out_dir, part.part_id)
        if fsio.exists(marker) and fsio.exists(lpath):
            lineage.append(fsio.read_json(lpath))
            continue
        fsio.delete_dir_if_exists(pdir)  # crashed mid-write: start clean
        t0 = time.perf_counter()
        out_ds = stage_fn(part.make_dataset())
        out_ds.write_parquet(pdir)
        wall = time.perf_counter() - t0
        # an output with no rows writes no directory at all (Ray 2.49);
        # it still finishes: 0 rows, marker below, skipped on resume
        rows_out = fsio.parquet_rows(pdir) if fsio.is_dir(pdir) else 0
        rec = {
            "part_id": part.part_id,
            "inputs": part.inputs,
            "rows_out": rows_out,
            "wall_s": round(wall, 3),
            "rows_per_s": round(rows_out / wall, 1) if wall > 0 else None,
            "finished_at": time.time(),
        }
        fsio.write_json_atomic(lpath, rec, token=part.part_id)
        fsio.touch(marker)  # marker LAST: crash = no marker = re-run
        lineage.append(rec)
    return lineage


def load_manifest(out_dir: str) -> List[Dict[str, Any]]:
    ldir = f"{out_dir.rstrip('/')}/lineage"
    if not fsio.is_dir(ldir):
        return []
    return [
        fsio.read_json(f"{ldir}/{name}")
        for name in fsio.list_files(ldir, suffix=".json")
        if name.startswith("part-")
    ]


def read_output(out_dir: str):
    """Dataset over all successfully-written partition outputs — one
    recursive listing, explicit file paths (works identically on
    object stores, where 'directories' are prefixes)."""
    import ray.data as rd

    from rex_ray.sources.io import read_parquet

    proot = f"{out_dir.rstrip('/')}/parts"
    if not fsio.is_dir(proot):
        return rd.from_items([])
    done = {
        rel.rsplit("/", 1)[0]
        for rel in fsio.list_files(proot)
        if rel.endswith(f"/{_SUCCESS}")
    }
    # resolve the filesystem ONCE and hand Ray fs-local paths: Ray
    # 2.49 rejects a LIST of URIs (it normalizes each path against
    # the resolved fs, which only accepts fs-local paths)
    fs, proot_local = fsio.resolve_fs(proot)
    files = [
        f"{proot_local}/{rel}"
        for rel in fsio.list_files(proot, suffix=".parquet")
        if rel.rsplit("/", 1)[0] in done
    ]
    if not files:  # every finished part is empty
        return rd.from_items([])
    return read_parquet(files, filesystem=fs)


def write_artifact(out_dir: str, name: str, obj: Any,
                   build: Optional[Callable[[], Any]] = None) -> Any:
    """Persist a small global artifact (JSON) once; later calls return
    the stored copy.  ``build`` defers construction to first need."""
    path = f"{out_dir.rstrip('/')}/artifacts/{name}.json"
    if fsio.exists(path):
        return fsio.read_json(path)
    if obj is None and build is not None:
        obj = build()
    fsio.write_json_atomic(path, obj, token=name)
    return obj


def read_artifact(out_dir: str, name: str) -> Any:
    return fsio.read_json(f"{out_dir.rstrip('/')}/artifacts/{name}.json")
