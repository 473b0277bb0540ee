"""Readers / writers mirroring the reference IO surface
(rex/utils/io.py) on Ray Data, plus the raw-corpus ingest normalizer
(the data/<DS>/convert.py analog).

Distributed paths return/consume ``ray.data.Dataset``; the driver-side
helpers (small configs, dictionaries) stay plain Python.  The
tensor-friendly JSON encoder mirrors io.py:15-30 (numpy scalars/arrays
and sets serialize transparently).
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Iterable, Iterator, List, Optional

import numpy as np


# -- driver-side (small files) ---------------------------------------------

class TensorFriendlyJSONEncoder(json.JSONEncoder):
    """numpy / set-safe encoding (reference io.py:15-30 semantics)."""

    def default(self, o: Any):
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (set, frozenset)):
            return sorted(o)
        return super().default(o)


def load_json(path: str) -> Any:
    with open(path) as f:
        return json.load(f)


def dump_json(obj: Any, path: str, indent: Optional[int] = None) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, cls=TensorFriendlyJSONEncoder, indent=indent)


def load_jsonlines(path: str) -> List[dict]:
    return list(load_jsonlines_iterator(path))


def load_jsonlines_iterator(path: str) -> Iterator[dict]:
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                yield json.loads(line)


def dump_jsonlines(objs: Iterable[Any], path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        for obj in objs:
            f.write(json.dumps(obj, cls=TensorFriendlyJSONEncoder) + "\n")


def load_csv(
    path: str,
    title_row: bool = True,
    title_keys: Optional[List[str]] = None,
    sep: str = ",",
) -> List[dict]:
    """Strict CSV loader (reference io.py:98-135): every row must have
    exactly the title's column count, else ValueError."""
    rows: List[dict] = []
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines:
        return rows
    if title_row:
        keys = lines[0].split(sep)
        body = lines[1:]
    else:
        if not title_keys:
            raise ValueError("title_keys required when title_row=False")
        keys = title_keys
        body = lines
    for i, ln in enumerate(body):
        vals = ln.split(sep)
        if len(vals) != len(keys):
            raise ValueError(
                f"row {i}: expected {len(keys)} columns, got {len(vals)}"
            )
        rows.append(dict(zip(keys, vals)))
    return rows


def dump_csv(rows: Iterable[dict], path: str, sep: str = ",") -> None:
    rows = list(rows)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        if not rows:
            return
        keys = list(rows[0].keys())
        f.write(sep.join(keys) + "\n")
        for r in rows:
            f.write(sep.join(str(r[k]) for k in keys) + "\n")


def find_files(pattern: str, root: str) -> List[str]:
    """Regex file walk (reference io.py:204-214)."""
    rx = re.compile(pattern)
    out = []
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if rx.search(name):
                out.append(os.path.join(dirpath, name))
    return sorted(out)


# -- distributed (Dataset) paths -------------------------------------------

def parquet_footer_bytes(paths, columns=None, filter=None,
                         filesystem=None) -> int:
    """Uncompressed bytes of the ``columns`` (all when None) over the
    row groups that ``filter`` may select, summed from the Parquet
    footers alone: row groups whose statistics rule the filter out
    are not counted, and no data page is read."""
    import pyarrow.dataset as pds

    dataset = pds.dataset(paths, format="parquet", filesystem=filesystem)
    total = 0
    for frag in dataset.get_fragments(filter=filter):
        meta = frag.metadata
        for rg in frag.split_by_row_group(filter):
            group = meta.row_group(rg.row_groups[0].id)
            for j in range(group.num_columns):
                col = group.column(j)
                name = col.path_in_schema.split(".")[0]  # top-level field
                if columns is None or name in columns:
                    total += col.total_uncompressed_size
    return total


def parquet_num_blocks(nbytes: int) -> int:
    """Read block count of ``nbytes`` of data: Ray 2.49's
    ``_autodetect_parallelism`` rule — ``read_op_min_num_blocks``
    capped so no block is under ``target_min_block_size``, raised so
    none is over ``target_max_block_size`` — without its floor of
    twice the cluster's CPUs, which cut a sub-MiB file into that many
    blocks and gave each downstream operator one task per block."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    n = min(ctx.read_op_min_num_blocks, nbytes // ctx.target_min_block_size)
    if ctx.target_max_block_size:
        n = max(n, nbytes // ctx.target_max_block_size)
    return max(1, int(n))


def read_parquet(paths, columns=None, filter=None, filesystem=None,
                 **kwargs):
    """The package's one Parquet read: ``ray.data.read_parquet`` with
    ``override_num_blocks`` set by :func:`parquet_num_blocks` from
    :func:`parquet_footer_bytes` of the selected columns and row
    groups (a caller's own ``override_num_blocks`` wins).  Inputs the
    footer scan cannot open (a schema Ray reconciles across files, an
    unreachable store) keep Ray's own sizing."""
    import pyarrow as pa
    import ray.data as rd

    if "override_num_blocks" not in kwargs:
        try:
            kwargs["override_num_blocks"] = parquet_num_blocks(
                parquet_footer_bytes(paths, columns, filter, filesystem)
            )
        except (OSError, pa.ArrowException):
            pass
    if filter is not None:
        kwargs["filter"] = filter
    return rd.read_parquet(
        paths, columns=columns, filesystem=filesystem, **kwargs
    )


def read_jsonlines_ds(paths):
    """jsonl -> Dataset (streaming read; reference load_jsonlines /
    _iterator collapse into one lazy source on Ray)."""
    import ray.data as rd

    return rd.read_json(paths)


def write_jsonlines_ds(ds, out_dir: str) -> None:
    ds.write_json(out_dir)


def read_csv_ds(paths, **kwargs):
    import ray.data as rd

    return rd.read_csv(paths, **kwargs)


def read_text_ds(paths):
    import ray.data as rd

    return rd.read_text(paths)


# -- ingest normalizer (data/NYT10/convert.py:10-33 analog) ----------------

def normalize_raw_records(batch) -> "Any":
    """Raw NYT10-style records (text, head, tail, relation) -> the
    canonical doc shape (doc_id, tokens, entities, relations) via
    FIRST-OCCURRENCE span search, mirroring the reference converter:
    entity span = first sublist match of the surface tokens; records
    whose head or tail never occurs are DROPPED (converter behavior).
    Runs inside map_batches (pandas in, Arrow out).
    """
    import pandas as pd

    from rex_ray.functions.blocks import arrow_block
    from rex_ray.functions.position import find_all_positions

    out = {
        "doc_id": [],
        "tokens": [],
        "entities": [],
        "relations": [],
    }
    for doc_id, text, head, tail, rel in zip(
        batch["doc_id"], batch["text"], batch["head"], batch["tail"],
        batch["relation"],
    ):
        tokens = text.split(" ")
        h_spans = find_all_positions(tokens, head.split(" "))
        t_spans = find_all_positions(tokens, tail.split(" "))
        if not h_spans or not t_spans:
            continue  # converter drops unanchorable records
        h, t = h_spans[0], t_spans[0]
        out["doc_id"].append(doc_id)
        out["tokens"].append(tokens)
        out["entities"].append(
            [
                {"ent_type": "head", "start": h[0], "end": h[1]},
                {"ent_type": "tail", "start": t[0], "end": t[1]},
            ]
        )
        out["relations"].append(
            [{"predicate": rel, "head": 0, "tail": 1}]
        )
    return arrow_block(pd.DataFrame(out))


def ingest_raw_corpus(raw_ds):
    """Raw records Dataset -> canonical docs Dataset (flat-map with
    drop semantics)."""
    return raw_ds.map_batches(normalize_raw_records, batch_format="pandas")
