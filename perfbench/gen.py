"""Seeded input generator.

Every document is resampled from ``token_table.json`` (the token
frequencies and document-length histogram of the sf0.1 corpus), so one
``--seed`` fixes the doc ids, the token draws and -- for the long-tail
workload -- the generated gazetteer.  Outputs are Parquet files with a
fixed row-group size, written under the benchmark's work directory.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Dict, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ROW_GROUP = 1000
ID_SPACE = 10**8  # ids render as 'doc-%08d' in the interleaved view
ENT_TYPES = ("ACTOR", "ALGO", "OBJ", "OP", "SYS")


@functools.lru_cache(maxsize=1)
def table():
    """(vocab, token probabilities, doc lengths, length probabilities)
    from ``token_table.json``."""
    with open(os.path.join(os.path.dirname(__file__), "token_table.json")) as f:
        t = json.load(f)
    vocab = sorted(t["tokens"])
    tok_p = np.array([t["tokens"][w] for w in vocab], dtype=np.float64)
    lens = np.array(sorted(int(k) for k in t["lengths"]))
    len_p = np.array([t["lengths"][str(k)] for k in lens], dtype=np.float64)
    return vocab, tok_p / tok_p.sum(), lens, len_p / len_p.sum()


def rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, purpose)."""
    return np.random.default_rng([seed, sum(map(ord, stream)), len(stream)])


def documents(seed: int, n_docs: int, stream: str = "docs",
              doc_len: Optional[int] = None,
              longtail: Optional[Dict[str, object]] = None) -> pa.Table:
    """(doc_id int64, text string) with distinct seeded ids.

    ``doc_len`` fixes every document's token count (default: drawn from
    the sf0.1 length histogram).  ``longtail`` = ``{"surfaces": [...],
    "frac": f}`` replaces a fraction ``f`` of the token slots with
    Zipf-ranked draws from ``surfaces``."""
    vocab, tok_p, doc_lens, len_p = table()
    r = rng(seed, stream)
    ids = np.sort(r.choice(ID_SPACE, size=n_docs, replace=False))
    lens = (
        np.full(n_docs, doc_len, np.int64)
        if doc_len
        else r.choice(doc_lens, size=n_docs, p=len_p)
    )
    n_tok = int(lens.sum())
    words = np.asarray(vocab, dtype=object)[
        r.choice(len(vocab), size=n_tok, p=tok_p)
    ]
    if longtail:
        surfaces = np.asarray(longtail["surfaces"], dtype=object)
        slot = r.random(n_tok) < float(longtail["frac"])
        rank = np.arange(1, len(surfaces) + 1, dtype=np.float64)
        p = 1.0 / rank
        words[slot] = surfaces[
            r.choice(len(surfaces), size=int(slot.sum()), p=p / p.sum())
        ]
    offsets = np.zeros(n_docs + 1, np.int32)
    np.cumsum(lens, out=offsets[1:])
    text = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offsets),
                                 pa.array(words, pa.string())),
        " ",
    )
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": text})


def longtail_gazetteer(seed: int, n_surfaces: int) -> Dict[str, str]:
    """Zipf-ranked surface inventory: rank order and entity types are
    seeded; surfaces are disjoint from the corpus vocabulary."""
    r = rng(seed, "gazetteer")
    names = [f"lt{k:06x}" for k in r.permutation(n_surfaces * 4)[:n_surfaces]]
    types = r.choice(len(ENT_TYPES), size=n_surfaces)
    return {n: ENT_TYPES[t] for n, t in zip(names, types)}


def write_docs(table: pa.Table, out_dir: str) -> str:
    """``<out_dir>/documents.parquet`` (the ``sf_dir`` layout the
    pipelines read), fixed row groups."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "documents.parquet")
    pq.write_table(table, path, row_group_size=ROW_GROUP)
    return path
