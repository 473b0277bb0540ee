"""Benchmark decontamination: flag training documents sharing any
token n-gram with a held-out benchmark/eval set (the GPT-3/Pile-style
13-gram overlap check, reference policy only — the reference repo has
no decontamination operator; this is part of the engine's
training-data surface).

Dataflow (two passes, no shuffle):

1. benchmark side — inherently small (eval suites are fixed and tiny
   relative to a crawl): one ``map_batches`` pass emits per-batch
   DISTINCT n-gram hashes; a Ray task unions them into ONE sorted
   ``uint64`` numpy array that is broadcast by ObjectRef
   (:func:`rex_ray.functions.blocks._worker_built_ref` — the driver never
   materializes a row, and workers map the array zero-copy from the
   object store: 8 bytes/gram, so even a 10^8-gram benchmark is an
   800 MB shared read-only block per node, not per task).
2. training side — streaming ``map_batches``: per-doc distinct gram
   hashes (segmented lexsort dedup, no Python loop past gram string
   assembly), probed against the broadcast array with
   ``searchsorted``; emits only contaminated docs.

If the "benchmark" ever outgrows broadcast (decontaminating one crawl
against another), drop this stage and semi-join on the gram-hash
column instead (`stages/graph.bloom_semi_join` shape).

Hashes are the top 64 md5 bits (:func:`functions.hashing.
md5_hash64_batch`) on BOTH sides, so the DuckDB oracle — which joins
on the gram *strings* — agrees up to md5-64 collisions
(p ~ n^2 / 2^65: ~3e-10 at 10^5 grams).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from rex_ray.functions import hashing as H

N_GRAM = 8
BENCH_MOD = 10  # doc_id % BENCH_MOD == 0 -> benchmark member


def _doc_gram_hashes(texts, n: int):
    """Flat (parent_row_idx, gram_hash) arrays, deduplicated per doc,
    for one batch.  Gram strings are assembled per doc (unavoidable
    string join) but hashed in ONE batch-wide md5 pass."""
    grams: list = []
    counts = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        toks = t.split(" ")
        k = max(len(toks) - n + 1, 0)
        counts[i] = k
        grams.extend(
            " ".join(toks[j : j + n]) for j in range(k)
        )
    if not grams:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    hv = H.md5_hash64_batch(grams)
    parent = np.repeat(np.arange(len(texts)), counts)
    # per-doc distinct: segmented sort then first-occurrence mask
    order = np.lexsort((hv, parent))
    p, h = parent[order], hv[order]
    keep = np.empty(len(p), dtype=bool)
    keep[0] = True
    keep[1:] = (p[1:] != p[:-1]) | (h[1:] != h[:-1])
    return p[keep], h[keep]


def benchmark_gram_ref(bench_ds, n: int = N_GRAM):
    """ObjectRef of the sorted uint64 array of the benchmark set's
    distinct n-gram hashes (built inside a Ray task, never on the
    driver)."""
    from rex_ray.functions.blocks import _worker_built_ref

    def per_batch(batch: pd.DataFrame) -> pa.Table:
        _, h = _doc_gram_hashes(list(batch["text"]), n)
        return pa.table({"g": pa.array(np.unique(h), pa.uint64())})

    hashes = bench_ds.map_batches(per_batch, batch_format="pandas")

    def build(tables):
        parts = [
            t["g"].to_numpy(zero_copy_only=False)
            for t in tables
            if t.num_rows
        ]
        if not parts:
            return np.empty(0, np.uint64)
        return np.unique(np.concatenate(parts))

    return _worker_built_ref(hashes, build)


class ContamProber:
    """training batch -> (doc_id, n_hits) for docs sharing >=1 distinct
    n-gram with the benchmark set.  The broadcast array resolves once
    per worker process (`_side_object` cache) and is a zero-copy view
    of the plasma buffer."""

    def __init__(self, bench_ref, n: int = N_GRAM):
        self.bench_ref = bench_ref
        self.n = n

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        from rex_ray.functions.blocks import _side_object

        bench = _side_object(self.bench_ref)
        p, h = _doc_gram_hashes(list(batch["text"]), self.n)
        schema = pa.schema(
            [("doc_id", pa.int64()), ("n_hits", pa.int64())]
        )
        if len(h) == 0 or len(bench) == 0:
            return schema.empty_table()
        idx = np.searchsorted(bench, h)
        idx[idx == len(bench)] = 0  # clamp; equality check rejects
        hit = bench[idx] == h
        n_hits = np.bincount(p[hit], minlength=len(batch))
        sel = n_hits > 0
        doc_ids = batch["doc_id"].to_numpy()[sel]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_hits": pa.array(n_hits[sel], pa.int64()),
            },
            schema=schema,
        )


def decontaminate(
    docs_ds, n: int = N_GRAM, bench_mod: int = BENCH_MOD
):
    """(doc_id:int64, text) -> (doc_id, n_hits) for every TRAINING doc
    (doc_id % bench_mod != 0) that shares at least one distinct
    n-gram with the benchmark partition (doc_id % bench_mod == 0)."""

    def is_bench(t: pa.Table, want: bool) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        m = (ids % bench_mod) == 0
        return t.filter(pa.array(m if want else ~m))

    bench = docs_ds.map_batches(
        lambda t: is_bench(t, True), batch_format="pyarrow"
    )
    train = docs_ds.map_batches(
        lambda t: is_bench(t, False), batch_format="pyarrow"
    )
    ref = benchmark_gram_ref(bench, n)
    return train.map_batches(
        ContamProber(ref, n), batch_format="pandas"
    )


def split_leakage(
    docs_ds, val_lo: int = 90, val_hi: int = 100, n: int = N_GRAM
):
    """Split hygiene: TRAIN-split docs sharing any distinct n-gram
    with the VAL split — the leakage audit run after every split
    materialization (train/test overlap inflates eval, Lewis et al.
    ACL'21).  Splits are the md5 doc buckets of
    :func:`rex_ray.stages.relational.bucket_filter` (a pure id
    function — the same assignment ``ta_dataset_splits`` materializes,
    reproduced bit-exactly by the oracle), VAL = buckets
    [val_lo, val_hi), TRAIN = [0, val_lo).  Dataflow identical to
    :func:`decontaminate`: VAL gram hashes -> ONE worker-built sorted
    uint64 broadcast; TRAIN side streams a searchsorted probe.
    Output: (doc_id, n_hits) for leaking train docs.
    """
    from rex_ray.stages.relational import bucket_filter

    val = bucket_filter(docs_ds, "doc_id", val_lo, val_hi)
    train = bucket_filter(docs_ds, "doc_id", 0, val_lo)
    ref = benchmark_gram_ref(val, n)
    return train.map_batches(ContamProber(ref, n), batch_format="pandas")
