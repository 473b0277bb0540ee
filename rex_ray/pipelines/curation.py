"""Corpus-curation decision table: one keep/drop row per document with
ordered reason codes, composed from the engine's own signal stages —
the FineWeb/Dolma-style "curate a training corpus" end product that a
reference user would run the whole dedup/quality family for.

Reason codes, fixed order (the ``reasons`` column is their
comma-join; ``keep = 1`` iff no reason fires):

* ``benchmark_heldout`` — the doc belongs to the held-out benchmark
  partition (``doc_id % bench_mod == 0``) and must never train;
* ``exact_dup``        — not the survivor (min doc_id) of its
  normalized-text exact-dedup group;
* ``contaminated``     — training doc sharing an 8-gram with the
  benchmark partition (:mod:`rex_ray.stages.decontam`);
* ``lang_mismatch``    — stopword-hit language ID disagrees with the
  declared ``lang`` column;
* ``low_quality``      — composite quality score below ``q_min``.

Dataflow: ONE pass over (doc_id, text, lang) computes the map-side
signals (quality, langid, md5-64 normalized-text key); a second slim
pass feeds the survivor groupby (k -> min doc_id, 16-byte rows); the
decontam stage contributes its broadcast-probe output; two hash joins
(on k, then on doc_id) assemble the table.  Text never enters a
shuffle; every exchanged row is a few int64s plus one int8 per flag.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from rex_ray.functions import hashing as H
from rex_ray.functions import text as T
from rex_ray.functions.blocks import arrow_block, pre_shuffle

Q_MIN = 0.5

REASONS = (
    "benchmark_heldout",
    "exact_dup",
    "contaminated",
    "lang_mismatch",
    "low_quality",
)


def _norm_key(text: pd.Series) -> np.ndarray:
    return H.md5_hash64_batch(
        list(T.normalize_dedup_text(text))
    ).view(np.int64)


def curate_corpus(docs_ds, q_min: float = Q_MIN, bench_mod: int = 10):
    """(doc_id, text, lang) -> (doc_id, keep:int64, reasons:string)."""
    from ray.data.aggregate import Min

    from rex_ray.stages.decontam import decontaminate
    from rex_ray.stages.relational import hash_join

    def signals(batch: pd.DataFrame) -> pa.Table:
        q = T.quality_frame(batch["text"])
        lid = T.langid_frame(batch["text"])
        ids = batch["doc_id"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "k": pa.array(_norm_key(batch["text"]), pa.int64()),
                "is_bench": pa.array(
                    (ids % bench_mod == 0).astype(np.int8), pa.int8()
                ),
                "lang_mismatch": pa.array(
                    (
                        lid["pred_lang"].to_numpy()
                        != batch["lang"].to_numpy()
                    ).astype(np.int8),
                    pa.int8(),
                ),
                "low_quality": pa.array(
                    (q["quality_score"].to_numpy() < q_min).astype(np.int8),
                    pa.int8(),
                ),
            }
        )

    base = docs_ds.map_batches(signals, batch_format="pandas")

    def key_rows(batch: pd.DataFrame) -> pa.Table:
        g = (
            pd.DataFrame(
                {
                    "k": _norm_key(batch["text"]),
                    "survivor_doc_id": batch["doc_id"].astype("int64"),
                }
            )
            .groupby("k", sort=False)["survivor_doc_id"]
            .min()
            .reset_index()
        )
        return arrow_block(g)

    survivors = (
        pre_shuffle(docs_ds.map_batches(key_rows, batch_format="pandas"))
        .groupby("k")
        .aggregate(Min("survivor_doc_id", alias_name="survivor_doc_id"))
    )

    contam = decontaminate(
        docs_ds.select_columns(["doc_id", "text"]), bench_mod=bench_mod
    ).select_columns(["doc_id", "n_hits"])

    joined = hash_join(base, survivors, on="k")
    joined = hash_join(joined, contam, on="doc_id", join_type="left_outer")

    def finalize(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        flags = {
            "benchmark_heldout": df["is_bench"].to_numpy() == 1,
            "exact_dup": (
                df["doc_id"].to_numpy() != df["survivor_doc_id"].to_numpy()
            ),
            "contaminated": df["n_hits"].notna().to_numpy(),
            "lang_mismatch": df["lang_mismatch"].to_numpy() == 1,
            "low_quality": df["low_quality"].to_numpy() == 1,
        }
        n = len(df)
        reasons = [[] for _ in range(n)]
        for name in REASONS:
            for i in np.flatnonzero(flags[name]):
                reasons[i].append(name)
        joined_r = [",".join(r) for r in reasons]
        keep = np.fromiter(
            (0 if r else 1 for r in joined_r), dtype=np.int64, count=n
        )
        return pa.table(
            {
                "doc_id": pa.array(
                    df["doc_id"].to_numpy().astype(np.int64), pa.int64()
                ),
                "keep": pa.array(keep, pa.int64()),
                "reasons": pa.array(joined_r, pa.string()),
            }
        )

    return joined.map_batches(finalize, batch_format="pyarrow")
