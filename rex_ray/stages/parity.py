"""Distributed triple-set P/R/F1 — the reference's ``measure_triple``
(rex/metrics/triple.py:6-43) re-expressed as a Ray dataflow.

Reference semantics: per-instance set comparison of (subj, rel, obj)
tuples plus subject/relation/object projections, tp/fp/fn summed
globally, P/R/F1 by safe division (rex/metrics/__init__.py:6-21).
Sets are per-document: duplicate triples within a doc count once.

Dataflow (no driver-side row loops) — ALL FOUR VIEWS share one pass
and ONE shuffle.  A per-view loop would re-execute the (lazy) upstream
extract pipeline four times — a 4x corpus read at scale — and pay four
shuffles; instead each input batch fans out its view projections as
tagged rows with normalized key columns (view, doc_id, k0..k2):

    pred rows, gold rows
      -> per batch: for each view, project + dedupe, tag side     [fan-out]
      -> union, per-batch partial groupby max(side-flags)        [combiner]
      -> groupby(view, doc_id, k0..k2): max(in_pred), max(in_gold) [1 shuffle]
      -> per-batch per-view tp/fp/fn partials -> groupby(view) sum [4 rows]
"""

from __future__ import annotations

from typing import Dict, Sequence

import pandas as pd
import pyarrow as pa

from rex_ray.functions.blocks import arrow_block, pre_shuffle
from rex_ray.functions.metrics import prf1_from_counts

VIEWS: Dict[str, Sequence[str]] = {
    "triple": ("subj", "pred", "obj"),
    "subject": ("subj",),
    "relation": ("pred",),
    "object": ("obj",),
}


def _tagged(ds, keys, in_pred: int, in_gold: int):
    cols = list(keys)

    def tag(b: pd.DataFrame):
        out = b[cols].drop_duplicates()
        out = out.assign(in_pred=in_pred, in_gold=in_gold)
        return arrow_block(out)

    return ds.map_batches(tag, batch_format="pandas")


def membership(pred_ds, gold_ds, keys):
    """One row per distinct key tuple with in_pred/in_gold flags."""
    from ray.data.aggregate import Max

    cols = list(keys)
    u = _tagged(pred_ds, cols, 1, 0).union(_tagged(gold_ds, cols, 0, 1))

    def combine(b: pd.DataFrame):
        g = (
            b.groupby(cols, sort=False, observed=True)[["in_pred", "in_gold"]]
            .max()
            .reset_index()
        )
        return arrow_block(g)

    partial = pre_shuffle(u.map_batches(combine, batch_format="pandas"))
    return partial.groupby(cols).aggregate(
        Max("in_pred", alias_name="in_pred"),
        Max("in_gold", alias_name="in_gold"),
    )


def _tagged_views(ds, doc_col: str, in_pred: int, in_gold: int):
    """Fan out every batch into its four view projections as tagged
    rows with NORMALIZED key columns (view, doc_id, k0, k1, k2) — one
    schema for all views so they ride a single shuffle.  Unused key
    slots carry '' (safe: ``view`` is part of the group key).  The
    view columns are strings by construction (subj/pred/obj surfaces),
    so no lossy casts occur."""
    views = sorted(VIEWS.items())
    key_cols = ["k0", "k1", "k2"]

    def tag(b: pd.DataFrame):
        frames = []
        for view, vcols in views:
            out = b.loc[:, [doc_col, *vcols]].drop_duplicates()
            d = pd.DataFrame({"view": view, doc_col: out[doc_col].values})
            for i, k in enumerate(key_cols):
                d[k] = out[vcols[i]].values if i < len(vcols) else ""
            frames.append(d)
        cat = pd.concat(frames, ignore_index=True)
        cat["in_pred"] = in_pred
        cat["in_gold"] = in_gold
        return arrow_block(cat)

    return ds.map_batches(tag, batch_format="pandas")


#: Bucket fan-out of the membership shuffle: test-SF member tables land
#: a few hundred rows per bucket.  Bound: one bucket's member rows
#: (member_rows / 256) must fit in one worker's pandas frame.
DEFAULT_PARITY_BUCKETS = 256

# Seeds the bucket hash only; key-tuple IDENTITY is never derived from
# this concatenation (ambiguous tuples merely share a bucket, which is
# harmless), so no escaping contract is needed.  NB: must not be NUL —
# pandas' object-dtype scalar concat routes through numpy str coercion,
# which truncates at NUL.
_SEP = "\x1f"


def _view_counts(pred_ds, gold_ds, doc_col: str) -> Dict[str, Dict[str, int]]:
    """tp/fp/fn per view in ONE pass over each input and ONE shuffle.

    The exchange groups on a single int64 bucket column (md5-64 of the
    key tuple mod ``DEFAULT_PARITY_BUCKETS``) instead of the 5-column
    string key — Ray's sort-based aggregate on multi-string keys
    measured ~7x slower than this bucket route at sf0.01 (11.0 s vs
    1.5 s for the same 89k member rows).  Exactness is preserved because the bucket is ONLY a
    routing key: all rows of a key tuple hash to the same bucket, and
    the reduction inside each bucket groups on the real columns with
    vectorized pandas."""
    from ray.data.aggregate import Sum

    from rex_ray.functions.hashing import md5_hash64_batch

    group_cols = ["view", doc_col, "k0", "k1", "k2"]
    count_cols = ("tp", "fp", "fn")

    u = _tagged_views(pred_ds, doc_col, 1, 0).union(
        _tagged_views(gold_ds, doc_col, 0, 1)
    )

    def combine(b: pd.DataFrame):
        g = (
            b.groupby(group_cols, sort=False, observed=True, dropna=False)[
                ["in_pred", "in_gold"]
            ]
            .max()
            .reset_index()
        )
        # a null key part hashes as '' — the string only routes rows;
        # key identity is decided by the per-bucket groupby
        k = g[["k0", "k1", "k2"]].fillna("")
        key = (
            g["view"] + _SEP + g[doc_col].astype(str) + _SEP
            + k["k0"] + _SEP + k["k1"] + _SEP + k["k2"]
        )
        g["h"] = (
            md5_hash64_batch(key.tolist()) % DEFAULT_PARITY_BUCKETS
        ).astype("int64")
        return arrow_block(g)

    part = pre_shuffle(u.map_batches(combine, batch_format="pandas"))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = (
            df.groupby(group_cols, sort=False, observed=True, dropna=False)[
                ["in_pred", "in_gold"]
            ]
            .max()
            .reset_index()
        )
        p = m["in_pred"].to_numpy()
        g = m["in_gold"].to_numpy()
        out = pd.DataFrame(
            {
                "view": m["view"],
                "tp": ((p == 1) & (g == 1)).astype("int64"),
                "fp": ((p == 1) & (g == 0)).astype("int64"),
                "fn": ((p == 0) & (g == 1)).astype("int64"),
            }
        )
        return out.groupby("view", sort=False).sum().reset_index()

    rows = (
        part.groupby("h")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby("view")
        .aggregate(
            Sum("tp", alias_name="tp"),
            Sum("fp", alias_name="fp"),
            Sum("fn", alias_name="fn"),
        )
        .take_all()
    )
    counts = {
        v: {"tp": 0, "fp": 0, "fn": 0} for v in VIEWS
    }  # views absent from empty inputs still report zeros
    for r in rows:
        counts[r["view"]] = {
            c: int(r[c]) for c in count_cols
        }
    return counts


def triple_prf(
    pred_ds, gold_ds, doc_col: str = "doc_id"
) -> Dict[str, Dict[str, float]]:
    """Reference-shaped metric dict: per view, p/r/f1/tp/fp/fn.

    Both inputs carry (doc_id, subj, pred, obj) rows; per-doc set
    semantics match rex/metrics/triple.py:13-19 (set() casts per
    instance)."""
    counts = _view_counts(pred_ds, gold_ds, doc_col)
    return {
        view: prf1_from_counts(**counts[view]) for view in VIEWS
    }


def parity_table(pred_ds, gold_ds, doc_col: str = "doc_id") -> pa.Table:
    """Metric rows as a small Arrow table for the query registry:
    (view, p, r, f1, tp, fp, fn), view-sorted."""
    metrics = triple_prf(pred_ds, gold_ds, doc_col=doc_col)
    rows = sorted(metrics.items())
    return pa.Table.from_pydict(
        {
            "view": [v for v, _ in rows],
            "p": [float(m["p"]) for _, m in rows],
            "r": [float(m["r"]) for _, m in rows],
            "f1": [float(m["f1"]) for _, m in rows],
            "tp": [int(m["tp"]) for _, m in rows],
            "fp": [int(m["fp"]) for _, m in rows],
            "fn": [int(m["fn"]) for _, m in rows],
        }
    )
