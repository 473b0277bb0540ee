"""Wide aggregations: bag reduction and triple-store dedup.

Shuffle-minimization strategy (SURVEY.md §4): every groupby here is
preceded by a per-batch partial aggregation (combiner) inside
``map_batches``, so the all-to-all exchange moves one row per
(key, batch) instead of one row per instance.  With combiners, skewed
keys ("join###hash"-style head-entity bags following the corpus Zipf)
are bounded at the final stage by #batches, not by bag size — the
partial-agg is the salting: hot keys are split across batches
naturally and merged associatively.  Non-mergeable per-group logic
(bag-label argmax) runs AFTER the combiner, over the already-small
partials.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data.aggregate import Max, Sum

from rex_ray.functions.blocks import arrow_block, as_arrow, pre_shuffle


def _partial_counts_max(
    keys: List[str], score_col: str = "score"
):
    """Combiner factory: per-batch Arrow ``group_by(keys)`` -> (cnt,
    max score), groups in first-seen order.  Arrow in (or a pandas
    frame from a direct caller), Arrow into the shuffle."""
    aggs = [(score_col, "count"), (score_col, "max")]
    cols = list(keys) + [f"{score_col}_count", f"{score_col}_max"]

    def combine(batch) -> pa.Table:
        g = as_arrow(batch).group_by(keys, use_threads=False).aggregate(aggs)
        return g.select(cols).rename_columns(
            list(keys) + ["cnt", "max_score"]
        )

    return combine


def aggregate_bags(triples_ds):
    """Bag (distant-supervision) reduction keyed ``pair_key``
    (reference ``rex/data/transforms/bag_re.py:78-108`` +
    ``rex/models/bag_pcnn.py:60-88`` ONE-style reduce).

    Output per bag: pair_key, bag_label (modal predicate, ties ->
    lexicographically smallest), n_instances, max_score.
    """
    partial = pre_shuffle(
        triples_ds.map_batches(
            _partial_counts_max(["pair_key", "pred"]), batch_format="pyarrow"
        )
    )
    merged = partial.groupby(["pair_key", "pred"]).aggregate(
        Sum("cnt", alias_name="cnt"),
        Max("max_score", alias_name="max_score"),
    )

    def bag_reduce(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cnt", "pred"], ascending=[False, True])
        top = g.iloc[0]
        return pd.DataFrame(
            {
                "pair_key": [top["pair_key"]],
                "bag_label": [top["pred"]],
                "n_instances": [int(g["cnt"].sum())],
                "max_score": [float(g["max_score"].max())],
            }
        )

    return pre_shuffle(merged).groupby("pair_key").map_groups(
        bag_reduce, batch_format="pandas"
    )


def dedup_triple_store(linked_triples_ds):
    """Final triple-store dedup: group (subj_id, pred, obj_id) ->
    max(score) AS score, count(*) AS support.  Partial-aggregated per
    batch, then one small shuffle (SURVEY.md §2.7 'new-engine only')."""
    partial = pre_shuffle(
        linked_triples_ds.map_batches(
            _partial_counts_max(["subj_id", "pred", "obj_id"]),
            batch_format="pyarrow",
        )
    )
    out = partial.groupby(["subj_id", "pred", "obj_id"]).aggregate(
        Max("max_score", alias_name="score"),
        Sum("cnt", alias_name="support"),
    )
    return out


def merge_triple_stores(parts_ds):
    """Cross-partition merge of per-partition triple stores.  Exact
    because the partial stats are associative: max(max(score)) and
    sum(count) — the checkpointed flagship (``pipelines/kg.py``)
    relies on this."""
    return pre_shuffle(parts_ds).groupby(
        ["subj_id", "pred", "obj_id"]
    ).aggregate(
        Max("score", alias_name="score"),
        Sum("support", alias_name="support"),
    )


def score_tier_counts(triples_ds, tiers):
    """Tiered threshold counts (reference
    ``data/EncyclopediaDS/convert.py:27-46``'s .97/.98/.99 exports):
    per tier, number of triples with score >= tier and distinct
    predicate count — computed in ONE pass via a per-batch combiner
    over (tier, pred) instead of one filtered scan per tier."""

    import pyarrow as pa

    tier_schema = pa.schema(
        [("tier", pa.float64()), ("pred", pa.string()), ("n", pa.int64())]
    )

    def combine(batch: pd.DataFrame):
        rows = []
        for t in tiers:
            sel = batch[batch["score"] >= t]
            if len(sel):
                g = sel.groupby("pred", sort=False).size()
                for pred, n in g.items():
                    rows.append((float(t), pred, int(n)))
        return arrow_block(
            pd.DataFrame(rows, columns=["tier", "pred", "n"]),
            schema=tier_schema,
        )

    partial = pre_shuffle(
        triples_ds.map_batches(combine, batch_format="pandas")
    )
    merged = partial.groupby(["tier", "pred"]).aggregate(
        Sum("n", alias_name="n")
    )

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "tier": [float(g["tier"].iloc[0])],
                "n_triples": [int(g["n"].sum())],
                "n_predicates": [int(g["pred"].nunique())],
            }
        )

    return pre_shuffle(merged).groupby("tier").map_groups(
        finalize, batch_format="pandas"
    )


def entity_degrees(store_ds):
    """Graph-materialize view over the deduped triple store: per
    canonical entity, its out-degree (rows as subject) and in-degree
    (rows as object).  Per-batch Arrow partial counts keep the shuffle
    at one slim row per (batch, entity)."""
    import pyarrow as pa
    from ray.data.aggregate import Sum

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        ids = pa.concat_arrays(
            [t["subj_id"].combine_chunks(), t["obj_id"].combine_chunks()]
        )
        tagged = pa.table(
            {
                "entity_id": ids,
                "out_deg": pa.array([1] * n + [0] * n, pa.int64()),
                "in_deg": pa.array([0] * n + [1] * n, pa.int64()),
            }
        )
        return tagged.group_by("entity_id").aggregate(
            [("out_deg", "sum"), ("in_deg", "sum")]
        ).rename_columns(["entity_id", "out_deg", "in_deg"])

    partial = pre_shuffle(
        store_ds.map_batches(explode, batch_format="pyarrow")
    )
    return partial.groupby("entity_id").aggregate(
        Sum("out_deg", alias_name="out_deg"),
        Sum("in_deg", alias_name="in_deg"),
    )


def triple_provenance(linked_triples_ds, evidence_k: int = 3):
    """Evidence tracking per deduped triple: (subj_id, pred, obj_id) ->
    number of distinct supporting documents plus the ``evidence_k``
    smallest doc_ids as a deterministic evidence sample — the
    provenance record a production KG keeps next to each fact.

    Scale shape: a document's triples never straddle a batch, so the
    per-batch distinct (key, doc_id) combiner emits globally-unique
    pairs; the shuffle carries one slim row per (triple, doc).  The
    min-k evidence sample is associative (min-k of min-ks), so hot
    triples are bounded at the reduce by #batches.  Reference analog:
    the per-bag instance bookkeeping of rex/data/transforms/
    bag_re.py:78-108, with provenance instead of instance features.
    """
    import numpy as np
    import pyarrow as pa

    KEYS = ["subj_id", "pred", "obj_id"]
    out_schema = pa.schema(
        [
            ("subj_id", pa.string()),
            ("pred", pa.string()),
            ("obj_id", pa.string()),
            ("n_docs", pa.int64()),
            ("evidence", pa.string()),
        ]
    )

    def pairs(batch: pd.DataFrame):
        slim = batch[KEYS + ["doc_id"]].drop_duplicates()
        return arrow_block(slim)

    def merge(g: pd.DataFrame) -> pa.Table:
        ids = np.sort(np.unique(g["doc_id"].to_numpy()))
        return pa.table(
            {
                "subj_id": [str(g["subj_id"].iloc[0])],
                "pred": [str(g["pred"].iloc[0])],
                "obj_id": [str(g["obj_id"].iloc[0])],
                "n_docs": pa.array([len(ids)], pa.int64()),
                "evidence": [
                    ",".join(str(i) for i in ids[:evidence_k])
                ],
            },
            schema=out_schema,
        )

    slim = pre_shuffle(
        linked_triples_ds.map_batches(pairs, batch_format="pandas")
    )
    return slim.groupby(KEYS).map_groups(merge, batch_format="pandas")


def predicate_overlap(store_ds, min_shared: int = 2,
                      max_driver_rows: int = None):
    """Predicate-synonym / domain-overlap candidates — the
    schema-induction signal behind AMIE/PATTY-style predicate
    taxonomies (Galárraga et al. WWW'13): two predicates attested for
    >= ``min_shared`` identical DISTINCT subjects are domain-overlap
    candidates, with each predicate's distinct-subject support
    attached so overlap ratio = n_shared / n_a is derivable
    downstream without a float contract.

    Dataflow: ONE groupby on subj_id co-locates a subject's predicates
    (per-group ``np.unique`` makes the pair set exactly distinct —
    no separate global dedup pass); per-subject predicate pairs ->
    partial counts -> one predicate-vocabulary-sized shuffle.
    Supports are the distinct (subj, pred) counts: per-batch distinct
    partials -> pair shuffle -> per-pred count, broadcast worker-built
    (the predicate vocabulary is small by construction).
    Output: (pred_a, pred_b, n_shared, n_a, n_b), a < b.

    Routing (functions/routing.py): at or below ``max_driver_rows``
    store rows the groupby+wedge dataflow is pure job spin-up and the
    same distinct-subject pair counts run on an exact pandas driver
    twin (route-equality tested in tests/test_graph_routing.py).
    """
    import ray.data as rd

    from ray.data.aggregate import Count, Sum

    from rex_ray.functions.routing import route_driver
    from rex_ray.functions.blocks import _side_object, _worker_built_ref

    out_schema = pa.schema(
        [("pred_a", pa.string()), ("pred_b", pa.string()),
         ("n_shared", pa.int64()), ("n_a", pa.int64()),
         ("n_b", pa.int64())]
    )
    store_ds = store_ds.materialize()
    n_rows = store_ds.count()
    if n_rows == 0:
        return rd.from_arrow(out_schema.empty_table())
    if route_driver(n_rows, max_driver_rows):
        sp = (
            store_ds.select_columns(["subj_id", "pred"])
            .to_pandas().drop_duplicates()
        )
        sup = sp.groupby("pred", sort=False).size()
        counts: dict = {}
        for _, grp in sp.groupby("subj_id", sort=False)["pred"]:
            ps = np.unique(grp.to_numpy(dtype="U"))
            if len(ps) < 2:
                continue
            i, j = np.triu_indices(len(ps), k=1)
            for a, b in zip(ps[i], ps[j]):
                counts[(a, b)] = counts.get((a, b), 0) + 1
        rows = sorted(
            (k, v) for k, v in counts.items() if v >= min_shared
        )
        if not rows:
            return rd.from_arrow(out_schema.empty_table())
        return rd.from_arrow(
            pa.table(
                {
                    "pred_a": pa.array([k[0] for k, _ in rows], pa.string()),
                    "pred_b": pa.array([k[1] for k, _ in rows], pa.string()),
                    "n_shared": pa.array(
                        [v for _, v in rows], pa.int64()
                    ),
                    "n_a": pa.array(
                        [int(sup[k[0]]) for k, _ in rows], pa.int64()
                    ),
                    "n_b": pa.array(
                        [int(sup[k[1]]) for k, _ in rows], pa.int64()
                    ),
                }
            )
        )

    _PAIR = pa.schema(
        [("pred_a", pa.string()), ("pred_b", pa.string()),
         ("n_shared", pa.int64())]
    )

    def sp_partial(t: pa.Table) -> pa.Table:
        return (
            t.select(["subj_id", "pred"])
            .group_by(["subj_id", "pred"])
            .aggregate([("pred", "count")])
            .select(["subj_id", "pred"])
        )

    sp = (
        pre_shuffle(store_ds.map_batches(sp_partial, batch_format="pyarrow"))
        .groupby(["subj_id", "pred"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["subj_id", "pred"])
    )

    def sup_partial(t: pa.Table) -> pa.Table:
        return (
            t.select(["pred"])
            .group_by("pred")
            .aggregate([("pred", "count")])
            .rename_columns(["pred", "n"])
        )

    sup_ds = (
        pre_shuffle(sp.map_batches(sup_partial, batch_format="pyarrow"))
        .groupby("pred")
        .aggregate(Sum("n", alias_name="n"))
    )
    sup_ref = _worker_built_ref(
        sup_ds,
        lambda tables: {
            p: int(n)
            for t in tables
            if t.num_rows
            for p, n in zip(t["pred"].to_pylist(), t["n"].to_pylist())
        },
    )

    def wedges(g: pd.DataFrame) -> pa.Table:
        ps = np.unique(g["pred"].to_numpy(dtype="U"))
        if len(ps) < 2:
            return _PAIR.empty_table()
        i, j = np.triu_indices(len(ps), k=1)
        return arrow_block(
            pd.DataFrame(
                {"pred_a": ps[i], "pred_b": ps[j],
                 "n_shared": np.ones(len(i), dtype=np.int64)}
            ),
            schema=_PAIR,
        )

    pairs = (
        pre_shuffle(sp)
        .groupby("subj_id")
        .map_groups(wedges, batch_format="pandas")
    )
    cand = (
        pre_shuffle(pairs)
        .groupby(["pred_a", "pred_b"])
        .aggregate(Sum("n_shared", alias_name="n_shared"))
    )

    def attach(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.greater_equal(t["n_shared"], min_shared))
        sup = _side_object(sup_ref)
        pa_ = t["pred_a"].to_pylist()
        pb_ = t["pred_b"].to_pylist()
        return pa.table(
            {
                "pred_a": pa.array(pa_, pa.string()),
                "pred_b": pa.array(pb_, pa.string()),
                "n_shared": t["n_shared"].combine_chunks(),
                "n_a": pa.array([sup[p] for p in pa_], pa.int64()),
                "n_b": pa.array([sup[p] for p in pb_], pa.int64()),
            }
        )

    return cand.map_batches(attach, batch_format="pyarrow")


def predicate_functionality(store_ds, max_driver_rows: int = None):
    """Per-predicate functionality statistics — the KG-cleaning signal
    AMIE/PARIS key their rule mining and alignment on (Galárraga et
    al. WWW'13 §4; Suchanek et al. VLDB'11 §4): for every predicate,
    n_triples (the store is already distinct (s, p, o)), distinct
    subject/object counts, the largest per-subject object fan-out, and
    functionality_ppb = floor(1e9 * n_subj / n_triples + 0.5) — 1e9
    means every subject has exactly one object (a functional
    predicate, near-certain extraction error when violated).

    Dataflow: two slim endpoint-count shuffles (pred, subj) / (pred,
    obj) with per-batch partials folded through ONE union groupby —
    no joins, output one row per predicate (ontology-bounded).

    Routing (functions/routing.py): the store is the REDUCED output
    of the corpus pipeline and is materialized here anyway, so its
    row count is one metadata read; at or below ``max_driver_rows``
    the two-shuffle dataflow is pure job spin-up and the same
    all-integer statistics run on an exact pandas driver twin
    (route-equality tested in tests/test_graph_routing.py)."""
    import ray.data as rd

    from rex_ray.functions.routing import route_driver

    full_schema = pa.schema(
        [("pred", pa.string()), ("n_triples", pa.int64()),
         ("n_subj", pa.int64()), ("n_obj", pa.int64()),
         ("max_fanout", pa.int64()),
         ("functionality_ppb", pa.int64())]
    )
    store_ds = store_ds.materialize()
    n_rows = store_ds.count()
    if n_rows == 0:
        return rd.from_arrow(full_schema.empty_table())
    if route_driver(n_rows, max_driver_rows):
        df = store_ds.select_columns(
            ["subj_id", "pred", "obj_id"]
        ).to_pandas()
        g = df.groupby("pred", sort=False)
        agg = pd.DataFrame(
            {
                "n_triples": g.size(),
                "n_subj": g["subj_id"].nunique(),
                "n_obj": g["obj_id"].nunique(),
                "max_fanout": df.groupby(
                    ["pred", "subj_id"], sort=False
                ).size().groupby("pred").max(),
            }
        ).reset_index()
        ns = agg["n_subj"].to_numpy(np.float64)
        nt = agg["n_triples"].to_numpy(np.float64)
        agg["functionality_ppb"] = np.floor(1e9 * ns / nt + 0.5).astype(
            np.int64
        )
        return rd.from_arrow(
            pa.Table.from_pandas(
                agg, schema=full_schema, preserve_index=False
            )
        )

    def rename_c(t: pa.Table) -> pa.Table:
        return t.rename_columns(list(t.schema.names)[:-1] + ["c"])

    out_schema = pa.schema(
        [("pred", pa.string()), ("n_triples", pa.int64()),
         ("n_subj", pa.int64()), ("n_obj", pa.int64()),
         ("max_fanout", pa.int64())]
    )

    def subj_partial(b: pd.DataFrame) -> pa.Table:
        g = b.groupby("pred", sort=False)["c"]
        agg = pd.DataFrame(
            {"n_triples": g.sum(), "n_subj": g.size(), "max_fanout": g.max()}
        ).reset_index()
        agg["n_obj"] = np.int64(0)
        return arrow_block(
            agg[["pred", "n_triples", "n_subj", "n_obj", "max_fanout"]],
            schema=out_schema,
        )

    def obj_partial(b: pd.DataFrame) -> pa.Table:
        g = b.groupby("pred", sort=False)["c"]
        agg = pd.DataFrame({"n_obj": g.size()}).reset_index()
        for col in ("n_triples", "n_subj", "max_fanout"):
            agg[col] = np.int64(0)
        return arrow_block(
            agg[["pred", "n_triples", "n_subj", "n_obj", "max_fanout"]],
            schema=out_schema,
        )

    subj = (
        store_ds.groupby(["pred", "subj_id"]).count()
        .map_batches(rename_c, batch_format="pyarrow")
        .map_batches(subj_partial, batch_format="pandas")
    )
    obj = (
        store_ds.groupby(["pred", "obj_id"]).count()
        .map_batches(rename_c, batch_format="pyarrow")
        .map_batches(obj_partial, batch_format="pandas")
    )
    folded = (
        pre_shuffle(subj.union(obj))
        .groupby("pred")
        .aggregate(
            Sum("n_triples", alias_name="n_triples"),
            Sum("n_subj", alias_name="n_subj"),
            Sum("n_obj", alias_name="n_obj"),
            Max("max_fanout", alias_name="max_fanout"),
        )
    )

    def add_functionality(t: pa.Table) -> pa.Table:
        ns = t["n_subj"].to_numpy(zero_copy_only=False).astype(np.float64)
        nt = t["n_triples"].to_numpy(zero_copy_only=False).astype(np.float64)
        ppb = np.floor(1e9 * ns / nt + 0.5).astype(np.int64)
        return t.append_column(
            "functionality_ppb", pa.array(ppb, pa.int64())
        )

    return folded.map_batches(add_functionality, batch_format="pyarrow")
