"""Distributed (label-propagation + join-linking) flagship route:

* forced-LP route is byte-equal to the broadcast route on the real
  corpus (also driver-gate-checked as kg_triple_store_lp);
* the cardinality guard fires AUTOMATICALLY above DRIVER_CC_MAX_NODES
  distinct surfaces (>50k synthetic gazetteer) and the routed output is
  correct — no surface list or dict on the driver (round-3 verdict #1,
  north-star canonicalization SURVEY.md §7.1 steps 9-10).
"""

import pandas as pd
import pytest

import ray.data as rd

from rex_ray import trace

SF = "/root/testdata/sf0.001"


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), ignore_index=True)


def _docs():
    return rd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )


def test_lp_route_equals_broadcast_route(ray_session):
    from rex_ray.pipelines import kg

    with trace.run() as route:
        lp = kg.triple_store_from_text_docs(_docs(), max_driver_nodes=0)
    assert route["canonical_route"] == "lp"
    broadcast = kg.triple_store_from_text_docs(_docs())
    pd.testing.assert_frame_equal(
        _norm(lp.to_pandas()), _norm(broadcast.to_pandas())
    )


def test_stored_canonical_map_equals_forced_lp_map(ray_session):
    """The dict the resumable runners persist (kg.build_canonical_map)
    equals the distributed map over the same surface nodes with the
    sliver fixpoint forced."""
    from rex_ray.pipelines import kg, spec
    from rex_ray.stages import canonical as canon
    from rex_ray.stages import extract

    nodes = kg._surface_nodes(extract.extract_mentions(_docs()))
    lp = canon.canonical_labels_from_nodes_ds(
        nodes, spec.VARIANT_EDGES, spec.ENTITY_ID_PREFIX,
        sliver_max_driver_nodes=0,
    ).to_pandas()
    stored = kg.build_canonical_map(_docs())
    assert len(stored) > 0
    assert dict(zip(lp["node"], lp["canonical"])) == stored


def test_guard_default_route_is_driver_at_gazetteer_scale(ray_session):
    from rex_ray.pipelines import kg

    with trace.run() as route:
        kg.triple_store_from_text_docs(_docs().limit(50)).count()
    assert route["canonical_route"] == "driver"
    assert route["n_surfaces"] <= 50


def test_lp_fixpoint_runs_only_on_alias_touched_sliver(
    ray_session, monkeypatch
):
    """canonical_labels_from_nodes_ds must run the LP fixpoint ONLY on
    nodes that are alias-edge endpoints (bounded by 2*len(edges));
    every untouched node gets its identity label from a streaming map
    without entering the iterative join loop (round-4 verdict #3)."""
    import pyarrow as pa
    import ray.data as rd

    from rex_ray.pipelines import spec
    from rex_ray.stages import canonical as canon

    n_untouched = 5_000
    nodes = [f"u{i:05d}" for i in range(n_untouched)] + sorted(
        {a for a, _ in spec.VARIANT_EDGES}
        | {b for _, b in spec.VARIANT_EDGES}
    )
    nodes_ds = rd.from_arrow(
        pa.table({"node": pa.array(nodes, pa.string())})
    ).repartition(4)

    seen = {}
    real = canon.canonical_labels_ds

    def spy(sliver_nodes, sliver_edges):
        seen["n_nodes"] = len(sliver_nodes)
        seen["n_edges"] = len(sliver_edges)
        return real(sliver_nodes, sliver_edges)

    monkeypatch.setattr(canon, "canonical_labels_ds", spy)
    # sliver_max_driver_nodes=0 forces the DISTRIBUTED fixpoint on the
    # sliver (the natural default union-finds a driver-small sliver)
    labels = canon.canonical_labels_from_nodes_ds(
        nodes_ds, spec.VARIANT_EDGES, prefix=spec.ENTITY_ID_PREFIX,
        sliver_max_driver_nodes=0,
    ).to_pandas()

    # the fixpoint saw only the alias-touched sliver, never the corpus
    assert seen["n_nodes"] <= 2 * len(spec.VARIANT_EDGES)
    assert seen["n_nodes"] < n_untouched

    # output is still the full map, equal to driver union-find
    got = dict(zip(labels["node"], labels["canonical"]))
    edges = [
        (a, b)
        for a, b in spec.VARIANT_EDGES
        if a in set(nodes) and b in set(nodes)
    ]
    want = {
        n: spec.ENTITY_ID_PREFIX + c
        for n, c in canon.cc_local(nodes, edges).items()
    }
    assert got == want


def test_sliver_engines_equal_and_default_is_driver_uf(ray_session):
    """The sliver's component engine obeys the driver-size knob: by
    default an alias-dict-bounded sliver is union-found on the driver
    (it is already driver-resident; a distributed fixpoint over tens
    of rows is pure Ray-job spin-up), while sliver_max_driver_nodes=0
    forces the LP fixpoint — and the two engines emit the SAME map."""
    import pyarrow as pa
    import ray.data as rd

    from rex_ray.pipelines import spec
    from rex_ray.stages import canonical as canon

    nodes = [f"u{i:03d}" for i in range(500)] + sorted(
        {n for e in spec.VARIANT_EDGES for n in e}
    )
    nodes_ds = rd.from_arrow(
        pa.table({"node": pa.array(nodes, pa.string())})
    ).repartition(4)

    with trace.run() as info_uf:
        uf = canon.canonical_labels_from_nodes_ds(
            nodes_ds, spec.VARIANT_EDGES, prefix=spec.ENTITY_ID_PREFIX,
        ).to_pandas()
    with trace.run() as info_lp:
        lp = canon.canonical_labels_from_nodes_ds(
            nodes_ds, spec.VARIANT_EDGES, prefix=spec.ENTITY_ID_PREFIX,
            sliver_max_driver_nodes=0,
        ).to_pandas()
    assert info_uf["sliver_engine"] == "driver_uf"
    assert info_lp["sliver_engine"] == "lp"
    assert info_uf["n_touched"] == info_lp["n_touched"] > 0
    pd.testing.assert_frame_equal(_norm(uf), _norm(lp))


def test_guard_routes_lp_above_50k_surfaces(ray_session):
    """>DRIVER_CC_MAX_NODES distinct surfaces (a learned-NER-sized
    inventory) with the DEFAULT threshold: the flagship must route
    through label propagation + join linking on its own, and the
    output must carry every surface as a canonical entity with the
    alias components still collapsed."""
    from rex_ray.pipelines import kg, spec
    from rex_ray.stages import canonical as canon

    n_tokens = 100
    n_docs = (canon.DRIVER_CC_MAX_NODES // n_tokens) + 6
    # doc i contributes tokens s{i}_0..s{i}_99 (all gazetteer hits)
    # plus one leading alias-graph surface so the variant components
    # are exercised through the distributed path too.
    aliases = sorted({a for a, _ in spec.VARIANT_EDGES})
    gaz = {a: t for a, t in spec.GAZETTEER.items()}
    rows = []
    for i in range(n_docs):
        toks = [aliases[i % len(aliases)]] + [
            f"s{i}_{j}" for j in range(n_tokens)
        ]
        for j in range(n_tokens):
            gaz[f"s{i}_{j}"] = "SYN"
        rows.append({"doc_id": i, "text": " ".join(toks)})
    used_aliases = {aliases[i % len(aliases)] for i in range(n_docs)}
    n_surfaces = n_docs * n_tokens + len(used_aliases)
    assert n_surfaces > canon.DRIVER_CC_MAX_NODES

    docs = rd.from_pandas(pd.DataFrame(rows)).repartition(8)
    with trace.run() as route:
        store = kg.triple_store_from_text_docs(docs, gazetteer=gaz)
    df = store.to_pandas()

    assert route["canonical_route"] == "lp"
    assert route["n_surfaces"] == n_surfaces
    # every adjacent same-doc pair inside the window produces a triple;
    # store rows are distinct (subj_id, pred, obj_id)
    assert not df.duplicated(["subj_id", "pred", "obj_id"]).any()
    # synthetic surfaces are their own canonical ids
    syn = df[df["subj_id"].str.startswith(f"{spec.ENTITY_ID_PREFIX}s")]
    assert len(syn) > 0
    # alias components collapsed exactly as the driver union-find would
    cc = canon.cc_local(aliases, spec.VARIANT_EDGES)
    seen_subj = set(df["subj_id"])
    for a in aliases:
        want = spec.ENTITY_ID_PREFIX + cc[a]
        non_canon = spec.ENTITY_ID_PREFIX + a
        if non_canon != want:
            assert non_canon not in seen_subj
    # no NILs: everything was in the gazetteer
    assert not df["subj_id"].str.startswith("nil:").any()
    assert not df["obj_id"].str.startswith("nil:").any()
