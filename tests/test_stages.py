"""Stage-level unit tests (batch bodies, no Ray needed) plus the
canonicalization equivalence check."""

import numpy as np
import pandas as pd
import pytest

from rex_ray import trace
from rex_ray.pipelines import spec
from rex_ray.stages import canonical
from rex_ray.stages.extract import MentionExtractor, TripleExtractor
from rex_ray.stages.link import CanonicalLinker, hashed_embedding


def _batch():
    return pd.DataFrame(
        {
            "doc_id": [1, 2],
            "text": [
                "the join uses hash and table",
                "spark join merge",
            ],
        }
    )


def test_mention_extractor():
    m = MentionExtractor()(_batch())
    assert hasattr(m, "to_pandas")  # stages emit Arrow into the store
    m = m.to_pandas()
    got = list(zip(m.doc_id, m.pos, m.surface, m.ent_type))
    assert (1, 1, "join", "ALGO") in got
    assert (1, 3, "hash", "ALGO") in got
    assert (2, 0, "spark", "SYS") in got
    assert all(s in spec.GAZETTEER for s in m.surface)


def test_triple_extractor_window_and_pred():
    t = TripleExtractor()(_batch()).to_pandas()
    rows = {
        (r.doc_id, r.subj, r.pred, r.obj, r.score)
        for r in t.itertuples()
    }
    # join -> hash at distance 2 (composed_with), score 0.5
    assert (1, "join", "composed_with", "hash", 0.5) in rows
    # join -> table at distance 4
    assert (1, "join", "applies_to", "table", 0.25) in rows
    # hash -> table distance 2
    assert (1, "hash", "applies_to", "table", 0.5) in rows
    # spark -> join distance 1
    assert (2, "spark", "implements", "join", 1.0) in rows
    # no pair beyond the window
    assert not any(
        r.obj_pos - r.subj_pos > spec.PAIR_WINDOW for r in t.itertuples()
    )
    assert (t.pair_key == t.subj + "###" + t.obj).all()


def test_triple_extractor_empty():
    t = TripleExtractor()(
        pd.DataFrame({"doc_id": [9], "text": ["nothing here"]})
    ).to_pandas()
    assert len(t) == 0
    assert "pair_key" in t.columns
    assert t["doc_id"].dtype == np.int64  # schema-stable empty block


def test_cc_local():
    nodes = ["a", "b", "c", "d", "e"]
    edges = [("a", "b"), ("b", "c"), ("d", "e")]
    cc = canonical.cc_local(nodes, edges)
    assert cc == {"a": "a", "b": "a", "c": "a", "d": "d", "e": "d"}


def _random_graph():
    rng = np.random.RandomState(3)
    nodes = [f"n{i:02d}" for i in range(40)]
    edges = [
        (nodes[rng.randint(40)], nodes[rng.randint(40)]) for _ in range(30)
    ]
    return nodes, edges


def _path_graph():
    """n00 - n01 - ... - n21: diameter 21, one component."""
    nodes = [f"n{i:02d}" for i in range(22)]
    return nodes, list(zip(nodes, nodes[1:]))


@pytest.mark.parametrize(
    "graph", [_random_graph, _path_graph], ids=["random", "path22"]
)
def test_cc_label_propagation_matches_local(ray_session, graph):
    import ray.data as rd

    nodes, edges = graph()
    local = canonical.cc_local(nodes, edges)
    nodes_ds = rd.from_pandas(pd.DataFrame({"node": nodes}))
    edges_ds = rd.from_pandas(pd.DataFrame(edges, columns=["a", "b"]))
    dist = canonical.cc_label_propagation(nodes_ds, edges_ds)
    got = {
        r["node"]: r["canonical"] for r in dist.to_pandas().to_dict("records")
    }
    assert got == local


def test_canonical_map_filters_absent_surfaces():
    cm = canonical.canonical_map_for_surfaces(
        ["sort", "order", "join"], spec.VARIANT_EDGES, "ent:"
    )
    # order~sort merge; 'arrange' edge ignored (absent); join alone
    assert cm == {"sort": "ent:order", "order": "ent:order", "join": "ent:join"}


def test_canonical_map_cardinality_guard_routes_distributed(ray_session):
    """Above max_driver_nodes the flagship's canonical map comes from
    distributed label propagation — and must be IDENTICAL to the driver
    union-find map (round-2 verdict item #3: the switch, not just the
    twin, is exercised)."""
    # synthetic surface explosion: 300 surfaces, chains of 3 variants
    surfaces = [f"s{i:03d}" for i in range(300)]
    edges = [
        (f"s{i:03d}", f"s{i + 1:03d}")
        for i in range(0, 298, 3)
    ] + [
        (f"s{i + 1:03d}", f"s{i + 2:03d}")
        for i in range(0, 297, 3)
    ] + [("s999", "s000")]  # absent endpoint -> filtered
    local = canonical.canonical_map_for_surfaces(
        surfaces, edges, "ent:", max_driver_nodes=10**9
    )
    dist = canonical.canonical_map_for_surfaces(
        surfaces, edges, "ent:", max_driver_nodes=100
    )
    assert dist == local
    assert dist["s001"] == "ent:s000" and dist["s002"] == "ent:s000"


def test_labels_checksum_ignores_block_boundaries(ray_session):
    """LP stops when the label checksum repeats, so one label table
    must give one checksum however Ray splits it into blocks."""
    import pyarrow as pa
    import ray.data as rd

    t = pa.table(
        {
            "node": [f"n{i:03d}" for i in range(60)],
            "canonical": [f"n{i // 3 * 3:03d}" for i in range(60)],
        }
    )
    one = canonical._labels_checksum(rd.from_arrow(t))
    for cuts in ([0, 7, 30, 60], [0, 1, 2, 59, 60]):
        blocks = [t.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]
        assert canonical._labels_checksum(rd.from_arrow(blocks)) == one


def test_cc_label_propagation_zero_edges(ray_session):
    """A corpus where NO variant edges survive the presence filter:
    every node is its own component (regression: the empty edge table
    lost its schema inside the join and aborted with ArrowInvalid)."""
    labels = canonical.canonical_labels_ds(["a", "b", "c"], [])
    got = {
        r["node"]: r["canonical"]
        for r in labels.to_pandas().to_dict("records")
    }
    assert got == {"a": "a", "b": "b", "c": "c"}


def test_link_triples_via_join_empty_map_all_nil(ray_session):
    """Empty canonical map: every surface links NIL (regression: the
    empty right join side lost its schema and aborted)."""
    import ray.data as rd

    from rex_ray.stages import link as L

    tri = rd.from_pandas(
        pd.DataFrame(
            {"doc_id": [1], "subj": ["x"], "pred": ["p"],
             "obj": ["y"], "score": [0.5]}
        )
    )
    empty_map = rd.from_pandas(
        pd.DataFrame(
            {"node": pd.Series([], dtype=str),
             "canonical": pd.Series([], dtype=str)}
        )
    )
    out = L.link_triples_via_join(tri, empty_map).to_pandas()
    assert out[["subj_id", "obj_id"]].values.tolist() == [
        ["nil:x", "nil:y"]
    ]


def test_link_triples_via_join_matches_broadcast(ray_session):
    """The distributed-join linker (map too big to broadcast) is
    byte-identical to the broadcast-dict linker, NIL fills included."""
    import ray.data as rd

    from rex_ray.stages import link as L

    triples = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "subj": ["join", "zzz", "sort", "join"],
            "pred": ["p", "q", "p", "r"],
            "obj": ["sort", "join", "zzz", "yyy"],
            "score": [0.5, 0.6, 0.7, 0.8],
        }
    )
    cmap = {"join": "ent:join", "sort": "ent:order"}
    want = (
        L.link_triples(rd.from_pandas(triples), cmap)
        .to_pandas()
        .sort_values(["doc_id"], ignore_index=True)
    )
    map_ds = rd.from_pandas(
        pd.DataFrame(
            {"node": list(cmap), "canonical": [cmap[k] for k in cmap]}
        )
    )
    got = (
        L.link_triples_via_join(rd.from_pandas(triples), map_ds)
        .to_pandas()
        .sort_values(["doc_id"], ignore_index=True)
    )
    cols = ["doc_id", "subj", "pred", "obj", "score", "subj_id", "obj_id"]
    pd.testing.assert_frame_equal(got[cols], want[cols])


def test_linker_nil_handling():
    linker = CanonicalLinker({"join": "ent:join"})
    out = linker(
        pd.DataFrame(
            {
                "subj": ["join", "zzz"],
                "obj": ["zzz", "join"],
                "pred": ["p", "p"],
            }
        )
    )
    assert out.subj_id.tolist() == ["ent:join", "nil:zzz"]
    assert out.obj_id.tolist() == ["nil:zzz", "ent:join"]


def test_hashed_embedding_deterministic_unit():
    a = hashed_embedding(["alpha", "beta"])
    b = hashed_embedding(["alpha", "beta"])
    assert np.allclose(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_embedding_disambiguator_context_decides_and_ties_break(ray_session):
    """Context markers pick the candidate; zero-evidence ties go to the
    lexicographically smaller entity id (oracle rule)."""
    import pandas as pd
    import ray.data as rd

    from rex_ray.pipelines import spec
    from rex_ray.stages.link import disambiguate_mentions

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "hash scan join zz",     # idx markers around 'scan'
                "table scan row zz",     # seq markers around 'scan'
                "zz zz scan zz zz",      # no markers -> tie -> smaller id
                "order window sort zz",  # time markers around 'window'
            ],
        }
    )
    out = (
        disambiguate_mentions(rd.from_pandas(docs))
        .to_pandas()
        .set_index("doc_id")["entity_id"]
        .to_dict()
    )
    assert out[1] == "ent:scan#idx"
    assert out[2] == "ent:scan#seq"
    assert out[3] == "ent:scan#idx"  # tie -> lexicographically smaller
    assert out[4] == "ent:window#time"
    assert set(spec.AMBIG_ALIASES) == {"scan", "window"}


def test_per_key_cap_block_structure_invariant(ray_session):
    """The partial top-n combiner is associative: the cap result must
    not depend on how the input is blocked."""
    import ray.data as rd

    from rex_ray.stages.relational import per_key_cap

    sf = "/root/testdata/sf0.001"
    ds1 = rd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "source"])
    a = (
        per_key_cap(ds1, "source", "doc_id", 7)
        .to_pandas()
        .sort_values(["source", "doc_id"])
        .reset_index(drop=True)
    )
    ds2 = rd.read_parquet(
        f"{sf}/documents.parquet", columns=["doc_id", "source"]
    ).repartition(37)
    b = (
        per_key_cap(ds2, "source", "doc_id", 7)
        .to_pandas()
        .sort_values(["source", "doc_id"])
        .reset_index(drop=True)
    )
    assert a.equals(b)
    assert (a.groupby("source").size() <= 7).all()


def test_bloom_filter_no_false_negatives():
    import numpy as np

    from rex_ray.functions.hashing import IntBloomFilter

    rng = np.random.default_rng(0)
    keys = rng.choice(10**9, 6000, replace=False).astype(np.int64)
    members, others = keys[:3000], keys[3000:]
    bf = IntBloomFilter(num_bits=1 << 16, num_hashes=5)
    bf.add_many(members)
    assert bf.contains_many(members).all()          # never a false negative
    assert bf.contains_many(others).mean() < 0.05   # FP rate sane
    # OR-merge equals single-shot build
    b1 = IntBloomFilter(num_bits=1 << 16, num_hashes=5)
    b2 = IntBloomFilter(num_bits=1 << 16, num_hashes=5)
    b1.add_many(members[:1500]); b2.add_many(members[1500:])
    assert (b1.merge(b2).bits == bf.bits).all()


def test_bloom_semi_join_matches_isin(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from rex_ray.stages.relational import bloom_semi_join

    sf = "/root/testdata/sf0.001"
    orders = rd.read_parquet(f"{sf}/orders.parquet", columns=["o_orderkey"])
    li = rd.read_parquet(
        f"{sf}/lineitem.parquet", columns=["l_orderkey", "l_returnflag"]
    ).map_batches(
        lambda t: pa.table(
            {"o_orderkey": t.filter(
                pc.equal(t["l_returnflag"], "R"))["l_orderkey"]}
        ),
        batch_format="pyarrow",
    )
    got = sorted(
        bloom_semi_join(orders, li, on="o_orderkey")
        .to_pandas()["o_orderkey"]
    )
    odf = pd.read_parquet(f"{sf}/orders.parquet", columns=["o_orderkey"])
    ldf = pd.read_parquet(
        f"{sf}/lineitem.parquet", columns=["l_orderkey", "l_returnflag"]
    )
    keys = set(ldf.loc[ldf["l_returnflag"] == "R", "l_orderkey"])
    exp = sorted(odf.loc[odf["o_orderkey"].isin(keys), "o_orderkey"])
    assert got == exp and len(got) > 0


def test_predicate_functionality_hand_computed(ray_session):
    """store: p1 has subjects a (objs x,y) and b (obj x) -> n_triples 3,
    n_subj 2, n_obj 2, max_fanout 2, functionality floor(1e9*2/3+.5);
    p2 is perfectly functional -> 1e9."""
    import pandas as pd
    import ray.data as rd

    from rex_ray.stages.aggregate import predicate_functionality

    store = rd.from_items(
        [
            {"subj_id": "a", "pred": "p1", "obj_id": "x"},
            {"subj_id": "a", "pred": "p1", "obj_id": "y"},
            {"subj_id": "b", "pred": "p1", "obj_id": "x"},
            {"subj_id": "a", "pred": "p2", "obj_id": "x"},
            {"subj_id": "c", "pred": "p2", "obj_id": "y"},
        ]
    ).repartition(3)
    # both routes (driver twin + distributed dataflow) must match the
    # hand computation exactly
    for force in (None, 0):
        got = (
            predicate_functionality(store, max_driver_rows=force)
            .to_pandas().sort_values("pred", ignore_index=True)
        )
        assert got["pred"].tolist() == ["p1", "p2"]
        assert got["n_triples"].tolist() == [3, 2]
        assert got["n_subj"].tolist() == [2, 2]
        assert got["n_obj"].tolist() == [2, 2]
        assert got["max_fanout"].tolist() == [2, 1]
        assert got["functionality_ppb"].tolist() == [
            666666667, 1000000000,
        ]


def test_stratified_bottomk_partition_invariant(ray_session):
    """Per-stratum KMV sample: k per stratum, exactly the smallest
    md5(id) rows of each stratum, invariant to partition count."""
    import hashlib

    import pandas as pd
    import ray.data as rd

    from rex_ray.stages.textstats import stratified_bottomk

    rows = [
        {"doc_id": i, "lang": ["en", "de", "fr"][i % 3]}
        for i in range(300)
    ]

    def run(parts):
        return (
            stratified_bottomk(
                rd.from_items(rows).repartition(parts),
                strata_col="lang", id_col="doc_id", k=5,
            )
            .to_pandas()
            .sort_values(["lang", "h"], ignore_index=True)
        )

    got = run(1)
    assert got.groupby("lang").size().tolist() == [5, 5, 5]
    for lang in ("en", "de", "fr"):
        ids = [r["doc_id"] for r in rows if r["lang"] == lang]
        want = sorted(
            ids, key=lambda v: (hashlib.md5(str(v).encode()).hexdigest(), v)
        )[:5]
        assert sorted(got.loc[got.lang == lang, "doc_id"]) == sorted(want)
    pd.testing.assert_frame_equal(got, run(7))


def test_new_ops_total_on_empty_inputs(ray_session):
    """Degenerate-corpus totality for the round-4 operators: empty
    store / empty documents flow through without schema crashes."""
    import pandas as pd
    import ray.data as rd

    from rex_ray.stages.aggregate import predicate_functionality
    from rex_ray.stages.textstats import (
        cross_doc_dup_ngrams,
        stratified_bottomk,
    )

    empty_store = rd.from_pandas(
        pd.DataFrame({"subj_id": pd.Series([], dtype=str),
                      "pred": pd.Series([], dtype=str),
                      "obj_id": pd.Series([], dtype=str)})
    )
    assert predicate_functionality(empty_store).count() == 0

    empty_docs = rd.from_pandas(
        pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                      "text": pd.Series([], dtype=str),
                      "lang": pd.Series([], dtype=str)})
    )
    assert stratified_bottomk(
        empty_docs, strata_col="lang", id_col="doc_id", k=5
    ).count() == 0
    assert cross_doc_dup_ngrams(empty_docs, n=3).count() == 0

    from rex_ray.stages.textstats import heavy_hitter_ngrams

    assert heavy_hitter_ngrams(empty_docs, n=3, k=10).count() == 0


def test_mg_compress_kernel():
    """Misra-Gries compress: <= k survivors, every survivor
    underestimated by exactly the (k+1)-th largest, small counters
    dropped whole."""
    import pandas as pd

    from rex_ray.stages.textstats import _mg_compress

    vc = pd.Series([10, 7, 7, 3, 2, 1], index=list("abcdef"))
    out = _mg_compress(vc, k=3)
    # v = 4th largest = 3; a->7 b->4 c->4, d..f dropped
    assert out.to_dict() == {"a": 7, "b": 4, "c": 4}
    # k >= len: identity
    pd.testing.assert_series_equal(_mg_compress(vc, k=6), vc)


def test_heavy_hitters_exact_and_superset(ray_session):
    """Two-pass MG heavy hitters on a planted Zipf-ish corpus with k
    far below the distinct-gram count (per-batch AND global compress
    both fire): output == brute-force exact heavy hitters, candidate
    set is a superset, and the answer is partition-invariant."""
    import pandas as pd
    import ray.data as rd

    from rex_ray.stages.textstats import heavy_hitter_ngrams

    # deterministic skew: token t_i appears ~1000/i times; unigrams
    # (n=1) so the brute force is a plain value_counts
    toks = []
    for i in range(1, 120):
        toks.extend([f"t{i}"] * (1000 // i))
    # fixed interleave so batches see mixed tokens (no shuffling APIs
    # with ambient randomness inside a test)
    toks = [toks[(j * 37) % len(toks)] for j in range(len(toks))]
    docs = pd.DataFrame(
        {
            "doc_id": range(len(toks) // 10),
            "text": [
                " ".join(toks[j * 10: (j + 1) * 10])
                for j in range(len(toks) // 10)
            ],
        }
    )
    all_toks = pd.Series(" ".join(docs["text"]).split(" "))
    total = len(all_toks)
    k = 12
    want = (
        all_toks.value_counts()
        .loc[lambda s: s * k > total]
        .rename("n")
        .rename_axis("gram")
        .reset_index()
        .sort_values("gram", ignore_index=True)
    )
    assert 0 < len(want) < 12  # the threshold actually bites

    def run(parts):
        with trace.run() as info:
            got = (
                heavy_hitter_ngrams(
                    rd.from_pandas(docs).repartition(parts), n=1, k=k,
                )
                .to_pandas()
                .sort_values("gram", ignore_index=True)
            )
        return got, info

    got1, info1 = run(1)
    got7, info7 = run(7)
    pd.testing.assert_frame_equal(
        got1.astype({"n": "int64"}), want.astype({"n": "int64"})
    )
    pd.testing.assert_frame_equal(got1, got7)
    for info in (info1, info7):
        assert info["total_grams"] == total
        assert info["n_candidates"] <= k  # global compress bound held
