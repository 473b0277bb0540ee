"""Graph analytics: distributed triangle counting vs the driver-side
brute-force twin, plus a chained join fed straight from a join."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from rex_ray.stages.graph import triangle_counts, triangle_counts_local


def _edges_ds(edges):
    return rd.from_items([{"a": a, "b": b} for a, b in edges])


def _counts(ds) -> dict:
    return {
        r["entity_id"]: r["n_triangles"] for r in ds.take_all()
    }


def test_triangle_counts_matches_bruteforce_small():
    # K4 plus a pendant: K4 has 4 triangles, each node in 3
    edges = [
        ("a", "b"), ("a", "c"), ("a", "d"),
        ("b", "c"), ("b", "d"), ("c", "d"),
        ("d", "e"),
    ]
    got = _counts(triangle_counts(_edges_ds(edges), max_driver_edges=0))
    want = triangle_counts_local(edges)
    assert got == want == {"a": 3, "b": 3, "c": 3, "d": 3}


def test_triangle_counts_dedup_loops_direction():
    # duplicates, loops, and reversed duplicates must not change counts
    edges = [
        ("x", "y"), ("y", "x"), ("x", "x"),
        ("y", "z"), ("z", "x"), ("x", "y"),
    ]
    got = _counts(triangle_counts(_edges_ds(edges), max_driver_edges=0))
    assert got == {"x": 1, "y": 1, "z": 1}


def test_triangle_counts_random_graph_matches_bruteforce():
    rng = np.random.default_rng(7)
    n = 40
    edges = []
    for _ in range(260):
        a, b = rng.integers(0, n, size=2)
        edges.append((f"n{a}", f"n{b}"))
    got = _counts(triangle_counts(_edges_ds(edges), max_driver_edges=0))
    want = triangle_counts_local(edges)
    assert got == want
    assert sum(want.values()) % 3 == 0  # sanity: corners come in 3s


def test_triangle_counts_no_triangles():
    edges = [("a", "b"), ("b", "c"), ("c", "d")]  # a path
    got = _counts(triangle_counts(_edges_ds(edges), max_driver_edges=0))
    assert got == {}


def test_chained_hash_join_needs_no_caller_compaction():
    """A chained join through ``relational.hash_join``, whose tag step
    bundles blocks itself: a join output feeds straight in."""
    from rex_ray.stages.relational import hash_join

    edges = rd.from_items(
        [{"a": "x", "b": "y"}, {"a": "y", "b": "z"}, {"a": "x", "b": "z"}]
    )
    deg = rd.from_items(
        [{"node": k, "deg": 2} for k in ("x", "y", "z")]
    )
    da = deg.map_batches(
        lambda t: pa.table({"a": t["node"], "deg_a": t["deg"]}),
        batch_format="pyarrow",
    )
    db = deg.map_batches(
        lambda t: pa.table({"b": t["node"], "deg_b": t["deg"]}),
        batch_format="pyarrow",
    )
    rows = hash_join(hash_join(edges, da, on="a"), db, on="b").take_all()
    assert len(rows) == 3
    assert all(r["deg_a"] == 2 and r["deg_b"] == 2 for r in rows)


def test_pagerank_matches_local_twin():
    from rex_ray.stages.graph import pagerank, pagerank_local

    edges = [
        ("a", "b"), ("a", "c"), ("a", "d"),
        ("b", "c"), ("b", "d"), ("c", "d"),
        ("d", "e"), ("e", "f"),
    ]
    got = {
        r["entity_id"]: r["pr"]
        for r in pagerank(_edges_ds(edges), num_iters=3, max_driver_edges=0).take_all()
    }
    want = pagerank_local(edges, num_iters=3)
    assert set(got) == set(want)
    for k in want:
        assert abs(got[k] - want[k]) < 1e-9, (k, got[k], want[k])
    # ranks sum to ~1 on a graph with no dangling nodes
    assert abs(sum(got.values()) - 1.0) < 1e-6


def test_pagerank_symmetric_star():
    from rex_ray.stages.graph import pagerank

    # star: hub must outrank the leaves
    edges = [("hub", f"l{i}") for i in range(6)]
    got = {
        r["entity_id"]: r["pr"]
        for r in pagerank(_edges_ds(edges), num_iters=3, max_driver_edges=0).take_all()
    }
    assert got["hub"] > max(v for k, v in got.items() if k != "hub")
    leaf_vals = {v for k, v in got.items() if k != "hub"}
    assert len(leaf_vals) == 1  # symmetry: all leaves equal


def test_edge_pmi_matches_local():
    import math

    from rex_ray.stages.graph import edge_pmi

    rows = [("x", "y"), ("x", "y"), ("x", "z"), ("y", "z"), ("z", "x")]
    got = {
        (r["entity_a"], r["entity_b"]): (r["n_cooc"], r["pmi"])
        for r in edge_pmi(_edges_ds(rows), max_driver_edges=0).take_all()
    }
    # occurrences: xy:2, xz:2 (xz + zx), yz:1 -> n=5
    # node counts: x:4, y:3, z:3
    n = 5
    want = {
        ("x", "y"): (2, round(math.log((2 * n) / (4 * 3)), 8)),
        ("x", "z"): (2, round(math.log((2 * n) / (4 * 3)), 8)),
        ("y", "z"): (1, round(math.log((1 * n) / (3 * 3)), 8)),
    }
    assert got == want


def test_edge_pmi_weighted_equals_exploded():
    from rex_ray.stages.graph import edge_pmi

    occ = [("a", "b")] * 3 + [("b", "c")] * 2 + [("a", "c")]
    plain = {
        (r["entity_a"], r["entity_b"]): (r["n_cooc"], r["pmi"])
        for r in edge_pmi(_edges_ds(occ), max_driver_edges=0).take_all()
    }
    weighted_rows = rd.from_items(
        [
            {"a": "a", "b": "b", "w": 3},
            {"a": "c", "b": "b", "w": 2},  # reversed: canonicalized
            {"a": "a", "b": "c", "w": 1},
        ]
    )
    weighted = {
        (r["entity_a"], r["entity_b"]): (r["n_cooc"], r["pmi"])
        for r in edge_pmi(weighted_rows, weight_col="w", max_driver_edges=0).take_all()
    }
    assert plain == weighted


def test_shared_neighbor_candidates_hand_graph(ray_session):
    """Hand graph: (a,d) share {b,c}; (b,c) share {a,d}; 1-shared
    pairs filtered; degrees attached; hot_cap drops hub centers."""
    import ray.data as rd

    from rex_ray.stages.graph import shared_neighbor_candidates

    edges = rd.from_items(
        [
            {"a": "a", "b": "b"}, {"a": "a", "b": "c"},
            {"a": "b", "b": "c"}, {"a": "d", "b": "b"},
            {"a": "d", "b": "c"}, {"a": "e", "b": "x"},
        ]
    )
    out = (
        shared_neighbor_candidates(edges, min_shared=2, hot_cap=50, max_driver_edges=0)
        .to_pandas()
        .sort_values(["entity_a", "entity_b"], ignore_index=True)
    )
    assert out[["entity_a", "entity_b", "n_shared"]].values.tolist() == [
        ["a", "d", 2], ["b", "c", 2],
    ]
    assert out["deg_a"].tolist() == [2, 3]
    assert out["deg_b"].tolist() == [2, 3]
    # hot_cap=1: every center is skipped -> no candidates
    empty = shared_neighbor_candidates(
        rd.from_items([{"a": "a", "b": "b"}, {"a": "a", "b": "c"}]),
        min_shared=1, hot_cap=1, max_driver_edges=0,
    ).to_pandas()
    assert len(empty) == 0


def test_kcore_peel_matches_fixpoint(ray_session):
    """Triangle + pendant chain: 3 peels reach the true 2-core
    (the triangle), each survivor at degree 2."""
    import ray.data as rd

    from rex_ray.stages.graph import kcore_peel

    edges = rd.from_items(
        [
            {"a": "a", "b": "b"}, {"a": "b", "b": "c"},
            {"a": "c", "b": "a"}, {"a": "c", "b": "d"},
            {"a": "d", "b": "e"},
        ]
    )
    out = kcore_peel(edges, k=2, rounds=3, max_driver_edges=0).to_pandas().sort_values(
        "entity_id", ignore_index=True
    )
    assert out["entity_id"].tolist() == ["a", "b", "c"]
    assert out["deg"].tolist() == [2, 2, 2]
    # k=3: nothing survives (no 3-core) -> empty with stable schema
    # (Dataset-level: Ray's to_pandas drops columns on empty data)
    empty = kcore_peel(edges, k=3, rounds=3, max_driver_edges=0)
    assert empty.count() == 0
    assert empty.schema().names == ["entity_id", "deg"]


def test_bloom_filter_string_keys_no_false_negatives():
    from rex_ray.functions.hashing import IntBloomFilter

    import numpy as np

    bf = IntBloomFilter(num_bits=1 << 12)
    keys = np.asarray([f"ent:{i}" for i in range(200)], dtype=object)
    bf.add_many(keys)
    assert bf.contains_many(keys).all()


def test_predicate_overlap_hand_store(ray_session):
    """Predicates sharing >=2 distinct subjects; duplicate (subj,pred)
    rows dedup before counting; supports = distinct subjects."""
    import ray.data as rd

    from rex_ray.stages.aggregate import predicate_overlap

    store = rd.from_items(
        [
            {"subj_id": "s1", "pred": "p", "obj_id": "o1"},
            {"subj_id": "s1", "pred": "p", "obj_id": "o2"},  # dup subj-pred
            {"subj_id": "s1", "pred": "q", "obj_id": "o1"},
            {"subj_id": "s2", "pred": "p", "obj_id": "o3"},
            {"subj_id": "s2", "pred": "q", "obj_id": "o4"},
            {"subj_id": "s3", "pred": "q", "obj_id": "o5"},
            {"subj_id": "s3", "pred": "r", "obj_id": "o5"},  # only 1 shared
        ]
    )
    for force in (None, 0):  # driver twin AND distributed dataflow
        out = predicate_overlap(
            store, min_shared=2, max_driver_rows=force
        ).to_pandas()
        assert out.values.tolist() == [["p", "q", 2, 2, 3]]
