"""Graph-op cardinality routing: the COUNT-only guard (mirroring the
flagship's canonicalization routing, pipelines/kg.py) must route
sliver graphs to the exact driver twin and big graphs to the
distributed dataflow, with route-equal outputs.  Every op is compared
across BOTH routes on the same seeded random graph — the transitive
correctness argument for the small-SF oracle sweeps (driver route ==
distributed route == SQL oracle)."""

import numpy as np
import pytest

import ray.data as rd

from rex_ray import trace
from rex_ray.stages.graph import (
    DRIVER_GRAPH_MAX_EDGES,
    edge_pmi,
    kcore_peel,
    kcore_peel_local,
    pagerank,
    shared_neighbor_candidates,
    triangle_counts,
)


def _edges_ds(edges):
    return rd.from_items([{"a": a, "b": b} for a, b in edges])


@pytest.fixture(scope="module")
def random_edges():
    rng = np.random.default_rng(17)
    n = 60
    draws = rng.integers(0, n, size=(420, 2))
    return [(f"n{a:02d}", f"n{b:02d}") for a, b in draws]


def _sorted_rows(ds):
    df = ds.to_pandas()
    return df.sort_values(list(df.columns), ignore_index=True)


def test_route_observability(random_edges):
    with trace.run() as out:
        triangle_counts(_edges_ds(random_edges))
    assert out["graph_route"] == "driver"
    assert 0 < out["n_edges"] <= DRIVER_GRAPH_MAX_EDGES

    with trace.run() as out:
        triangle_counts(
            _edges_ds(random_edges), max_driver_edges=0
        ).materialize()
    assert out["graph_route"] == "distributed"


def test_triangles_route_equal(random_edges):
    a = _sorted_rows(triangle_counts(_edges_ds(random_edges)))
    b = _sorted_rows(
        triangle_counts(_edges_ds(random_edges), max_driver_edges=0)
    )
    assert a.equals(b) and len(a) > 0


def test_pagerank_route_equal(random_edges):
    a = _sorted_rows(pagerank(_edges_ds(random_edges), num_iters=3))
    b = _sorted_rows(
        pagerank(_edges_ds(random_edges), num_iters=3, max_driver_edges=0)
    )
    assert a["entity_id"].tolist() == b["entity_id"].tolist()
    # both routes round to 8 decimals; summation order may differ by
    # the last ulp under the rounding — same contract as the oracle
    assert np.allclose(a["pr"], b["pr"], atol=2e-8, rtol=0)


def test_edge_pmi_route_equal(random_edges):
    a = _sorted_rows(edge_pmi(_edges_ds(random_edges)))
    b = _sorted_rows(edge_pmi(_edges_ds(random_edges), max_driver_edges=0))
    # int sums + ONE float division + ln on both routes: bit-identical
    assert a.equals(b) and len(a) > 0


def test_shared_neighbors_route_equal(random_edges):
    a = _sorted_rows(
        shared_neighbor_candidates(
            _edges_ds(random_edges), min_shared=2, hot_cap=25
        )
    )
    b = _sorted_rows(
        shared_neighbor_candidates(
            _edges_ds(random_edges),
            min_shared=2,
            hot_cap=25,
            max_driver_edges=0,
        )
    )
    assert a.equals(b) and len(a) > 0


def test_kcore_route_equal(random_edges):
    a = _sorted_rows(kcore_peel(_edges_ds(random_edges), k=3, rounds=2))
    b = _sorted_rows(
        kcore_peel(
            _edges_ds(random_edges), k=3, rounds=2, max_driver_edges=0
        )
    )
    assert a.equals(b) and len(a) > 0


def test_kcore_local_incomplete_rounds_contract():
    """rounds too small to converge: BOTH engines must report the
    partially-peeled survivors (deg can be < k), matching the unrolled
    SQL oracle — a chain peels one layer per round."""
    chain = [(f"c{i}", f"c{i+1}") for i in range(6)]
    got = kcore_peel_local(chain, k=2, rounds=1)
    # one peel drops only the two endpoints
    assert set(got) == {f"c{i}" for i in range(1, 6)}
    dist = {
        r["entity_id"]: r["deg"]
        for r in kcore_peel(
            _edges_ds(chain), k=2, rounds=1, max_driver_edges=0
        ).take_all()
    }
    assert dist == got


@pytest.fixture(scope="module")
def random_store():
    """Seeded random triple store: 600 rows, 40 entities, 6 preds —
    distinct (s, p, o) like the real store, with hub mids so the
    two-hop wedge composition is exercised on skew."""
    rng = np.random.default_rng(41)
    rows = {
        (f"e{a:02d}", f"p{p}", f"e{b:02d}")
        for a, p, b in zip(
            rng.integers(0, 40, size=600),
            rng.integers(0, 6, size=600),
            rng.integers(0, 40, size=600),
        )
    }
    return rd.from_items(
        [{"subj_id": s, "pred": p, "obj_id": o} for s, p, o in sorted(rows)]
    )


def test_two_hop_route_equal_and_bruteforce(random_store):
    from rex_ray.stages.graph import two_hop_pred_paths

    rows = random_store.take_all()
    want = {}
    for e1 in rows:
        for e2 in rows:
            if e1["obj_id"] == e2["subj_id"]:
                k = (e1["pred"], e2["pred"])
                want[k] = want.get(k, 0) + 1

    with trace.run() as out:
        a = _sorted_rows(two_hop_pred_paths(random_store))
    assert out["route"] == "driver"
    b = _sorted_rows(
        two_hop_pred_paths(random_store, max_driver_rows=0)
    )
    assert a.equals(b) and len(a) > 0
    got = {
        (r["pred1"], r["pred2"]): r["n_paths"]
        for r in a.to_dict("records")
    }
    assert got == want


def test_predicate_functionality_route_equal(random_store):
    from rex_ray.stages.aggregate import predicate_functionality

    with trace.run() as out:
        a = _sorted_rows(predicate_functionality(random_store))
    assert out["route"] == "driver" and out["n_rows"] > 0
    b = _sorted_rows(
        predicate_functionality(random_store, max_driver_rows=0)
    )
    assert a.equals(b) and len(a) > 0


def test_predicate_overlap_route_equal(random_store):
    from rex_ray.stages.aggregate import predicate_overlap

    a = _sorted_rows(predicate_overlap(random_store, min_shared=2))
    b = _sorted_rows(
        predicate_overlap(random_store, min_shared=2, max_driver_rows=0)
    )
    assert a.equals(b) and len(a) > 0
