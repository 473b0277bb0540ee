"""Round-2b operators: Bloom-prefiltered anti-join (incremental store
updates), predicate signatures, two-hop path composition, and filtered
negative sampling."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from rex_ray.stages.relational import bloom_anti_join

SF = "/root/testdata/sf0.001"


def _rows(ds):
    return sorted(
        tuple(sorted(r.items())) for r in ds.take_all()
    )


# ---------------------------------------------------------------- anti-join

def test_bloom_anti_join_exact_single_key():
    left = rd.from_items([{"k": i, "v": i * 10} for i in range(50)])
    right = rd.from_items([{"k": i} for i in range(0, 50, 3)])
    got = {r["k"] for r in bloom_anti_join(left, right, on="k").take_all()}
    want = {i for i in range(50) if i % 3 != 0}
    assert got == want


def test_bloom_anti_join_exact_under_forced_false_positives():
    # 8 bits / 1 hash: nearly every key passes the Bloom, so the exact
    # residual join must do all the work — correctness must not depend
    # on the filter's quality
    left = rd.from_items([{"k": f"key{i}", "x": i} for i in range(40)])
    right = rd.from_items([{"k": f"key{i}"} for i in range(0, 40, 2)])
    got = {
        r["k"]
        for r in bloom_anti_join(
            left, right, on="k", num_bits=8, num_hashes=1
        ).take_all()
    }
    assert got == {f"key{i}" for i in range(1, 40, 2)}


def test_bloom_anti_join_composite_key_and_payload():
    left = rd.from_items(
        [
            {"a": "s1", "b": "p1", "c": 1.5},
            {"a": "s1", "b": "p2", "c": 2.5},
            {"a": "s2", "b": "p1", "c": 3.5},
        ]
    )
    right = rd.from_items([{"a": "s1", "b": "p2"}, {"a": "s9", "b": "p1"}])
    got = _rows(bloom_anti_join(left, right, on=("a", "b")))
    assert got == [
        (("a", "s1"), ("b", "p1"), ("c", 1.5)),
        (("a", "s2"), ("b", "p1"), ("c", 3.5)),
    ]


def test_bloom_anti_join_all_new_keys():
    # no left key passes the Bloom: the exact join is skipped, every
    # left row comes back
    left = rd.from_items([{"k": i, "v": i} for i in range(5)])
    right = rd.from_items([{"k": 100}])
    got = _rows(bloom_anti_join(left, right, on="k"))
    assert got == [(("k", i), ("v", i)) for i in range(5)]


def test_bloom_anti_join_empty_result_keeps_schema():
    left = rd.from_items([{"k": 1, "v": "x"}, {"k": 2, "v": "y"}])
    right = rd.from_items([{"k": 1}, {"k": 2}])
    out = bloom_anti_join(left, right, on="k")
    assert out.count() == 0
    assert set(out.schema().names) == {"k", "v"}


# ------------------------------------------------------------- new queries

def test_predicate_signature_shares_sum_to_one():
    from rex_ray.pipelines.queries import q_kg_predicate_signatures

    rows = q_kg_predicate_signatures(SF).take_all()
    assert rows
    by_pred = {}
    for r in rows:
        by_pred.setdefault(r["pred"], []).append(r)
    for pred, sig in by_pred.items():
        total = sum(r["share_ppb"] for r in sig)
        # floor(x + .5) per row: each row off by < 1 ppb
        assert abs(total - 1_000_000_000) <= len(sig), pred
        assert all(r["n"] > 0 for r in sig)


def test_two_hop_paths_match_bruteforce():
    from rex_ray.pipelines import kg
    from rex_ray.pipelines.queries import _docs, q_kg_two_hop_paths

    store = kg.triple_store_from_text_docs(_docs(SF)).take_all()
    want = {}
    for e1 in store:
        for e2 in store:
            if e1["obj_id"] == e2["subj_id"]:
                k = (e1["pred"], e2["pred"])
                want[k] = want.get(k, 0) + 1
    got = {
        (r["pred1"], r["pred2"]): r["n_paths"]
        for r in q_kg_two_hop_paths(SF).take_all()
    }
    assert got == want


def test_negative_samples_deterministic_and_filtered():
    from rex_ray.pipelines import kg
    from rex_ray.pipelines.queries import _docs, q_kg_negative_samples

    rows1 = _rows(q_kg_negative_samples(SF))
    rows2 = _rows(q_kg_negative_samples(SF))
    assert rows1 == rows2
    store = kg.triple_store_from_text_docs(_docs(SF)).take_all()
    keys = {(r["subj_id"], r["pred"], r["obj_id"]) for r in store}
    ents = sorted(
        {r["subj_id"] for r in store} | {r["obj_id"] for r in store}
    )
    n = len(ents)
    samples = q_kg_negative_samples(SF).take_all()
    # K=2 candidates per store triple
    assert len(samples) == 2 * len(store)
    for r in samples:
        rk = (
            int(
                hashlib.md5(
                    f"{r['subj_id']}|{r['pred']}|{r['obj_id']}|{r['k']}".encode()
                ).hexdigest()[:8],
                16,
            )
            % n
        )
        assert r["neg_obj_id"] == ents[rk]
        assert r["is_known"] == int(
            (r["subj_id"], r["pred"], r["neg_obj_id"]) in keys
        )


def test_store_delta_disjoint_from_base_and_complete():
    from rex_ray.pipelines import kg
    from rex_ray.pipelines.queries import (
        _bucket_filter,
        _docs,
        q_kg_store_delta,
    )
    from rex_ray.stages import aggregate as agg
    from rex_ray.stages import extract, link

    docs = _docs(SF)
    canonical = kg.build_canonical_map(docs)

    def keys(ds):
        return {(r["subj_id"], r["pred"], r["obj_id"]) for r in ds.take_all()}

    def keys_for(lo, hi):
        part = _bucket_filter(docs, lo, hi)
        return keys(agg.dedup_triple_store(
            link.link_triples(extract.extract_triples(part), canonical)
        ))

    base, delta = keys_for(0, 2), keys_for(2, 100)
    got = keys(q_kg_store_delta(SF))
    assert got == delta - base
    assert got  # non-trivial at this scale

    # forced-distributed twin: label propagation + join linking over
    # the whole corpus, then the same bucket slices
    lp = kg.linked_triples(docs, max_driver_nodes=0).materialize()
    lp_base = keys(_bucket_filter(lp, 0, 2))
    lp_delta = keys(_bucket_filter(lp, 2, 100))
    assert lp_delta - lp_base == got


def test_tf_idf_matches_hand_computation():
    import math

    from rex_ray.stages.textstats import tf_idf

    docs = rd.from_items(
        [
            {"doc_id": 1, "text": "a b a"},
            {"doc_id": 2, "text": "a c"},
            {"doc_id": 3, "text": "c c d"},
        ]
    )
    got = {
        (r["doc_id"], r["token"]): (r["tf"], r["df"], r["tfidf"])
        for r in tf_idf(docs, n_docs=3).take_all()
    }
    # df: a->2, b->1, c->2, d->1
    assert got[(1, "a")] == (2, 2, round(2 * math.log(3 / 2), 8))
    assert got[(1, "b")] == (1, 1, round(1 * math.log(3 / 1), 8))
    assert got[(2, "c")] == (1, 2, round(1 * math.log(3 / 2), 8))
    assert got[(3, "c")] == (2, 2, round(2 * math.log(3 / 2), 8))
    assert got[(3, "d")] == (1, 1, round(1 * math.log(3.0), 8))
    assert len(got) == 6


def test_triple_provenance_min_k_evidence():
    from rex_ray.stages.aggregate import triple_provenance

    rows = []
    for d in [9, 3, 7, 5, 1]:  # 5 docs support the same triple
        rows.append(
            {"doc_id": d, "subj_id": "e1", "pred": "p", "obj_id": "e2"}
        )
        rows.append(  # duplicate within-doc mention must not inflate
            {"doc_id": d, "subj_id": "e1", "pred": "p", "obj_id": "e2"}
        )
    rows.append({"doc_id": 4, "subj_id": "e3", "pred": "q", "obj_id": "e4"})
    got = {
        (r["subj_id"], r["pred"], r["obj_id"]): (r["n_docs"], r["evidence"])
        for r in triple_provenance(rd.from_items(rows)).take_all()
    }
    assert got == {
        ("e1", "p", "e2"): (5, "1,3,5"),
        ("e3", "q", "e4"): (1, "4"),
    }
