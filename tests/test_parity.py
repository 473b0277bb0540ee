"""Distributed triple P/R/F1 (stages/parity) vs the driver-side metric
kernel (functions/metrics, reference rex/metrics/triple.py semantics),
plus the north-rule P/R >= 0.95 gate against the independent gold."""

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _ds(rows):
    import ray.data as rd

    return rd.from_pandas(
        pd.DataFrame(rows, columns=["doc_id", "subj", "pred", "obj"])
    )


def test_parity_matches_driver_kernel():
    from rex_ray.functions.metrics import measure_triples
    from rex_ray.stages.parity import triple_prf

    gold = [
        (1, "a", "r1", "b"),
        (1, "c", "r2", "d"),
        (2, "a", "r1", "b"),
    ]
    pred = [
        (1, "a", "r1", "b"),      # tp
        (1, "a", "r1", "b"),      # duplicate within doc: counts once
        (1, "x", "r9", "y"),      # fp
        (2, "a", "r2", "b"),      # wrong relation: fp + fn
    ]
    got = triple_prf(_ds(pred), _ds(gold))
    # driver-side kernel on the same per-doc sets
    want = measure_triples(
        preds=[
            [("a", "r1", "b"), ("a", "r1", "b"), ("x", "r9", "y")],
            [("a", "r2", "b")],
        ],
        golds=[
            [("a", "r1", "b"), ("c", "r2", "d")],
            [("a", "r1", "b")],
        ],
    )
    for view in ("triple", "subject", "relation", "object"):
        for k in ("tp", "fp", "fn"):
            assert got[view][k] == want[view][k], (view, k, got[view], want[view])
        assert got[view]["f1"] == pytest.approx(want[view]["f1"])
    assert got["triple"]["tp"] == 1  # doc1 (a,r1,b); doc2 misses
    assert got["triple"]["fp"] == 2  # (x,r9,y) + doc2 (a,r2,b)
    assert got["triple"]["fn"] == 2  # (c,r2,d) + doc2 (a,r1,b)


def test_flagship_parity_gate():
    """north_rule: engine triples match the reference-semantics gold at
    P/R >= 0.95 (exact agreement expected by construction)."""
    from rex_ray.pipelines import gold
    from rex_ray.pipelines.queries import queries

    table = queries()["kg_parity_prf"](SF).to_pandas()
    assert set(table["view"]) == {"triple", "subject", "relation", "object"}
    tri = table[table["view"] == "triple"].iloc[0]
    assert tri["p"] >= 0.95 and tri["r"] >= 0.95
    assert tri["p"] == 1.0 and tri["r"] == 1.0 and tri["fp"] == 0
    # the gold is genuinely independent: it found a nonempty triple set
    assert tri["tp"] > 0
    assert len(gold.gold_triples_frame(
        pd.DataFrame({"doc_id": [1], "text": ["spark join the hash"]})
    )) > 0


def test_parity_keeps_null_keys():
    """A null subj/pred/obj is a key value like any other: per-doc
    set() semantics count (d1, a, r, None) and (d1, a, r, b) as two
    triples and None and b as two objects."""
    from rex_ray.stages.parity import triple_prf

    rows = [("d1", "a", "r", None), ("d1", "a", "r", "b")]
    got = triple_prf(_ds(rows), _ds(rows))
    want_tp = {"triple": 2, "subject": 1, "relation": 1, "object": 2}
    for view, tp in want_tp.items():
        assert (got[view]["tp"], got[view]["fp"], got[view]["fn"]) == (
            tp, 0, 0
        ), (view, got[view])
