"""PCNN-style scorer + featurizer + bag reduces (stages/features,
stages/scorer) — reference semantics sent_pcnn.py / bag_pcnn.py."""

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _feats(sf=SF):
    import ray.data as rd

    from rex_ray.stages import features

    docs = rd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    return features.featurize(docs)


def test_featurizer_consistency():
    from rex_ray.functions.mask import construct_piecewise_mask

    t = _feats().take(5)
    for row in t:
        L = len(row["token_ids"])
        assert L == 64 and len(row["pmask"]) == 64
        assert sum(row["mask"]) == row["n_real_tokens"]
        want = construct_piecewise_mask(
            row["subj_pos"], row["obj_pos"], row["n_real_tokens"], 64
        )
        assert list(row["pmask"]) == want
        # relative positions: |i - pos|
        assert row["rel_pos_subj"][row["subj_pos"]] == 0
        assert row["rel_pos_obj"][row["obj_pos"]] == 0


def test_scorer_deterministic_and_bounded():
    from rex_ray.stages import scorer

    feats = _feats().materialize()
    a = scorer.score_pairs(feats).to_pandas().sort_values(
        ["doc_id", "subj_pos", "obj_pos"]).reset_index(drop=True)
    b = scorer.score_pairs(feats).to_pandas().sort_values(
        ["doc_id", "subj_pos", "obj_pos"]).reset_index(drop=True)
    assert len(a) > 0
    assert np.allclose(
        np.stack(a["scores"].to_numpy()), np.stack(b["scores"].to_numpy())
    )
    s = np.stack(a["scores"].to_numpy())
    assert ((s > 0) & (s < 1)).all()  # sigmoid range
    # pred_id is the argmax of scores
    assert (s.argmax(axis=1) == a["pred_id"].to_numpy()).all()


def test_bag_reduces_match_driver_reference():
    """Distributed ONE/ATT == straight-line numpy over the same rows."""
    from rex_ray.stages import scorer
    from rex_ray.stages.features import relation_label_encoder

    feats = _feats().materialize()
    scored = scorer.score_pairs(feats).materialize()
    rows = scored.to_pandas()
    S = np.stack(rows["scores"].to_numpy())
    labels = relation_label_encoder()

    want_one = {}
    want_att = {}
    for pk, idx in rows.groupby("pair_key").groups.items():
        s = S[np.asarray(idx)]
        mx = s.max(axis=0)
        want_one[pk] = (labels.id2label[int(mx.argmax())], float(mx.max()))
        w = np.exp(s.max(axis=1))
        avg = (s * w[:, None]).sum(axis=0) / w.sum()
        want_att[pk] = (labels.id2label[int(avg.argmax())], float(avg.max()))

    got_one = scorer.bag_scores_one(scored).to_pandas()
    assert len(got_one) == len(want_one)
    for _, r in got_one.iterrows():
        lab, sc = want_one[r["pair_key"]]
        assert r["bag_label"] == lab
        assert r["bag_score"] == pytest.approx(sc)

    got_att = scorer.bag_scores_att(scored).to_pandas()
    for _, r in got_att.iterrows():
        lab, sc = want_att[r["pair_key"]]
        assert r["bag_label"] == lab
        assert r["bag_score"] == pytest.approx(sc)


def test_piecewise_pool_segments_affect_output():
    """Sanity: moving the pair positions changes the piecewise pooling
    (the mask is live, not decorative)."""
    from rex_ray.stages.scorer import PcnnScorer, PcnnWeights

    w = PcnnWeights(vocab_size=100, n_rels=5, max_seq_len=16)
    sc = PcnnScorer(w)
    ids = np.arange(16)[None, :]
    # pair 1: segments [0, 2) [2, 8) [8, 16); pair 2: [0, 8) [8, 12) [12, 16)
    out = sc._forward(ids, np.array([16]), np.array([0, 0]),
                      np.array([2, 8]), np.array([8, 12]))
    assert not np.allclose(out[:1], out[1:])


def test_pcnn_rule_matches_straightline_reimplementation(ray_session):
    """The PcnnRuleScorer forward (shifted-GEMM conv, segment pooling,
    md5 dense) equals an independent loop-based recompute per (pair,
    rel) on a doc with gazetteer pairs, truncation and padding."""
    import numpy as np
    import ray.data as rd

    from rex_ray.pipelines import spec
    from rex_ray.stages.scorer import score_pcnn_rule

    text = "spark join table row sort order " * 4  # 24 tokens > L=16
    docs = rd.from_items([{"doc_id": 5, "text": text.strip()}])
    out = score_pcnn_rule(docs).to_pandas()
    assert (out["score"] == out["score"].round()).all()

    L = spec.PCNN_RULE_MAX_LEN
    toks = text.strip().split(" ")
    n_real = min(len(toks), L)

    def emb(tok):
        return [spec.md5_int(tok, 0), spec.md5_int(tok, 1)]

    def x_at(t, sp, op):
        tok = toks[t] if t < n_real else "[PAD]"
        rs, ro = abs(t - sp), abs(t - op)
        return emb(tok) + [
            (rs * spec.PCNN_RULE_PS_A[k] + spec.PCNN_RULE_PS_B[k]) % 9 - 4
            for k in range(2)
        ] + [
            (ro * spec.PCNN_RULE_PO_A[k] + spec.PCNN_RULE_PO_B[k]) % 9 - 4
            for k in range(2)
        ]

    W, B = spec.PCNN_RULE_CONV_W, spec.PCNN_RULE_CONV_B

    def conv_at(t, f, sp, op):
        total = B[f]
        for tap, tt in ((0, t - 1), (1, t), (2, t + 1)):
            if 0 <= tt < L:
                x = x_at(tt, sp, op)
                total += sum(x[c] * W[f][tap][c] for c in range(6))
        return total

    def logit(sp, op, rel):
        lo, hi = min(sp, op), max(sp, op)
        pooled = []
        for seg_lo, seg_hi in ((0, lo), (lo, hi), (hi, n_real)):
            for f in range(2):
                vals = [
                    conv_at(t, f, sp, op) for t in range(seg_lo, seg_hi)
                ]
                pooled.append(max(vals) if vals else 0)
        return sum(
            pooled[j] * spec.md5_int(rel, j) for j in range(6)
        ) + spec.md5_int(rel, 6)

    for _, r in out.sample(40, random_state=0).iterrows():
        want = logit(int(r["subj_pos"]), int(r["obj_pos"]), r["label"])
        assert int(r["score"]) == want, (r["subj_pos"], r["obj_pos"], r["label"])
