"""The factorized PCNN forward (token conv once per document, relative-
position conv tables, segment pooling) and the featurizer's factored
form, checked against a straight-line per-pair reference: build each
pair's [token ++ position ++ position] rows, convolve them tap by tap,
max-pool the (before, between, after) segments of its real tokens.
No Ray: the stages are called in process."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rex_ray.pipelines import spec
from rex_ray.stages.features import PairFeaturizer, relation_label_encoder
from rex_ray.stages.scorer import (
    BiLstmAttScorer,
    BiLstmAttWeights,
    FeaturizeAndScore,
    PcnnScorer,
    PcnnWeights,
)
from rex_ray.state.dictionaries import Vocab

N_RELS = len(relation_label_encoder())
SURFACES = sorted(spec.GAZETTEER)[:6]
WORDS = ["the", "of", "x", "nil-word"]


def ref_scores(w, ids, n_real, sp, op):
    """One pair, straight-line: ids (L,) token ids, n_real its real
    tokens, sp/op its subject and object positions -> (n_rels,)."""
    L = len(ids)
    x = [
        np.concatenate([w.emb[ids[i]], w.pos_subj[abs(i - sp)],
                        w.pos_obj[abs(i - op)]]).astype(np.float64)
        for i in range(L)
    ]
    k = w.conv_w.shape[1]
    conv = []
    for i in range(L):
        acc = w.conv_b.astype(np.float64).copy()
        for tap in range(k):
            src = i + tap - k // 2
            if 0 <= src < L:
                acc += w.conv_w[:, tap, :].astype(np.float64) @ x[src]
        conv.append(acc)
    lo, hi = min(sp, op), max(sp, op)
    pooled = []
    for a, b in ((0, lo), (lo, hi), (hi, n_real)):
        seg = [conv[i] for i in range(a, b)]
        pooled.append(np.max(seg, axis=0) if seg else np.zeros(w.n_filters))
    rep = np.tanh(np.concatenate(pooled))
    return 1.0 / (1.0 + np.exp(-(rep @ w.dense_w + w.dense_b)))


@st.composite
def doc_pair_sets(draw):
    """Documents of token ids (lengths 1..L, so some are shorter than
    the window) and pairs on them, with the subject and the object
    drawn at the edges 0 and n_real-1 as well as inside, in both
    orders; window 3 or 5."""
    L = draw(st.sampled_from([4, 9, 16]))
    window = draw(st.sampled_from([3, 5]))
    n_docs = draw(st.integers(1, 4))
    n_real = [draw(st.integers(1, L)) for _ in range(n_docs)]
    ids = np.zeros((n_docs, L), dtype=np.int64)
    for d in range(n_docs):
        ids[d, : n_real[d]] = draw(st.lists(
            st.integers(2, 29), min_size=n_real[d], max_size=n_real[d]))
    pos = lambda d: st.one_of(  # noqa: E731
        st.sampled_from([0, n_real[d] - 1]),
        st.integers(0, n_real[d] - 1))
    pairs = draw(st.lists(
        st.integers(0, n_docs - 1).flatmap(
            lambda d: st.tuples(st.just(d), pos(d), pos(d))),
        min_size=1, max_size=8))
    doc_row, sp, op = (np.array(c) for c in zip(*pairs))
    return L, window, ids, np.array(n_real), doc_row, sp, op


@settings(max_examples=60, deadline=None)
@given(doc_pair_sets(), st.integers(0, 3))
@example((16, 3, np.arange(2, 18)[None, :], np.array([16]),
          np.array([0, 0]), np.array([0, 15]), np.array([15, 0])), 0)
def test_factorized_forward_matches_per_pair_reference(case, seed):
    L, window, ids, n_real, doc_row, sp, op = case
    w = PcnnWeights(30, N_RELS, window=window, max_seq_len=L, seed=seed)
    got = PcnnScorer(w)._forward(ids, n_real, doc_row, sp, op)
    want = np.stack([
        ref_scores(w, ids[d], n_real[d], s, o)
        for d, s, o in zip(doc_row, sp, op)
    ])
    np.testing.assert_allclose(got, want, atol=2e-6)


@st.composite
def text_batches(draw):
    """(doc_id, text) batches: gazetteer surfaces and other words,
    docs longer than the feature window (pairs past it are cut),
    one-token and mention-free docs; int or string doc ids."""
    n = draw(st.integers(1, 5))
    texts = [
        " ".join(draw(st.lists(st.sampled_from(SURFACES + WORDS),
                               min_size=1, max_size=24)))
        for _ in range(n)
    ]
    if draw(st.booleans()):
        doc_ids = [f"doc-{i:08d}" for i in range(n)]
    else:
        doc_ids = list(range(100, 100 + n))
    return pd.DataFrame({"doc_id": doc_ids, "text": texts})


def ref_feature_pairs(batch, L):
    """(doc_id, subj_pos, obj_pos) of every gazetteer pair within the
    pair window with both ends inside L, in (doc, subj, obj) order."""
    return [
        (doc_id, h, t)
        for doc_id, text in zip(batch["doc_id"], batch["text"])
        for toks in [text.split(" ")]
        for h in range(min(len(toks), L))
        for t in range(h + 1, min(len(toks), L, h + spec.PAIR_WINDOW + 1))
        if toks[h] in spec.GAZETTEER and toks[t] in spec.GAZETTEER
    ]


@settings(max_examples=40, deadline=None)
@given(text_batches(), st.sampled_from([6, 12]))
def test_featurizer_and_both_entry_points_match_reference(batch, L):
    # the vocab leaves a word out, so unknown tokens map to unk
    vocab = Vocab(sorted(set(SURFACES + WORDS) - {"nil-word"}))
    fz = PairFeaturizer(vocab, max_seq_len=L)
    rows = fz(batch)
    texts = dict(zip(batch["doc_id"], batch["text"]))
    keys = list(zip(rows["doc_id"].to_pylist(),
                    rows["subj_pos"].to_pylist(),
                    rows["obj_pos"].to_pylist()))
    assert keys == ref_feature_pairs(batch, L)
    for r in rows.to_pylist():
        ids, mask = vocab.encode(texts[r["doc_id"]].split(" "), L)
        assert r["token_ids"] == ids and r["mask"] == mask
        assert r["n_real_tokens"] == sum(mask)

    w = PcnnWeights(len(vocab), N_RELS, max_seq_len=L)
    sc = PcnnScorer(w)
    via_rows = sc(rows)
    via_docs = sc.score_doc_pairs(fz.doc_pairs(pa.Table.from_pandas(batch)))
    assert via_rows.schema == via_docs.schema
    assert via_rows.drop_columns(["scores", "pred_score"]).equals(
        via_docs.drop_columns(["scores", "pred_score"]))
    got = np.asarray(via_docs["scores"].to_pylist(), dtype=np.float64)
    np.testing.assert_allclose(
        np.asarray(via_rows["scores"].to_pylist()), got, atol=1e-6)
    for g, r in zip(got, rows.to_pylist()):
        np.testing.assert_allclose(g, ref_scores(
            w, np.asarray(r["token_ids"]), r["n_real_tokens"],
            r["subj_pos"], r["obj_pos"]), atol=2e-6)


def test_pairless_batches_give_typed_empty_rows():
    """One-token and mention-free documents score to a 0-row table with
    the schema of a non-empty one, for the PCNN (factored) and the
    BiLSTM (per-pair) fused paths, int and string doc ids."""
    vocab = Vocab(SURFACES + WORDS)
    pair_text = " ".join(SURFACES[:2])
    for scorer_cls, weights in (
        (None, PcnnWeights(len(vocab), N_RELS)),
        (BiLstmAttScorer, BiLstmAttWeights(len(vocab), N_RELS)),
    ):
        fused = FeaturizeAndScore(vocab, weights, scorer_cls=scorer_cls)
        for doc_ids in ([7, 8], ["doc-7", "doc-8"]):
            full = fused(pd.DataFrame(
                {"doc_id": doc_ids, "text": [pair_text, "the"]}))
            assert full.num_rows == 1
            for texts in (["the", SURFACES[0]], ["the of x", "nil-word"]):
                empty = fused(pa.table({"doc_id": doc_ids, "text": texts}))
                assert empty.num_rows == 0
                assert empty.schema == full.schema
