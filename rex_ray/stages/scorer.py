"""PCNN-style relation scorer + bag (distant-supervision) reduces.

The hot inference stage of the north star: a relation classifier with
position embeddings, fused with the featurizer so the feature tensors
never leave the task that builds them.  Each stage is a task
``map_batches`` whose model object is built once per worker process
(``blocks.worker_udf``).  Semantics re-derive the reference models:

* SentPCNN (rex/models/sent_pcnn.py:11-55 + rex/modules/pcnn.py:9-55):
  token embedding ++ two relative-position embeddings -> width-3
  convolution -> PIECEWISE max-pool over the 3 segments of the
  (before-head, between, after-tail) mask -> tanh -> dense -> sigmoid
  multi-label scores.  The forward is FACTORIZED: the conv is linear,
  so its token part runs once per document and its two position parts
  are rows of per-worker tables; only the pooling runs per pair.
* PCNNOne  (rex/models/bag_pcnn.py:60-88): bag label from its
  highest-scoring member — per-relation max over members, which is
  ASSOCIATIVE, so it runs as a partial-aggregate + Max shuffle.
* PCNNAtt  (rex/models/bag_pcnn.py:138-178): selective attention —
  softmax member weights, weighted average of member score vectors.
  exp-weighted sums are associative too: sum(w_i * s_i) / sum(w_i).

No GPU/torch in this sandbox, so weights are DETERMINISTIC seeded
numpy tensors (the real model drops in by replacing ``PcnnWeights``);
the Ray-side plumbing — broadcast weights, per-worker load, batched
vectorized forward, associative bag reduce — is the real part.  On a
GPU cluster the scorer maps with ``num_gpus=...`` and a torch forward.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ray.data.aggregate import Max, Sum

from rex_ray.functions import nn
from rex_ray.functions.blocks import (
    arrow_block,
    fixed_list_column,
    matrix_from_column,
    pre_shuffle,
    worker_udf,
)
from rex_ray.stages.features import MAX_SEQ_LEN, relation_label_encoder


class PcnnWeights:
    """Deterministic parameter set (seeded); shape-compatible with a
    trained checkpoint loader."""

    def __init__(
        self,
        vocab_size: int,
        n_rels: int,
        dim_token: int = 16,
        dim_pos: int = 4,
        n_filters: int = 32,
        window: int = 3,
        max_seq_len: int = MAX_SEQ_LEN,
        seed: int = 1234,
    ):
        rng = np.random.RandomState(seed)
        d_in = dim_token + 2 * dim_pos
        f32 = np.float32  # halves the conv intermediate's bus traffic
        self.emb = (rng.standard_normal((vocab_size, dim_token)) * 0.1).astype(f32)
        self.pos_subj = (rng.standard_normal((max_seq_len + 1, dim_pos)) * 0.1).astype(f32)
        self.pos_obj = (rng.standard_normal((max_seq_len + 1, dim_pos)) * 0.1).astype(f32)
        self.conv_w = (rng.standard_normal((n_filters, window, d_in)) * 0.1).astype(f32)
        self.conv_b = (rng.standard_normal(n_filters) * 0.01).astype(f32)
        self.dense_w = (rng.standard_normal((3 * n_filters, n_rels)) * 0.1).astype(f32)
        self.dense_b = (rng.standard_normal(n_rels) * 0.01).astype(f32)
        self.window = window
        self.n_filters = n_filters
        self.n_rels = n_rels


def _scored(pairs: pa.Table, scores: np.ndarray) -> pa.Table:
    """Pair scalars + (n, n_rels) scores -> the scored-pair rows both
    scorers emit (a typed 0-row table for no pairs)."""
    pred_id = scores.argmax(axis=1)
    out = pairs.select(["doc_id", "pair_key", "subj_pos", "obj_pos", "label_id"])
    out = out.append_column(
        "scores", fixed_list_column(scores.astype(np.float32))
    )
    out = out.append_column("pred_id", pa.array(pred_id.astype(np.int64)))
    return out.append_column(
        "pred_score",
        pa.array(scores[np.arange(len(scores)), pred_id].astype(np.float64)),
    )


class PcnnScorer:
    """Pairs -> per-relation sigmoid scores, one factorized forward.

    Built once per worker from the broadcast weights.  The conv over
    [token ++ subject-position ++ object-position] embeddings is
    linear, so it runs as three parts: the token channels' conv once
    per DOCUMENT (all of a document's pairs share it), plus a row of a
    per-worker (L, L, f) table for each position channel
    (:func:`nn.relative_position_conv`, anchored at the pair's
    subject / object).  A document's padding positions are -inf in its
    token conv, so each pair's piecewise pooling is one bias-add + max
    per segment (:func:`nn.segment_max_pool`).  Entry points: feature
    rows (:meth:`__call__`, identical token rows grouped back into
    documents) and the featurizer's factored form
    (:meth:`score_doc_pairs`, the fused stage's path)."""

    def __init__(self, weights: PcnnWeights):
        self.w = weights
        self.labels = relation_label_encoder()
        self._pos_tables = {}  # L -> (subject, object) (L, L, f) tables

    def _positions(self, L: int):
        if L not in self._pos_tables:
            w = self.w
            dt, dp = w.emb.shape[1], w.pos_subj.shape[1]
            self._pos_tables[L] = (
                nn.relative_position_conv(
                    w.pos_subj, w.conv_w[:, :, dt : dt + dp], L),
                nn.relative_position_conv(
                    w.pos_obj, w.conv_w[:, :, dt + dp :], L),
            )
        return self._pos_tables[L]

    def _forward(
        self,
        ids: np.ndarray,       # (D, L) int token ids, one row per doc
        n_real: np.ndarray,    # (D,) real (non-pad) tokens per doc
        doc_row: np.ndarray,   # (n,) each pair's row in ids
        subj_pos: np.ndarray,  # (n,) int, < n_real of its doc
        obj_pos: np.ndarray,   # (n,) int, < n_real of its doc
    ) -> np.ndarray:
        w = self.w
        L = ids.shape[1]
        tok = nn.conv1d_same(w.emb[ids], w.conv_w[:, :, : w.emb.shape[1]],
                             w.conv_b)  # (D, L, f) float32
        tok[np.arange(L)[None, :] >= n_real[:, None]] = -np.inf
        ps, po = self._positions(L)
        lo = np.minimum(subj_pos, obj_pos)
        hi = np.maximum(subj_pos, obj_pos)
        reps = []
        # 64 pairs at a time keep each (64, L, f) float32 conv at
        # 512 KiB (L=64, f=32), well inside a 2 MiB L2; on a 5.6k-pair
        # batch (Xeon, AVX-512) the pair loop took a median 59-61 ms at
        # 32-64 pairs, 64-67 ms at 128-512, 80 ms at 1024, 96 ms unchunked
        for i in range(0, len(doc_row), 64):
            c = slice(i, i + 64)
            conv = tok[doc_row[c]] + ps[subj_pos[c]]
            conv += po[obj_pos[c]]
            reps.append(nn.segment_max_pool(conv, lo[c], hi[c]))
        rep = (np.concatenate(reps) if reps
               else np.zeros((0, 3 * w.n_filters), np.float32))
        logits = nn.linear(np.tanh(rep), w.dense_w, w.dense_b)
        return 1.0 / (1.0 + np.exp(-logits))

    def score_doc_pairs(self, dp) -> pa.Table:
        """A :class:`features.DocPairs` batch -> scored pair rows."""
        p = dp.pairs
        return _scored(p, self._forward(
            dp.token_ids, dp.n_real, dp.doc_row,
            p["subj_pos"].to_numpy(), p["obj_pos"].to_numpy()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Feature rows -> scored pair rows: rows with equal
        (token_ids, n_real_tokens) are one document's pairs."""
        ids = matrix_from_column(batch, "token_ids")
        n_real = batch["n_real_tokens"].to_numpy()
        docs, doc_row = np.unique(
            np.column_stack([ids, n_real]), axis=0, return_inverse=True)
        return _scored(batch, self._forward(
            docs[:, :-1], docs[:, -1], doc_row.reshape(-1),
            batch["subj_pos"].to_numpy(), batch["obj_pos"].to_numpy()))


def score_pairs(feature_ds, weights: Optional[PcnnWeights] = None,
                vocab_size: int = 1 << 16, **kwargs):
    if weights is None:
        n_rels = len(relation_label_encoder())
        weights = PcnnWeights(vocab_size, n_rels)
    return feature_ds.map_batches(
        worker_udf(PcnnScorer, ray.put(weights)),
        batch_format="pyarrow", **kwargs)


class FeaturizeAndScore:
    """Fused featurizer + scorer: documents in, scored pairs out.

    :func:`score_docs` builds one per worker process
    (``blocks.worker_udf``) and maps it as a task.  The feature tensors
    (token ids, masks, position vectors — ~10x the text size) live only
    inside the call; they never enter the object store.  Separate
    featurize -> score stages move every tensor block through plasma
    and pay cross-operator backpressure (measured 111 s vs 12 s for the
    fused stage on 289k pairs at sf0.1).  A PCNN scorer takes the
    featurizer's factored form (one token row per document); a scorer
    without :meth:`PcnnScorer.score_doc_pairs` takes the expanded
    per-pair rows."""

    def __init__(self, vocab, weights, scorer_cls=None):
        from rex_ray.stages.features import PairFeaturizer

        self.featurize = PairFeaturizer(vocab)
        self.score = (scorer_cls or PcnnScorer)(weights)

    def __call__(self, batch) -> pa.Table:
        if hasattr(self.score, "score_doc_pairs"):  # factorized PCNN
            return self.score.score_doc_pairs(self.featurize.doc_pairs(batch))
        return self.score(self.featurize(batch))  # per-pair rows


def score_docs(docs_ds, vocab=None, weights=None,
               vocab_size: int = 1 << 16, scorer_cls=None,
               task_dir: Optional[str] = None, **kwargs):
    """documents (doc_id, text) -> scored pairs, one fused task stage
    (the production inference path); ``concurrency`` (an int) caps its
    concurrent tasks.  ``task_dir`` loads the best trained checkpoint
    (state/weights.py, the reference's ``from_taskdir`` shape) instead
    of the seeded default."""
    from rex_ray.stages.features import build_corpus_vocab

    if vocab is None:
        vocab = build_corpus_vocab(docs_ds)
    if weights is None and task_dir is not None:
        from rex_ray.state.weights import from_taskdir

        wcls = (
            PcnnWeights
            if (scorer_cls is None or scorer_cls is PcnnScorer)
            else BiLstmAttWeights
        )
        weights = from_taskdir(wcls, task_dir)
    if weights is None:
        n_rels = len(relation_label_encoder())
        weights = PcnnWeights(vocab_size, n_rels)
    return docs_ds.map_batches(
        worker_udf(FeaturizeAndScore, ray.put(vocab), ray.put(weights),
                   scorer_cls),
        batch_format="pyarrow", **kwargs)


class BiLstmAttWeights:
    """Deterministic parameters for the BiLSTM-attention classifier
    (shape-compatible with a trained checkpoint loader)."""

    def __init__(
        self,
        vocab_size: int,
        n_rels: int,
        dim_token: int = 16,
        dim_pos: int = 4,
        hidden: int = 24,
        max_seq_len: int = MAX_SEQ_LEN,
        seed: int = 4321,
    ):
        rng = np.random.RandomState(seed)
        d_in = dim_token + 2 * dim_pos
        self.emb = rng.standard_normal((vocab_size, dim_token)) * 0.1
        self.pos_subj = rng.standard_normal((max_seq_len + 1, dim_pos)) * 0.1
        self.pos_obj = rng.standard_normal((max_seq_len + 1, dim_pos)) * 0.1
        # per direction: simple recurrent cell h_t = tanh(Wx + Uh + b)
        self.W = rng.standard_normal((2, d_in, hidden)) * 0.1
        self.U = rng.standard_normal((2, hidden, hidden)) * 0.1
        self.b = rng.standard_normal((2, hidden)) * 0.01
        # attention: score_t = v . tanh(Wa h_t)
        self.Wa = rng.standard_normal((2 * hidden, 2 * hidden)) * 0.1
        self.v = rng.standard_normal(2 * hidden) * 0.1
        self.dense_w = rng.standard_normal((2 * hidden, n_rels)) * 0.1
        self.dense_b = rng.standard_normal(n_rels) * 0.01
        self.hidden = hidden
        self.n_rels = n_rels


class BiLstmAttScorer:
    """BiLSTM(-ish) encoder + attention pooling relation classifier —
    the reference's recurrent alternative to PCNN (LSTMCasRel /
    BiLSTM-attention family, rex/models/casrel.py:13-40 lstm branch).

    Vectorized across the batch; the only sequential loop is the
    recurrence over the (fixed, 64) timesteps — exactly the part a GPU
    kernel would own.  Attention is masked to real tokens.  Unlike the
    PCNN conv, the recurrence is not linear in its position inputs, so
    it cannot be split per document: it runs on the per-pair feature
    rows.
    """

    def __init__(self, weights: BiLstmAttWeights):
        self.w = weights
        self.labels = relation_label_encoder()

    def _forward(
        self,
        ids: np.ndarray,    # (n, L)
        rel_s: np.ndarray,
        rel_o: np.ndarray,
        mask: np.ndarray,   # (n, L) 1/0 pad mask
    ) -> np.ndarray:
        w = self.w
        x = np.concatenate(
            [w.emb[ids], w.pos_subj[rel_s], w.pos_obj[rel_o]], axis=2
        )  # (n, L, d_in)
        n, L, _ = x.shape
        hs = []
        for d in range(2):  # forward, backward
            h = np.zeros((n, w.hidden))
            seq = range(L) if d == 0 else range(L - 1, -1, -1)
            out = np.empty((n, L, w.hidden))
            for t in seq:
                h = np.tanh(x[:, t, :] @ w.W[d] + h @ w.U[d] + w.b[d])
                # padding positions hold their previous state
                h = np.where(mask[:, t : t + 1] > 0, h, h * 0.0)
                out[:, t, :] = h
            hs.append(out)
        H = np.concatenate(hs, axis=2)  # (n, L, 2h)
        att = np.tanh(H @ self.w.Wa) @ self.w.v  # (n, L)
        att = np.where(mask > 0, att, -np.inf)
        att = att - att.max(axis=1, keepdims=True)
        alpha = np.exp(att)
        alpha = alpha / alpha.sum(axis=1, keepdims=True)
        rep = (H * alpha[:, :, None]).sum(axis=1)  # (n, 2h)
        logits = rep @ self.w.dense_w + self.w.dense_b
        return 1.0 / (1.0 + np.exp(-logits))

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = matrix_from_column(batch, "token_ids")
        rel_s = matrix_from_column(batch, "rel_pos_subj")
        rel_o = matrix_from_column(batch, "rel_pos_obj")
        mask = matrix_from_column(batch, "mask")
        chunks = [
            self._forward(
                ids[i : i + 1024], rel_s[i : i + 1024],
                rel_o[i : i + 1024], mask[i : i + 1024],
            )
            for i in range(0, len(ids), 1024)
        ]
        return _scored(batch, (
            np.concatenate(chunks, axis=0)
            if chunks
            else np.zeros((0, self.w.n_rels))
        ))


def score_pairs_bilstm(feature_ds, weights: Optional[BiLstmAttWeights] = None,
                       vocab_size: int = 1 << 16, **kwargs):
    if weights is None:
        n_rels = len(relation_label_encoder())
        weights = BiLstmAttWeights(vocab_size, n_rels)
    return feature_ds.map_batches(
        worker_udf(BiLstmAttScorer, ray.put(weights)),
        batch_format="pyarrow", **kwargs)


def rule_scored_pairs(docs_ds, **kwargs):
    """Deterministic INTEGER-valued member score vectors for the bag
    reduces: one row per extracted pair, ``scores[r] = 12/distance``
    (an exact integer for the spec's window of 4) on the rule
    predicate, 0 elsewhere.  Makes the bag-ONE max and the linear-
    weight bag-ATT sums exactly representable, so the reduces are
    DuckDB-oracle-checkable (kg_bag_one_rule / kg_bag_att_rule); the
    model-scored variants keep these rows-only."""
    from rex_ray.stages.extract import extract_triples

    labels = relation_label_encoder()
    n_rels = len(labels)

    def to_scores(t: pa.Table) -> pa.Table:
        pred_ids = np.asarray(labels.encode(t["pred"].to_pylist()))
        # score is 1/d (d in 1..4); rint repairs the float64 rounding
        # of 12 * (1/3) so the member values are exact {12, 6, 4, 3}
        sval = np.rint(t["score"].to_numpy() * 12.0)
        mat = np.zeros((t.num_rows, n_rels), dtype=np.float64)
        mat[np.arange(t.num_rows), pred_ids] = sval
        out = pa.table({"pair_key": t["pair_key"]})
        return out.append_column("scores", fixed_list_column(mat))

    return extract_triples(docs_ds, **kwargs).map_batches(
        to_scores, batch_format="pyarrow"
    )


# -- bag reduces (associative -> partial agg + one shuffle) ----------------

def _rel_cols(n_rels: int):
    return [f"rel_{i}" for i in range(n_rels)]


def bag_scores_one(scored_ds, n_rels: Optional[int] = None):
    """PCNN-ONE semantics: bag score per relation = max over members;
    bag label = argmax.  Per-relation max is associative: per-batch
    partial max, then a Max-aggregate shuffle on pair_key."""
    if n_rels is None:
        n_rels = len(relation_label_encoder())
    cols = _rel_cols(n_rels)

    def explode(t: pa.Table) -> pa.Table:
        s = matrix_from_column(t, "scores")
        df = pd.DataFrame({"pair_key": t["pair_key"].to_pylist()})
        for i, c in enumerate(cols):
            df[c] = s[:, i]
        g = df.groupby("pair_key", sort=False).max().reset_index()
        g["n_members"] = (
            df.groupby("pair_key", sort=False).size().to_numpy().astype("int64")
        )
        return arrow_block(g)

    partial = pre_shuffle(scored_ds.map_batches(explode, batch_format="pyarrow"))
    merged = partial.groupby("pair_key").aggregate(
        *[Max(c, alias_name=c) for c in cols],
        Sum("n_members", alias_name="n_members"),
    )

    labels = relation_label_encoder()

    def finalize(t: pa.Table) -> pa.Table:
        s = np.stack([t[c].to_numpy() for c in cols], axis=1)
        best = s.argmax(axis=1)
        return pa.Table.from_pydict(
            {
                "pair_key": t["pair_key"],
                "bag_label": [labels.id2label[i] for i in best],
                "bag_score": s[np.arange(len(best)), best],
                "n_members": t["n_members"],
            }
        )

    return merged.map_batches(finalize, batch_format="pyarrow")


def bag_scores_att(scored_ds, n_rels: Optional[int] = None,
                   weight: str = "exp"):
    """PCNN-ATT semantics: softmax attention over bag members, weighted
    average of member score vectors.  Decomposed associatively:
    weight_i = exp(max_logit_i); bag score = sum(w_i * s_i) / sum(w_i)
    — both sums shuffle as Sum aggregates.

    ``weight="linear"`` (w_i = max_logit_i) is the oracle-checkable
    operating mode: with integer-valued member scores every partial sum
    is exact in float64, so the Ray reduce and the DuckDB oracle agree
    bit-for-bit regardless of summation order (kg_bag_att_rule).  The
    exp mode keeps the reference's softmax-attention semantics."""
    if n_rels is None:
        n_rels = len(relation_label_encoder())
    cols = _rel_cols(n_rels)
    assert weight in ("exp", "linear")

    def explode(t: pa.Table) -> pa.Table:
        s = matrix_from_column(t, "scores")
        mx = s.max(axis=1)
        w = np.exp(mx) if weight == "exp" else mx  # (n,)
        df = pd.DataFrame(
            {"pair_key": t["pair_key"].to_pylist(), "wsum": w}
        )
        for i, c in enumerate(cols):
            df[c] = s[:, i] * w
        g = df.groupby("pair_key", sort=False).sum().reset_index()
        return arrow_block(g)

    partial = pre_shuffle(scored_ds.map_batches(explode, batch_format="pyarrow"))
    merged = partial.groupby("pair_key").aggregate(
        *[Sum(c, alias_name=c) for c in cols],
        Sum("wsum", alias_name="wsum"),
    )

    labels = relation_label_encoder()

    def finalize(t: pa.Table) -> pa.Table:
        wsum = t["wsum"].to_numpy()
        s = np.stack([t[c].to_numpy() for c in cols], axis=1) / wsum[:, None]
        best = s.argmax(axis=1)
        return pa.Table.from_pydict(
            {
                "pair_key": t["pair_key"],
                "bag_label": [labels.id2label[i] for i in best],
                "bag_score": s[np.arange(len(best)), best],
            }
        )

    return merged.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# PCNN integer-rule twin (spec.PCNN_RULE_*): the same conv + piecewise
# pooling + dense dataflow, oracle-checked end to end
# ---------------------------------------------------------------------------

class PcnnRuleWeights:
    """Integer-exact PCNN parameter set from the spec literals: token
    embeddings are a pure md5 function of the token STRING (so the
    DuckDB oracle recomputes them from the text), position tables a
    linear residue rule, conv weights literals, dense weights an md5
    function of the relation NAME.  All values in [-4, 4]; every
    intermediate stays an exact integer in float64."""

    def __init__(self, vocab, max_seq_len: int = None):
        from rex_ray.pipelines import spec

        L = max_seq_len or spec.PCNN_RULE_MAX_LEN
        emb = np.empty((len(vocab), 2), dtype=np.float64)
        for i, tok in enumerate(vocab.id2token):
            emb[i, 0] = spec.md5_int(tok, 0)
            emb[i, 1] = spec.md5_int(tok, 1)
        self.emb = emb
        r = np.arange(L + 1, dtype=np.int64)[:, None]
        pa_, pb_ = spec.PCNN_RULE_PS_A, spec.PCNN_RULE_PS_B
        self.pos_subj = ((r * np.asarray(pa_) + np.asarray(pb_)) % 9 - 4
                         ).astype(np.float64)
        oa_, ob_ = spec.PCNN_RULE_PO_A, spec.PCNN_RULE_PO_B
        self.pos_obj = ((r * np.asarray(oa_) + np.asarray(ob_)) % 9 - 4
                        ).astype(np.float64)
        self.conv_w = np.asarray(spec.PCNN_RULE_CONV_W, dtype=np.float64)
        self.conv_b = np.asarray(spec.PCNN_RULE_CONV_B, dtype=np.float64)
        self.rels = spec.pcnn_rule_rels()
        self.dense_w = np.asarray(
            [[spec.md5_int(rl, j) for rl in self.rels] for j in range(6)],
            dtype=np.float64,
        )  # (6, n_rels)
        self.dense_b = np.asarray(
            [spec.md5_int(rl, 6) for rl in self.rels], dtype=np.float64
        )


class PcnnRuleScorer:
    """Feature-row batches -> one integer-logit row per (pair, rel):
    (doc_id, subj_pos, obj_pos, label, score).  The per-pair form of
    :class:`PcnnScorer`'s dataflow: one shifted-GEMM conv over each
    feature row's [token ++ position ++ position] embeddings, then the
    pmask segment pooling; no tanh / sigmoid (monotone pointwise maps
    dropped by the rule contract, like the GP twin's /sqrt)."""

    def __init__(self, weights: PcnnRuleWeights):
        self.w = weights

    def _forward(self, ids, rel_s, rel_o, pmask) -> np.ndarray:
        w = self.w
        x = np.concatenate(
            [w.emb[ids], w.pos_subj[rel_s], w.pos_obj[rel_o]], axis=2
        )  # (n, L, 6) float64, exact integers
        conv = nn.conv1d_same(x, w.conv_w, w.conv_b)
        rep = nn.piecewise_max_pool(conv, pmask)  # (n, 6) — NO tanh
        return nn.linear(rep, w.dense_w, w.dense_b)  # (n, n_rels) int-exact

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = matrix_from_column(batch, "token_ids")
        rel_s = matrix_from_column(batch, "rel_pos_subj")
        rel_o = matrix_from_column(batch, "rel_pos_obj")
        pmask = matrix_from_column(batch, "pmask")
        logits = self._forward(ids, rel_s, rel_o, pmask)
        n, n_rels = logits.shape
        doc_id = batch["doc_id"].to_numpy(zero_copy_only=False)
        sp = batch["subj_pos"].to_numpy(zero_copy_only=False)
        op = batch["obj_pos"].to_numpy(zero_copy_only=False)
        rels = np.asarray(self.w.rels, dtype=object)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(doc_id, n_rels)),
                "subj_pos": pa.array(
                    np.repeat(sp, n_rels).astype(np.int64), pa.int64()
                ),
                "obj_pos": pa.array(
                    np.repeat(op, n_rels).astype(np.int64), pa.int64()
                ),
                "label": pa.array(
                    np.tile(rels, n), pa.string()
                ),
                "score": pa.array(
                    logits.reshape(-1).astype(np.int64), pa.int64()
                ),
            }
        )


def score_pcnn_rule(docs_ds, vocab=None, **kwargs):
    """documents -> per-(pair, relation) integer PCNN-rule logits —
    the oracle-checked twin of :func:`score_docs` (query
    kg_pcnn_rule).  Window L = spec.PCNN_RULE_MAX_LEN."""
    from rex_ray.pipelines import spec
    from rex_ray.stages.features import PairFeaturizer, build_corpus_vocab

    if vocab is None:
        vocab = build_corpus_vocab(docs_ds)
    L = spec.PCNN_RULE_MAX_LEN
    feats = docs_ds.map_batches(
        worker_udf(PairFeaturizer, ray.put(vocab), max_seq_len=L),
        batch_format="pyarrow", concurrency=kwargs.get("concurrency"))
    return feats.map_batches(
        worker_udf(PcnnRuleScorer,
                   ray.put(PcnnRuleWeights(vocab, max_seq_len=L))),
        batch_format="pyarrow", **kwargs)
