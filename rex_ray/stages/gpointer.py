"""GlobalPointer scoring forward: biaffine span matrix with RoPE and
tril masking (numpy re-derivation of
``/root/reference/rex/models/global_pointer.py:10-213``), feeding the
existing multiclass pointer-matrix decode — the learned-scoring half
that round 1 left out (stages/pointer.py keeps the deterministic
gazetteer emitter for the oracle-checked decode path).

Faithful forward semantics (PointerMatrix.forward:60-66 +
GlobalPointer.forward:120-152), with a seeded token-embedding encoder
standing in for BERT:

    x = emb[ids]                       # encoder stand-in
    h = x @ Wh + bh; t = x @ Wt + bt   # FFN(mid_dims=None) == Linear
    h, t = RoPE(h, t)                  # sinusoidal_position_embedding
    logits[c,i,j] = [h_i;1] U_c [t_j;1]    # Biaffine, bias_x=bias_y
    logits = logits*pad - (1-pad)*1e12 ; logits -= tril(1,-1)*1e12
    logits /= sqrt(biaffine_size)
    spans  = decode((logits > 0))      # position.py:119-132 kernel

The RoPE rotation replicates the reference's exact tensor recipe
(sinusoidal_position_embedding:37-57), including its concat-halves
pairing of the rotated component.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from rex_ray.functions import nn
from rex_ray.functions.blocks import arrow_block, worker_udf
from rex_ray.functions.position import (
    decode_multiclass_pointer_matrix_spans,
)
from rex_ray.pipelines import spec
from rex_ray.pipelines.spec import MAX_SEQ_LEN
from rex_ray.state.dictionaries import Vocab

ENT_TYPES: List[str] = sorted(set(spec.GAZETTEER.values()))


class GlobalPointerWeights:
    """Seeded parameter set (shape contract of PointerMatrix:17-34 +
    Biaffine:5-41); a trained checkpoint loads via state/weights.py."""

    def __init__(
        self,
        vocab_size: int,
        cls_num: int,
        dim_token: int = 16,
        biaffine_size: int = 8,
        seed: int = 7777,
    ):
        rng = np.random.RandomState(seed)
        self.emb = rng.standard_normal((vocab_size, dim_token)) * 0.1
        self.Wh = rng.standard_normal((dim_token, biaffine_size)) * 0.1
        self.bh = rng.standard_normal(biaffine_size) * 0.01
        self.Wt = rng.standard_normal((dim_token, biaffine_size)) * 0.1
        self.bt = rng.standard_normal(biaffine_size) * 0.01
        # biaffine with bias_x = bias_y = True: (cls, n_in+1, n_in+1)
        self.U = rng.standard_normal(
            (cls_num, biaffine_size + 1, biaffine_size + 1)
        ) * 0.1
        self.biaffine_size = biaffine_size
        self.cls_num = cls_num


def rope_rotate(qw: np.ndarray, kw: np.ndarray):
    """Reference sinusoidal_position_embedding (global_pointer.py:37-57)
    in numpy: interleaved sin/cos position factors, concat-halves
    rotated component."""
    _, L, d = qw.shape
    pos = np.arange(L, dtype=np.float64)[:, None]
    idx = np.arange(d // 2, dtype=np.float64)
    inv = np.power(10000.0, -2.0 * idx / d)
    ang = pos * inv[None, :]  # (L, d/2)
    pos_emb = np.stack([np.sin(ang), np.cos(ang)], axis=-1).reshape(L, d)
    cos_pos = np.repeat(pos_emb[:, 1::2], 2, axis=-1)[None, :, :]
    sin_pos = np.repeat(pos_emb[:, 0::2], 2, axis=-1)[None, :, :]
    qw2 = np.concatenate([-qw[..., 1::2], qw[..., 0::2]], axis=-1)
    kw2 = np.concatenate([-kw[..., 1::2], kw[..., 0::2]], axis=-1)
    return qw * cos_pos + qw2 * sin_pos, kw * cos_pos + kw2 * sin_pos


def rope_rotate_int(qw: np.ndarray, kw: np.ndarray):
    """Integer-exact RoPE twin: the SAME concat-halves recipe as
    :func:`rope_rotate`, but position p rotates by the exact
    Pythagorean pair (cos, sin)*5^(p%4) of ``spec.GP_RULE_ROT``
    instead of sin/cos — every output stays an exact integer, and the
    positive per-position scale 5^r cannot flip the sign the decode
    thresholds on.  All pairs share the rotation (the rule's
    documented simplification of the per-pair frequency ladder)."""
    _, L, d = qw.shape
    rot = np.asarray(spec.GP_RULE_ROT, dtype=np.float64)
    r = np.arange(L) % len(rot)
    cos_pos = np.repeat(rot[r, 0][:, None], d, axis=-1)[None, :, :]
    sin_pos = np.repeat(rot[r, 1][:, None], d, axis=-1)[None, :, :]
    qw2 = np.concatenate([-qw[..., 1::2], qw[..., 0::2]], axis=-1)
    kw2 = np.concatenate([-kw[..., 1::2], kw[..., 0::2]], axis=-1)
    return qw * cos_pos + qw2 * sin_pos, kw * cos_pos + kw2 * sin_pos


class GlobalPointerRuleWeights:
    """Integer-exact parameter set from the ``spec.GP_RULE_*`` literals
    (the kg_bag_*_rule pattern lifted to the biaffine forward): token
    embeddings are a pure md5 function of the token STRING, so the
    DuckDB oracle recomputes the entire logit matrix from the text
    (``spec.sql_gp_rule``)."""

    def __init__(self, vocab: Vocab):
        import hashlib

        m = spec.GP_RULE_EMB_MOD
        emb = np.empty((len(vocab), spec.GP_RULE_DIM), dtype=np.float64)
        for i, tok in enumerate(vocab.id2token):
            h = hashlib.md5(tok.encode()).hexdigest()
            for k in range(spec.GP_RULE_DIM):
                emb[i, k] = int(h[2 * k: 2 * k + 2], 16) % m - 4
        self.emb = emb
        self.Wh = np.asarray(spec.GP_RULE_WH, dtype=np.float64)
        self.bh = np.asarray(spec.GP_RULE_BH, dtype=np.float64)
        self.Wt = np.asarray(spec.GP_RULE_WT, dtype=np.float64)
        self.bt = np.asarray(spec.GP_RULE_BT, dtype=np.float64)
        self.U = np.asarray(
            [spec.GP_RULE_U[t] for t in sorted(spec.GP_RULE_U)],
            dtype=np.float64,
        )
        self.biaffine_size = spec.GP_RULE_DIM
        self.cls_num = len(spec.GP_RULE_U)


class GlobalPointerScorer:
    """(doc_id, text) batches -> thresholded span rows with biaffine
    scores: (doc_id, ent_type, start_pos, end_pos, score).

    Built once per worker process from the broadcast weights + vocab;
    forward is one einsum per batch over (B, cls, L, L) — no per-row
    Python in the scoring."""

    def __init__(self, vocab: Vocab, weights: GlobalPointerWeights,
                 use_rope: bool = True, tri_mask: str = "tril",
                 max_seq_len: int = MAX_SEQ_LEN, threshold: float = 0.03,
                 rope: str = "sin", scale: bool = True):
        self.vocab = vocab
        self.w = weights
        assert tri_mask in ("tril", "triu", "none")
        assert rope in ("sin", "int")
        self.use_rope = use_rope
        self.rope = rope
        self.scale = scale
        self.tri_mask = tri_mask
        self.max_seq_len = max_seq_len
        # the reference decodes logits > 0 on a TRAINED, calibrated
        # model (global_pointer.py:154-163); the seeded stand-in's
        # logits are centered at 0, so 0 floods ~half the triangle —
        # the default operating point keeps the ~99th-percentile tail
        self.threshold = threshold

    def forward(self, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """(B, L) ids + mask -> (B, cls, L, L) masked scaled logits."""
        w = self.w
        x = w.emb[ids]  # (B, L, d)
        h = nn.linear(x, w.Wh, w.bh)  # FFN(mid_dims=None) == Linear
        t = nn.linear(x, w.Wt, w.bt)
        if self.use_rope:
            h, t = (
                rope_rotate(h, t)
                if self.rope == "sin"
                else rope_rotate_int(h, t)
            )
        logits = nn.biaffine(h, t, w.U, bias_x=True, bias_y=True)
        pad = (mask[:, None, None, :] * mask[:, None, :, None]).astype(
            np.float64
        )
        logits = logits * pad - (1 - pad) * 1e12
        L = logits.shape[-1]
        if self.tri_mask == "tril":
            tri = np.tril(np.ones((L, L)), -1)[None, None]
        elif self.tri_mask == "triu":
            tri = np.triu(np.ones((L, L)), -1)[None, None]
        else:
            tri = np.zeros((1, 1, L, L))
        logits = logits - tri * 1e12
        if not self.scale:
            return logits  # integer-rule twin: keep exact int64 logits
        return logits / np.sqrt(w.biaffine_size)

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        tok_lists = [t.split(" ") for t in batch["text"]]
        L = min(max(len(t) for t in tok_lists), self.max_seq_len)
        ids, mask = self.vocab.encode_batch(tok_lists, L)
        logits = self.forward(ids, mask)
        pred = (logits > self.threshold).astype(np.int8)
        spans = decode_multiclass_pointer_matrix_spans(pred)
        rows = []
        for r, doc_id in enumerate(batch["doc_id"]):
            for s, e, cls in spans[r]:
                rows.append(
                    (
                        doc_id,
                        ENT_TYPES[cls % len(ENT_TYPES)],
                        s,
                        e,
                        float(logits[r, cls, s, e - 1]),
                    )
                )
        return arrow_block(
            pd.DataFrame(
                rows,
                columns=["doc_id", "ent_type", "start_pos",
                         "end_pos", "score"],
            ),
            schema=pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("ent_type", pa.string()),
                    ("start_pos", pa.int64()),
                    ("end_pos", pa.int64()),
                    ("score", pa.float64()),
                ]
            ),
        )


def score_globalpointer(
    docs_ds,
    vocab: Optional[Vocab] = None,
    weights: Optional[GlobalPointerWeights] = None,
    task_dir: Optional[str] = None,
    **kwargs,
):
    """documents -> GlobalPointer-scored spans (a task stage over
    broadcast vocab + weights, ``blocks.worker_udf``)."""
    from rex_ray.stages.features import build_corpus_vocab

    if vocab is None:
        vocab = build_corpus_vocab(docs_ds)
    if weights is None and task_dir is not None:
        from rex_ray.state.weights import from_taskdir

        weights = from_taskdir(GlobalPointerWeights, task_dir)
    if weights is None:
        weights = GlobalPointerWeights(
            vocab_size=len(vocab), cls_num=len(ENT_TYPES)
        )
    return docs_ds.map_batches(
        worker_udf(GlobalPointerScorer, ray.put(vocab), ray.put(weights)),
        batch_format="pandas", **kwargs)


def score_globalpointer_rule(docs_ds, vocab: Optional[Vocab] = None,
                             **kwargs):
    """Integer-rule twin of :func:`score_globalpointer`: the SAME
    forward code path (embedding lookup -> linear heads -> RoPE ->
    biaffine einsum -> pad+tril masking -> threshold -> multiclass
    decode) with the ``spec.GP_RULE_*`` integer-exact parameterization
    — every emitted logit is an exact int64 the DuckDB oracle
    recomputes from the text (query ``kg_globalpointer_rule``), so the
    biaffine+RoPE matrix itself is oracle-checked, not just its
    decode."""
    from rex_ray.stages.features import build_corpus_vocab

    if vocab is None:
        vocab = build_corpus_vocab(docs_ds)
    return docs_ds.map_batches(
        worker_udf(GlobalPointerScorer, ray.put(vocab),
                   ray.put(GlobalPointerRuleWeights(vocab)), rope="int",
                   scale=False, threshold=0.0,
                   max_seq_len=spec.GP_RULE_MAX_LEN),
        batch_format="pandas", **kwargs)
