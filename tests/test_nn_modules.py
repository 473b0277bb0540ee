"""functions/nn kernels vs naive per-element references.

The reference keeps FFN / Biaffine / MultiKernelCNN / PiecewiseCNN as
standalone torch modules (`rex/modules/{ffn,affine,cnn,pcnn}.py`); our
numpy inference kernels are shared by the scorer stages, so each is
pinned here against a loop-level naive implementation on random input.
No Ray needed.
"""

import numpy as np
import pytest

from rex_ray.functions import nn


RNG = np.random.RandomState(7)


def naive_conv1d_same(x, w, b):
    n, L, d_in = x.shape
    f, k, _ = w.shape
    half = k // 2
    out = np.zeros((n, L, f))
    for i in range(n):
        for pos in range(L):
            for tap in range(k):
                src = pos + tap - half
                if 0 <= src < L:
                    out[i, pos] += w[:, tap, :] @ x[i, src]
    if b is not None:
        out += b
    return out


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv1d_same_matches_naive(k):
    x = RNG.standard_normal((4, 9, 5))
    w = RNG.standard_normal((6, k, 5))
    b = RNG.standard_normal(6)
    np.testing.assert_allclose(
        nn.conv1d_same(x, w, b), naive_conv1d_same(x, w, b), atol=1e-10
    )
    np.testing.assert_allclose(
        nn.conv1d_same(x, w), naive_conv1d_same(x, w, None), atol=1e-10
    )


def test_conv1d_same_rejects_even_kernel():
    with pytest.raises(ValueError):
        nn.conv1d_same(np.zeros((1, 4, 2)), np.zeros((3, 2, 2)))


def test_piecewise_max_pool_matches_naive():
    conv = RNG.standard_normal((3, 8, 4))
    pmask = RNG.randint(0, 4, size=(3, 8))
    pmask[0] = [1, 1, 2, 2, 3, 3, 0, 0]
    pmask[1][pmask[1] == 2] = 1  # empty segment 2 for row 1
    got = nn.piecewise_max_pool(conv, pmask)
    assert got.shape == (3, 12)
    for i in range(3):
        for si, seg in enumerate((1, 2, 3)):
            idx = np.where(pmask[i] == seg)[0]
            want = conv[i, idx].max(axis=0) if len(idx) else np.zeros(4)
            np.testing.assert_allclose(got[i, si * 4 : (si + 1) * 4], want)


def test_segment_max_pool_matches_piecewise_pool():
    """Segment bounds + -inf padding pool exactly like the pmask pool
    of the same pairs, empty first / middle segments included."""
    from rex_ray.functions.mask import piecewise_mask_batch

    conv = RNG.standard_normal((5, 8, 4)).astype(np.float32)
    sp = np.array([0, 3, 2, 5, 0])
    op = np.array([4, 1, 2, 0, 0])
    n_real = np.array([8, 6, 3, 7, 1])
    pmask = piecewise_mask_batch(sp, op, n_real, 8)
    padded = np.where((pmask == 0)[:, :, None], -np.inf, conv)
    got = nn.segment_max_pool(
        padded.astype(np.float32), np.minimum(sp, op), np.maximum(sp, op))
    np.testing.assert_array_equal(got, nn.piecewise_max_pool(conv, pmask))


def test_relative_position_conv_rows_are_anchored_convs():
    pos_emb = RNG.standard_normal((10, 3))
    w = RNG.standard_normal((4, 5, 3))  # window 5
    table = nn.relative_position_conv(pos_emb, w, 7)
    assert table.shape == (7, 7, 4)
    for p in range(7):
        x = pos_emb[np.abs(np.arange(7) - p)][None]
        np.testing.assert_allclose(
            table[p], naive_conv1d_same(x, w, None)[0], atol=1e-10)


def test_ffn_single_layer_acts_like_reference_mid_dims_none():
    # FFN(mid_dims=None) eval == Linear -> act (ffn.py:35-38)
    x = RNG.standard_normal((5, 3))
    W = RNG.standard_normal((3, 2))
    b = RNG.standard_normal(2)
    got = nn.ffn(x, [(W, b)], act=nn.relu, act_on_last=True)
    np.testing.assert_allclose(got, np.maximum(x @ W + b, 0.0))
    # bare final Linear when act_on_last=False (multi-layer form)
    np.testing.assert_allclose(nn.ffn(x, [(W, b)]), x @ W + b)


def test_ffn_multi_layer_matches_naive():
    x = RNG.standard_normal((4, 6))
    layers = [
        (RNG.standard_normal((6, 5)), RNG.standard_normal(5)),
        (RNG.standard_normal((5, 4)), RNG.standard_normal(4)),
        (RNG.standard_normal((4, 2)), RNG.standard_normal(2)),
    ]
    h = x
    for W, b in layers[:-1]:
        h = np.tanh(h @ W + b)
    want = h @ layers[-1][0] + layers[-1][1]
    np.testing.assert_allclose(
        nn.ffn(x, layers, act=np.tanh), want, atol=1e-12
    )


def test_multi_kernel_cnn_matches_naive():
    x = RNG.standard_normal((3, 7, 4))
    kernels = [
        (RNG.standard_normal((5, 1, 4)), RNG.standard_normal(5)),
        (RNG.standard_normal((5, 3, 4)), RNG.standard_normal(5)),
    ]
    got = nn.multi_kernel_cnn(x, kernels)
    assert got.shape == (3, 10)
    want = np.concatenate(
        [naive_conv1d_same(x, w, b).max(axis=1) for w, b in kernels],
        axis=1,
    )
    np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("bias_x,bias_y", [(True, True), (False, True), (False, False)])
def test_biaffine_matches_naive(bias_x, bias_y):
    B, L, d, o = 2, 4, 3, 2
    x = RNG.standard_normal((B, L, d))
    y = RNG.standard_normal((B, L, d))
    w = RNG.standard_normal((o, d + int(bias_x), d + int(bias_y)))
    got = nn.biaffine(x, y, w, bias_x=bias_x, bias_y=bias_y)
    assert got.shape == (B, o, L, L)
    ones = np.ones((B, L, 1))
    xb = np.concatenate([x, ones], axis=-1) if bias_x else x
    yb = np.concatenate([y, ones], axis=-1) if bias_y else y
    want = np.zeros((B, o, L, L))
    for b_ in range(B):
        for c in range(o):
            for i in range(L):
                for j in range(L):
                    want[b_, c, i, j] = xb[b_, i] @ w[c] @ yb[b_, j]
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_pcnn_forward_unchanged_by_kernel_extraction():
    """The factorized PcnnScorer._forward (token conv per document +
    relative-position conv tables + segment pooling) equals a naive
    per-pair recomputation of the whole forward on position-consistent
    inputs: rel_pos = |i - pos| and the pmask of the pair's positions
    (the rule-twin oracles also pin the dataflow end to end)."""
    from rex_ray.functions.mask import piecewise_mask_batch
    from rex_ray.functions.position import relative_positions_matrix
    from rex_ray.stages.scorer import PcnnScorer, PcnnWeights

    w = PcnnWeights(vocab_size=50, n_rels=3, max_seq_len=16)
    s = PcnnScorer(w)
    rng = np.random.RandomState(0)
    docs = rng.randint(0, 50, size=(3, 16))
    n_real = np.array([16, 9, 2])
    docs[1, 9:] = docs[2, 2:] = 0  # pad id
    doc_row = rng.randint(0, 3, size=6)
    sp = rng.randint(0, n_real[doc_row])
    op = rng.randint(0, n_real[doc_row])
    scores = s._forward(docs, n_real, doc_row, sp, op)
    # independent naive recomputation of the whole forward, per pair
    ids = docs[doc_row]
    rel_s = relative_positions_matrix(sp, 16)
    rel_o = relative_positions_matrix(op, 16)
    pmask = piecewise_mask_batch(sp, op, n_real[doc_row], 16)
    x = np.concatenate(
        [w.emb[ids], w.pos_subj[rel_s], w.pos_obj[rel_o]], axis=2
    )
    conv = naive_conv1d_same(
        x.astype(np.float64), w.conv_w.astype(np.float64),
        w.conv_b.astype(np.float64),
    )
    pooled = []
    for seg in (1, 2, 3):
        m = (pmask == seg)[:, :, None]
        v = np.where(m, conv, -np.inf).max(axis=1)
        pooled.append(np.where(np.isfinite(v), v, 0.0))
    rep = np.tanh(np.concatenate(pooled, axis=1))
    want = 1.0 / (1.0 + np.exp(-(rep @ w.dense_w + w.dense_b)))
    np.testing.assert_allclose(scores, want, atol=1e-5)
