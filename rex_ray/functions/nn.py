"""Small neural-network inference kernels (numpy, batch-first).

The reference keeps these as standalone torch modules
(`/root/reference/rex/modules/ffn.py:9-56` FFN, `affine.py:5-41`
Biaffine, `cnn.py:8-55` MultiKernelCNN, `pcnn.py:9-55` PiecewiseCNN);
here they are pure vectorized numpy functions shared by the scorer
actors (stages/scorer.py, stages/gpointer.py).  Inference semantics
only: dropout layers are identity at eval time, so they are omitted.

Every kernel takes batch-first float arrays and involves no per-row
Python — each is one or a few GEMMs/reductions over the whole batch,
which is what makes the actor-pool scoring stages CPU-bound on useful
work rather than interpreter overhead.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

Layer = Tuple[np.ndarray, np.ndarray]  # (W: (d_in, d_out), b: (d_out,))


def linear(x: np.ndarray, W: np.ndarray, b: Optional[np.ndarray] = None
           ) -> np.ndarray:
    """x @ W (+ b) over the last axis; x is (..., d_in)."""
    y = x @ W
    if b is not None:
        y = y + b
    return y


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def ffn(
    x: np.ndarray,
    layers: Sequence[Layer],
    act: Callable[[np.ndarray], np.ndarray] = relu,
    act_on_last: bool = False,
) -> np.ndarray:
    """Multi-layer feed-forward (reference FFN, ffn.py:34-52 eval
    semantics): activation after every layer except the last, unless
    ``act_on_last`` — the reference's ``mid_dims=None`` single-layer
    form ends Linear -> act, the multi-layer form ends with a bare
    Linear."""
    n = len(layers)
    for i, (W, b) in enumerate(layers):
        x = linear(x, W, b)
        if i < n - 1 or act_on_last:
            x = act(x)
    return x


def conv1d_same(
    x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray] = None
) -> np.ndarray:
    """Same-padding 1-D convolution over the sequence axis via shifted
    GEMMs: x (n, L, d_in), w (filters, k, d_in) with ODD k, b
    (filters,) -> (n, L, filters).

    Equivalent to torch ``Conv1d(d_in, filters, k, padding=(k-1)//2)``
    on the (n, d_in, L) permutation (reference cnn.py:35-38,
    pcnn.py:20-25).  One GEMM per tap, accumulated in place — never
    materializes the (n, L, k, d_in) window stack (building that 4-D
    intermediate is pure memory traffic and measured ~3x slower than
    the shifted-GEMM form on the PCNN stage)."""
    k = w.shape[1]
    if k % 2 != 1:
        raise ValueError(f"conv1d_same requires odd kernel, got {k}")
    half = k // 2
    out = x @ w[:, half, :].T  # center tap
    for tap in range(k):
        off = tap - half
        if off == 0:
            continue
        if off < 0:
            # input position i+off contributes to output i: shift right
            out[:, -off:, :] += x[:, :off, :] @ w[:, tap, :].T
        else:
            out[:, :-off, :] += x[:, off:, :] @ w[:, tap, :].T
    if b is not None:
        out += b
    return out


def piecewise_max_pool(
    conv: np.ndarray,
    pmask: np.ndarray,
    segments: Sequence[int] = (1, 2, 3),
    empty_value: float = 0.0,
) -> np.ndarray:
    """PCNN piecewise pooling: max over sequence positions within each
    pmask segment, concatenated — conv (n, L, f), pmask (n, L) int in
    {0} ∪ segments (0 = padding) -> (n, len(segments)*f).

    Matches the reference's mask-embedding +100/-100 trick
    (pcnn.py:29-50) without the additive constant: positions outside
    the segment are -inf for the max, and a segment with no positions
    pools to ``empty_value`` (the reference's all-masked max yields
    -100 -> tanh ≈ -1 only on pathological empty segments; our
    encoder guarantees non-empty segments for anchored pairs, and the
    rule twins pin this exact empty_value=0 semantic in their
    oracles)."""
    pooled = []
    for seg in segments:
        m = (pmask == seg)[:, :, None]
        seg_vals = np.where(m, conv, -np.inf)
        mx = seg_vals.max(axis=1)
        pooled.append(np.where(np.isfinite(mx), mx, empty_value))
    return np.concatenate(pooled, axis=1)


def relative_position_conv(
    pos_emb: np.ndarray, w: np.ndarray, L: int
) -> np.ndarray:
    """The share of a same-padding conv that a relative-position
    channel contributes, for every anchor at once: pos_emb (>= L, d),
    w (filters, k, d) -> (L, L, filters), row ``p`` being
    ``conv1d_same(pos_emb[|i - p|] for i in range(L), w)``.

    The conv is linear in its input channels, so a PCNN conv over
    [token ++ subject-position ++ object-position] embeddings is the
    token channels' conv plus two rows of this table (anchored at the
    pair's subject and object); the zero padding at the window//2 edge
    positions is inside the table, for any odd k."""
    idx = np.arange(L)
    return conv1d_same(pos_emb[np.abs(idx[None, :] - idx[:, None])], w)


def segment_max_pool(
    conv: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """PCNN piecewise pooling by segment bounds: max over positions
    [0, lo), [lo, hi) and [hi, L) of each row, concatenated — conv
    (n, L, f), lo/hi (n,) -> (n, 3f).  Positions that belong to no
    segment (padding) must already hold -inf in ``conv``; a segment
    with no finite value pools to 0, as in :func:`piecewise_max_pool`.
    Each segment is one add of a (n, L, 1) 0/-inf bias and one max over
    the sequence axis."""
    idx = np.arange(conv.shape[1])[None, :]
    lo, hi = lo[:, None], hi[:, None]
    pooled = []
    for inside in (idx < lo, (idx >= lo) & (idx < hi), idx >= hi):
        bias = np.where(inside, 0.0, -np.inf).astype(conv.dtype)
        mx = (conv + bias[:, :, None]).max(axis=1)
        pooled.append(np.where(np.isfinite(mx), mx, 0.0))
    return np.concatenate(pooled, axis=1)


def multi_kernel_cnn(
    x: np.ndarray, kernels: Sequence[Layer]
) -> np.ndarray:
    """Reference MultiKernelCNN eval forward (cnn.py:42-55): one
    same-padding conv per kernel size, global max-pool over the
    sequence, concatenated -> (n, len(kernels)*filters).  ``kernels``
    is [(w (f, k_i, d_in), b (f,)), ...]."""
    outs = []
    for w, b in kernels:
        conv = conv1d_same(x, w, b)
        outs.append(conv.max(axis=1))
    return np.concatenate(outs, axis=1)


def biaffine(
    x: np.ndarray,
    y: np.ndarray,
    weight: np.ndarray,
    bias_x: bool = True,
    bias_y: bool = True,
) -> np.ndarray:
    """Biaffine span scoring (reference affine.py:32-41): x (B, L, d),
    y (B, L, d), weight (n_out, d+bias_x, d+bias_y) ->
    (B, n_out, L, L) via einsum('bxi,oij,byj->boxy') after appending
    the bias ones-column(s)."""
    if bias_x:
        x = np.concatenate([x, np.ones((*x.shape[:-1], 1), x.dtype)], axis=-1)
    if bias_y:
        y = np.concatenate([y, np.ones((*y.shape[:-1], 1), y.dtype)], axis=-1)
    return np.einsum("bxi,oij,byj->boxy", x, weight, y)
