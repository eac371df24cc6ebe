"""Brute-force reference implementations used as ground truth.

Deliberately naive: the dense path materializes the full n-by-n score matrix
with true minus-infinity masking (masked entries contribute exact zeros to the
softmax normalization), and the literal pooling path re-chunks every token's
window from its own start.  O(n^2)-ish by design; guarded to small n.
"""

from __future__ import annotations

import numpy as np

from poolattn.core import LayerConfig, LayerParams, SequenceBatch, project_qkv, softmax_row
from poolattn.pooling import PoolingOp, pool_segment
from poolattn.windowing import build_pooled_grid

LITERAL_ORACLE_MAX_N = 512


def mask_from_config(
    n: int,
    w1: int,
    global_set=(),
    pad_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Dense boolean attention mask: entry (i, j) is True iff i may attend to j.

    Non-global rows get their clipped window plus all global columns; global
    rows get the full sequence; padding rows and columns are cleared.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n)
    mask = np.abs(idx[:, None] - idx[None, :]) <= w1
    g = np.asarray(sorted(int(i) for i in global_set), dtype=np.int64)
    if g.size:
        if g[0] < 0 or g[-1] >= n:
            raise ValueError("global index out of range")
        mask[:, g] = True
        mask[g, :] = True
    if pad_mask is not None:
        pad = np.ascontiguousarray(pad_mask, dtype=bool)
        if pad.shape != (n,):
            raise ValueError(f"pad_mask must have length {n}")
        mask[~pad, :] = False
        mask[:, ~pad] = False
    return mask


def dense_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray, alpha: float
) -> np.ndarray:
    """Full scaled-dot-product attention with a dense boolean mask.

    Masked scores are minus infinity, so their exponentials are exact zeros
    and the normalization runs over visible entries only.
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    n = q.shape[0]
    if k.shape != q.shape or v.shape[0] != n:
        raise ValueError("q, k, v must agree on the token dimension")
    if mask.shape != (n, n):
        raise ValueError(f"mask must be ({n}, {n}), got {mask.shape}")
    if not mask.any(axis=1).all():
        raise ValueError("every mask row needs at least one visible entry")
    scores = np.where(mask, alpha * (q @ k.T), -np.inf)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return probs @ v


def dense_first_level(
    batch: SequenceBatch, params: LayerParams, config: LayerConfig
) -> np.ndarray:
    """First-level reference: per-head dense attention under the config's mask.

    Requires an unpadded batch (the dense path has no zero-row convention).
    """
    if not batch.pad_mask.all():
        raise ValueError("dense first-level reference requires an unpadded batch")
    q, k, v = project_qkv(batch.embeddings, params.first)
    mask = mask_from_config(batch.n, config.w1, batch.global_set)
    return per_head_dense(q, k, v, mask, config)


def dense_layer_reference(
    batch: SequenceBatch, params: LayerParams, config: LayerConfig
) -> np.ndarray:
    """Whole-layer dense reference, valid only when pooling is the identity.

    With kappa = xi = 1 each pooled row equals its source row for every
    pooling kind, so the second level is plain banded dense attention over the
    second-level projections and the layer output is the sum of two dense
    attention passes.
    """
    if config.kappa != 1 or config.xi != 1:
        raise ValueError("dense layer reference requires kappa = xi = 1")
    y = dense_first_level(batch, params, config)
    src = batch.embeddings if config.mix else y
    q2, k2, v2 = project_qkv(src, params.second)
    band = mask_from_config(batch.n, config.w2)
    z = per_head_dense(q2, k2, v2, band, config)
    return y + z


def per_head_dense(q, k, v, mask, config: LayerConfig) -> np.ndarray:
    """``dense_attention`` of each head's columns of the (n, d) q, k, v under one mask."""
    out = np.empty_like(q)
    dh = config.head_dim
    for h in range(config.n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        out[:, cols] = dense_attention(q[:, cols], k[:, cols], v[:, cols], mask, config.alpha())
    return out


def literal_pooling_attention(
    batch: SequenceBatch,
    y: np.ndarray,
    params: LayerParams,
    config: LayerConfig,
) -> np.ndarray:
    """Second level computed literally per token: slice, re-chunk, pool, attend.

    Each token's window slice of the second-level keys/values is chunked from
    the window's own start index before pooling, so for w2 < n the segment
    layout generally differs from the shared grid.  Guarded to n <= 512.
    """
    n, d = batch.n, batch.d
    if n > LITERAL_ORACLE_MAX_N:
        raise ValueError(f"literal oracle is limited to n <= {LITERAL_ORACLE_MAX_N}")
    if y.shape != (n, d):
        raise ValueError(f"y must be ({n}, {d}), got {y.shape}")
    src = batch.embeddings if config.mix else np.asarray(y, dtype=np.float64)
    q2, k2, v2 = project_qkv(src, params.second)
    op_k = PoolingOp(config.pooling_kind, params.w_p_key)
    op_v = PoolingOp(config.pooling_kind, params.w_p_value)
    pad = batch.pad_mask
    dh, alpha = config.head_dim, config.alpha()

    z = np.zeros((n, d))
    for i in range(n):
        if not pad[i]:
            continue
        lo, hi = max(0, i - config.w2), min(n - 1, i + config.w2)
        local = build_pooled_grid(hi - lo + 1, config.kappa, config.xi, pad[lo:hi + 1])
        if len(local) == 0:
            continue
        pooled_k = np.empty((len(local), d))
        pooled_v = np.empty((len(local), d))
        for j in range(len(local)):
            s = lo + int(local.segment_starts[j])
            e = s + int(local.segment_lens[j])
            rows = np.arange(s, e)[pad[s:e]]
            pooled_k[j] = pool_segment(op_k, k2[rows])
            pooled_v[j] = pool_segment(op_v, v2[rows])
        for h in range(config.n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            probs = softmax_row(alpha * (pooled_k[:, cols] @ q2[i, cols]))
            z[i, cols] = probs @ pooled_v[:, cols]
    return z
