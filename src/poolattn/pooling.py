"""Pooling operators that compress a segment of rows into one vector.

Four kinds: column-wise mean, column-wise max, and two dynamic-weight kinds
(ldconv, mean_ldconv) whose weights are a softmax of a linear map of a context
row — the segment's center row for ldconv, the segment mean for mean_ldconv.
Partial segments run the softmax over the first ``len`` logits only, so the
weights stay a distribution over real rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from poolattn.core import LDCONV_KINDS, POOLING_KINDS, softmax_row
from poolattn.windowing import PooledGrid


@dataclass(frozen=True)
class PoolingOp:
    """A pooling kind plus its (kappa, d) weight matrix for the ldconv kinds."""

    kind: str
    w_p: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in POOLING_KINDS:
            raise ValueError(f"pooling kind must be one of {POOLING_KINDS}")
        if self.kind in LDCONV_KINDS:
            if self.w_p is None:
                raise ValueError(f"{self.kind} pooling requires a weight matrix")
            if self.w_p.ndim != 2:
                raise ValueError("pooling weights must be 2-D (kappa, d)")
            if not np.isfinite(self.w_p).all():
                raise ValueError("pooling weights must be finite")
        elif self.w_p is not None:
            raise ValueError(f"{self.kind} pooling takes no weight matrix")

    @property
    def kappa(self) -> int | None:
        return None if self.w_p is None else self.w_p.shape[0]


def _check_block(op: PoolingOp, block: np.ndarray) -> np.ndarray:
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] == 0:
        raise ValueError(f"segment block must be non-empty 2-D, got shape {block.shape}")
    if op.w_p is not None:
        if block.shape[0] > op.w_p.shape[0]:
            raise ValueError(
                f"segment length {block.shape[0]} exceeds kernel size {op.w_p.shape[0]}"
            )
        if block.shape[1] != op.w_p.shape[1]:
            raise ValueError(
                f"segment width {block.shape[1]} does not match pooling weights "
                f"width {op.w_p.shape[1]}"
            )
    return block


def _dynamic_weights(op: PoolingOp, block: np.ndarray) -> np.ndarray:
    length = block.shape[0]
    ctx = block[length // 2] if op.kind == "ldconv" else block.mean(axis=0)
    return softmax_row(op.w_p[:length] @ ctx)


def pool_segment(op: PoolingOp, block: np.ndarray) -> np.ndarray:
    """Compress a (len, d) block of rows into one d-vector."""
    block = _check_block(op, block)
    if op.kind == "mean":
        return block.mean(axis=0)
    if op.kind == "max":
        return block.max(axis=0)
    delta = _dynamic_weights(op, block)
    return delta @ block


def pool_segment_backward(
    op: PoolingOp, block: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Analytic gradients of ``pool_segment`` w.r.t. the block and the weights.

    Returns ``(grad_block, grad_w_p)`` with ``grad_w_p`` None for mean/max.
    Max routes the gradient to the first maximal row per column; the ldconv
    kinds differentiate through both the weighted sum and the softmax logits,
    including the logits' dependence on the center/mean row.
    """
    block = _check_block(op, block)
    upstream = np.asarray(upstream, dtype=np.float64)
    length, d = block.shape
    if upstream.shape != (d,):
        raise ValueError(f"upstream gradient must have shape ({d},), got {upstream.shape}")

    if op.kind == "mean":
        return np.tile(upstream / length, (length, 1)), None
    if op.kind == "max":
        grad = np.zeros_like(block)
        grad[np.argmax(block, axis=0), np.arange(d)] = upstream
        return grad, None

    wp = op.w_p[:length]
    ctx = block[length // 2] if op.kind == "ldconv" else block.mean(axis=0)
    delta = softmax_row(wp @ ctx)
    g_delta = block @ upstream
    g_logits = delta * (g_delta - delta @ g_delta)
    grad_wp = np.zeros_like(op.w_p)
    grad_wp[:length] = np.outer(g_logits, ctx)
    g_ctx = wp.T @ g_logits
    grad_block = np.outer(delta, upstream)
    if op.kind == "ldconv":
        grad_block[length // 2] += g_ctx
    else:
        grad_block += g_ctx / length
    return grad_block, grad_wp


def _segment_rows(grid: PooledGrid, j: int, pad_mask: np.ndarray | None) -> np.ndarray:
    start = int(grid.segment_starts[j])
    stop = start + int(grid.segment_lens[j])
    rows = np.arange(start, stop, dtype=np.int64)
    if pad_mask is None:
        return rows
    return rows[pad_mask[start:stop]]


def pool_grid(
    op: PoolingOp,
    source: np.ndarray,
    grid: PooledGrid,
    pad_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Pool every grid segment of an (n, d) source into an (n_seg, d) matrix.

    Padding rows are excluded before pooling; the grid must already have
    dropped segments that are entirely padding.  Without padding, the
    full-kernel prefix of the grid is pooled in one vectorized pass (segments
    stay independent, so results match per-segment pooling).
    """
    source = np.asarray(source, dtype=np.float64)
    if source.ndim != 2 or source.shape[0] != grid.n:
        raise ValueError(
            f"source must be ({grid.n}, d), got shape {source.shape}"
        )
    out = np.empty((len(grid), source.shape[1]))
    start = _pool_full_segments(op, source, grid, out) if pad_mask is None else 0
    for j in range(start, len(grid)):
        rows = _segment_rows(grid, j, pad_mask)
        if rows.size == 0:
            raise RuntimeError(
                f"segment {j} is entirely padding; the grid should have dropped it"
            )
        out[j] = pool_segment(op, source[rows])
    if not np.isfinite(out).all():
        raise ValueError(
            f"pool_grid: non-finite pooled output; {op.kind} pooling overflows float64"
        )
    return out


def _full_windows(source: np.ndarray, grid: PooledGrid) -> np.ndarray:
    """(n_full, d, kappa) view of the full-kernel segment prefix, window axis last.

    Segments of an unpadded grid are full until the tail, so the prefix is
    every segment whose length equals kappa; segment j's row r is source row
    j * xi + r.
    """
    n_full = int(np.searchsorted(-grid.segment_lens, -grid.kappa, side="right"))
    if n_full == 0:  # also when n < kappa, where no window view exists
        return np.empty((0, source.shape[1], grid.kappa))
    return sliding_window_view(source, grid.kappa, axis=0)[:: grid.xi][:n_full]


def _dynamic_weights_full(
    op: PoolingOp, source: np.ndarray, grid: PooledGrid, win: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Context rows (n_full, d) and softmax weights (n_full, kappa) of the full prefix."""
    if op.kind == "ldconv":
        ctx = source[grid.centers[: len(win)]]
    else:
        ctx = win.mean(axis=-1)
    delta = ctx @ op.w_p.T
    delta -= delta.max(axis=1, keepdims=True)
    np.exp(delta, out=delta)
    delta /= delta.sum(axis=1, keepdims=True)
    return ctx, delta


def _pool_full_segments(
    op: PoolingOp, source: np.ndarray, grid: PooledGrid, out: np.ndarray
) -> int:
    """Vectorized pooling of the full-kernel segment prefix; returns its length."""
    win = _full_windows(source, grid)
    n_full = len(win)
    if n_full == 0:
        return 0
    if op.kind == "mean":
        out[:n_full] = win.mean(axis=-1)
    elif op.kind == "max":
        out[:n_full] = win.max(axis=-1)
    else:
        _, delta = _dynamic_weights_full(op, source, grid, win)
        out[:n_full] = np.einsum("sk,sdk->sd", delta, win)
    return n_full


def _pool_full_segments_backward(
    op: PoolingOp,
    source: np.ndarray,
    grid: PooledGrid,
    upstream: np.ndarray,
    grad_source: np.ndarray,
    grad_wp: np.ndarray | None,
) -> int:
    """Vectorized backward of the full-kernel prefix, accumulated in place; returns its length.

    For one kernel offset r the segments' rows j * xi + r are distinct, so a
    single strided add per offset never collides, even when segments overlap
    (xi < kappa).  Offsets run from last to first so that every row sums its
    segments in ascending order, as the per-segment loop does.
    """
    win = _full_windows(source, grid)
    n_full = len(win)
    if n_full == 0:
        return 0
    kappa, xi = grid.kappa, grid.xi
    up = upstream[:n_full]
    if op.kind == "mean":
        share = up / kappa
        parts = [share] * kappa
    elif op.kind == "max":
        first_max = win.argmax(axis=-1)  # first maximal row per column
        parts = [np.where(first_max == r, up, 0.0) for r in range(kappa)]
    else:
        ctx, delta = _dynamic_weights_full(op, source, grid, win)
        g_delta = np.einsum("sdk,sd->sk", win, up)
        g_logits = delta * (g_delta - (delta * g_delta).sum(axis=1, keepdims=True))
        grad_wp += g_logits.T @ ctx
        g_ctx = g_logits @ op.w_p
        parts = [delta[:, r, None] * up for r in range(kappa)]
        if op.kind == "ldconv":
            parts[kappa // 2] += g_ctx
        else:
            g_ctx /= kappa
            for part in parts:
                part += g_ctx
    stop = xi * (n_full - 1) + 1
    for r in reversed(range(kappa)):
        grad_source[r : r + stop : xi] += parts[r]
    return n_full


def pool_grid_backward(
    op: PoolingOp,
    source: np.ndarray,
    grid: PooledGrid,
    pad_mask: np.ndarray | None,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients of ``pool_grid`` w.r.t. the source rows and the pooling weights.

    Overlapping segments (xi < kappa) accumulate into the same source rows.
    Without padding, the full-kernel prefix of the grid is reversed in one
    vectorized pass; the tail and padded grids go segment by segment.
    """
    source = np.asarray(source, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (len(grid), source.shape[1]):
        raise ValueError(
            f"upstream must be ({len(grid)}, {source.shape[1]}), got {upstream.shape}"
        )
    grad_source = np.zeros_like(source)
    grad_wp = np.zeros_like(op.w_p) if op.w_p is not None else None
    start = 0
    if pad_mask is None:
        start = _pool_full_segments_backward(op, source, grid, upstream, grad_source, grad_wp)
    for j in range(start, len(grid)):
        rows = _segment_rows(grid, j, pad_mask)
        if rows.size == 0:
            raise RuntimeError(
                f"segment {j} is entirely padding; the grid should have dropped it"
            )
        g_block, g_wp = pool_segment_backward(op, source[rows], upstream[j])
        grad_source[rows] += g_block
        if g_wp is not None:
            grad_wp += g_wp
    return grad_source, grad_wp
