"""Pooling operators that compress a segment of rows into one vector.

Four kinds: column-wise mean, column-wise max, and two dynamic-weight kinds
(ldconv, mean_ldconv) whose weights are a softmax of a linear map of a context
row — the segment's center row for ldconv, the segment mean for mean_ldconv.
Partial segments run the softmax over the first ``len`` logits only, so the
weights stay a distribution over real rows.

``pool_segment*`` pool one block (the reference for oracle and tests);
``pool_grid*`` pool a whole stride grid, padding and partial tail included, by
batched matmuls over strided windows forward and one strided add per offset back.
``pool_grid_rows`` pools the segments that start in a range of rows, from those
rows alone, with the same code and the same bits as ``pool_grid``, and
``pool_grid_rows_backward`` reverses it with ``pool_grid_backward``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from poolattn.core import LDCONV_KINDS, POOLING_KINDS, product, softmax_row
from poolattn.windowing import PooledGrid, build_pooled_grid


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


def _dynamic_weights(op: PoolingOp, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Context row and softmax weights of a block under an ldconv kind."""
    length = block.shape[0]
    ctx = block[length // 2] if op.kind == "ldconv" else block.mean(axis=0)
    return ctx, softmax_row(op.w_p[:length] @ ctx)


def pool_segment(op: PoolingOp, block: np.ndarray) -> np.ndarray:
    """Compress a (len, d) block of rows into one d-vector."""
    block = _check_block(op, block)
    if op.kind == "mean":
        return block.mean(axis=0)
    if op.kind == "max":
        return block.max(axis=0)
    return _dynamic_weights(op, block)[1] @ block


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

    ctx, delta = _dynamic_weights(op, block)
    g_delta = block @ upstream
    g_logits = delta * (g_delta - delta @ g_delta)
    grad_wp = np.zeros_like(op.w_p)
    grad_wp[:length] = np.outer(g_logits, ctx)
    g_ctx = op.w_p[:length].T @ g_logits
    grad_block = np.outer(delta, upstream)
    if op.kind == "ldconv":
        grad_block[length // 2] += g_ctx
    else:
        grad_block += g_ctx / length
    return grad_block, grad_wp


def _layout(grid: PooledGrid, source, pad_mask) -> tuple[np.ndarray, ...]:
    """``(source, valid, lens, kept)`` over the undropped grid, a segment per stride step.

    ``valid[r, j]``: row ``j * xi + r`` exists and is not padding.  ``lens``: valid
    rows per segment, at least 1.  ``kept``: the grid's segments, None if all kept.
    """
    n, kappa, xi = grid.n, grid.kappa, grid.xi
    source = np.asarray(source, dtype=np.float64)
    if source.ndim != 2 or source.shape[0] != n:
        raise ValueError(f"source must be ({n}, d), got shape {source.shape}")
    rows = np.arange(kappa)[:, None] + np.arange(-(-n // xi)) * xi
    valid = rows < n
    if pad_mask is not None:
        pad = np.asarray(pad_mask, dtype=bool)
        if pad.shape != (n,):
            raise ValueError(f"pad_mask has shape {pad.shape}, but the grid covers {n} rows")
        valid &= pad[np.minimum(rows, n - 1)]
    lens = valid.sum(axis=0)
    kept = grid.segment_starts // xi
    if not lens[kept].all():
        j = np.argmin(lens[kept])  # the first segment without a real row
        raise RuntimeError(f"segment {j} is entirely padding; the grid should have dropped it")
    return source, valid, np.maximum(lens, 1), None if len(kept) == len(lens) else kept


def _windows(source: np.ndarray, kappa: int, xi: int):
    """Yield ``(segments, windows)``, (k, d, kappa) strided views of the undropped grid."""
    (n, d), count = source.shape, -(-source.shape[0] // xi)
    n_full = max(0, (n - kappa) // xi + 1)
    # the few segments that run past the end view a zero-extended copy of their rows
    tail = np.zeros(((count - n_full - 1) * xi + kappa, d))
    tail[: n - n_full * xi] = source[n_full * xi :]
    for seg, rows in ((slice(0, n_full), source), (slice(n_full, count), tail)):
        if seg.stop > seg.start:
            yield seg, sliding_window_view(rows, kappa, axis=0)[::xi]


def _weighted_sum(source: np.ndarray, weights: np.ndarray, xi: int) -> np.ndarray:
    """(count, d) sums over the undropped segments, row r of segment j scaled by weights[r, j]."""
    out = np.empty((weights.shape[1], source.shape[1]))
    for seg, win in _windows(source, len(weights), xi):
        np.matmul(weights.T[seg, None, :], np.moveaxis(win, -1, 1), out=out[seg, None, :])
    return out


def _max_rows(source: np.ndarray, valid: np.ndarray, xi: int) -> tuple[np.ndarray, np.ndarray]:
    """Column maxima over each segment's valid rows, and the offset of the first maximal row."""
    best = np.full((valid.shape[1], source.shape[1]), -np.inf)
    first = np.zeros(best.shape, dtype=np.intp)
    for r in range(min(len(valid), len(source))):
        rows = source[r::xi]  # offset r of every segment
        cand = np.where(valid[r, : len(rows), None], rows, -np.inf)
        better = cand > best[: len(rows)]
        np.copyto(best[: len(rows)], cand, where=better)
        np.copyto(first[: len(rows)], r, where=better)
    return best, first


def _softmax_weights(op: PoolingOp, source, valid, lens, xi: int) -> tuple[np.ndarray, ...]:
    """``(ctx, center, rank, delta)`` of the ldconv kinds over the undropped grid.

    A valid row's rank among its segment's valid rows selects its ``w_p`` row.  The
    context is the valid row of rank ``len // 2`` (offset ``center``) for ldconv,
    the valid rows' mean for mean_ldconv.  ``delta[r, j]`` is 0 at invalid offsets.
    """
    kappa_d = len(valid), source.shape[1]
    if op.w_p.shape != kappa_d:
        raise ValueError(f"pooling weights must be (kappa, d) = {kappa_d}, got {op.w_p.shape}")
    rank = np.cumsum(valid, axis=0) - 1
    center = None
    if op.kind == "ldconv":
        center = (valid & (rank == lens // 2)).argmax(axis=0)
        ctx = source[np.arange(len(lens)) * xi + center]
    else:
        ctx = _weighted_sum(source, valid * 1.0, xi) / lens[:, None]
    # by ``product``, so pool_grid_rows' short ranges get a whole grid's bits
    logits = product(ctx, op.w_p).T
    # an invalid offset gathers the logit of the last valid row before it (or
    # of rank 0), so each segment's maximum is the maximum over its valid logits
    logits = logits[np.maximum(rank, 0), np.arange(len(lens))]
    delta = np.exp(logits - logits.max(axis=0)) * valid
    # a kept segment's sum is >= 1 (its maximal term is 1); a dropped one's is 0
    delta /= np.maximum(delta.sum(axis=0), 1.0)
    return ctx, center, rank, delta


def pool_grid(
    op: PoolingOp,
    source: np.ndarray,
    grid: PooledGrid,
    pad_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Pool every grid segment of an (n, d) source into an (n_seg, d) matrix.

    Padding rows (``pad_mask`` False) take weight 0, so they must be finite; the grid
    must already have dropped all-padding segments.  Matches ``pool_segment`` calls.
    """
    return check_pooled(op, _pool(op, source, grid, pad_mask))


def pool_grid_rows(
    op: PoolingOp,
    rows: np.ndarray,
    grid: PooledGrid,
    pad_mask: np.ndarray | None,
    start: int,
    stop: int,
) -> np.ndarray:
    """The pooled segments of ``grid`` that start in source rows ``start`` to ``stop``.

    ``rows`` are the source rows ``start`` to ``min(n, stop + kappa - xi)``, every
    row those segments read; ``start`` is a multiple of the stride, and so is
    ``stop`` unless it is n.  The rows are pooled as a sequence of their own,
    whose leading segments are these, so each comes out bitwise as in
    ``pool_grid`` over the whole source.  Not checked for finiteness: check the
    grid they fill with ``check_pooled``.
    """
    own, pad, count = _rows_grid(grid, pad_mask, start, stop, len(rows))
    return _pool(op, rows, own, pad)[:count]


def pool_grid_rows_backward(
    op: PoolingOp,
    rows: np.ndarray,
    grid: PooledGrid,
    pad_mask: np.ndarray | None,
    start: int,
    stop: int,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients of ``pool_grid_rows`` w.r.t. ``rows`` and the pooling weights.

    ``upstream`` holds the gradients of the segments that start in rows ``start``
    to ``stop``.  The rows past ``stop`` (the kappa - xi halo) get only these
    segments' part of their gradient; the segments that start there add the
    rest.
    """
    own, pad, count = _rows_grid(grid, pad_mask, start, stop, len(rows))
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (count, rows.shape[1]):
        raise ValueError(f"upstream must be ({count}, {rows.shape[1]}), got {upstream.shape}")
    up = np.zeros((len(own), rows.shape[1]))  # the own grid's later segments get none
    up[:count] = upstream
    return pool_grid_backward(op, rows, own, pad, up)


def _rows_grid(
    grid: PooledGrid, pad_mask: np.ndarray | None, start: int, stop: int, length: int
) -> tuple[PooledGrid, np.ndarray | None, int]:
    """The grid of ``length`` rows from ``start`` pooled as a sequence of their own,
    their pad mask, and how many of its leading segments start before ``stop``."""
    n, kappa, xi = grid.n, grid.kappa, grid.xi
    if not 0 <= start < stop <= n or start % xi or (stop % xi and stop != n):
        raise ValueError(f"rows {start} to {stop} do not start and end on the stride-{xi} grid")
    if length != min(n, stop + kappa - xi) - start:
        raise ValueError(
            f"segments starting in rows {start} to {stop} read rows {start} to "
            f"{min(n, stop + kappa - xi)}, got {length} rows"
        )
    pad = None if pad_mask is None else np.asarray(pad_mask, dtype=bool)[start:start + length]
    first, last = np.searchsorted(grid.segment_starts, (start, stop))
    return build_pooled_grid(length, kappa, xi, pad), pad, int(last - first)


def check_pooled(op: PoolingOp, out: np.ndarray, first: int = 0) -> np.ndarray:
    """``out``, pooled segments ``first`` onward of a grid, if every entry is finite; else
    the overflow error, which names the segment's index in the whole grid."""
    if not np.isfinite(out).all():
        segment = first + np.argwhere(~np.isfinite(out))[0, 0]
        raise ValueError(
            f"pool_grid: non-finite pooled output; {op.kind} pooling overflows float64, "
            f"first at segment {segment}"
        )
    return out


def _pool(op: PoolingOp, source, grid: PooledGrid, pad_mask) -> np.ndarray:
    source, valid, lens, kept = _layout(grid, source, pad_mask)
    if op.kind == "max":
        out = _max_rows(source, valid, grid.xi)[0]
    elif op.kind == "mean":
        out = _weighted_sum(source, valid * 1.0, grid.xi)
        out /= lens[:, None]
    else:
        delta = _softmax_weights(op, source, valid, lens, grid.xi)[-1]
        out = _weighted_sum(source, delta, grid.xi)
    return out if kept is None else out[kept]


def pool_grid_backward(
    op: PoolingOp,
    source: np.ndarray,
    grid: PooledGrid,
    pad_mask: np.ndarray | None,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients of ``pool_grid`` w.r.t. the source rows and the pooling weights.

    Kernel offset r adds its part with one strided add into ``grad[r::xi]``,
    which never collides, even when segments overlap (xi < kappa); offsets run
    last to first, so every row sums its segments in ascending order.
    """
    source, valid, lens, kept = _layout(grid, source, pad_mask)
    xi, d = grid.xi, source.shape[1]
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (len(grid), d):
        raise ValueError(f"upstream must be ({len(grid)}, {d}), got {upstream.shape}")
    up = upstream
    if kept is not None:  # scatter onto the undropped grid
        up = np.zeros((len(lens), d))
        up[kept] = upstream
    grad_wp = delta = share = center = None
    if op.kind == "max":
        first = _max_rows(source, valid, xi)[1]
    elif op.kind == "mean":
        share = up / lens[:, None]
    else:
        ctx, center, rank, delta = _softmax_weights(op, source, valid, lens, xi)
        g_delta = np.empty(delta.shape[::-1])  # segment-major: einsum writes it faster
        for seg, win in _windows(source, grid.kappa, xi):
            np.einsum("sdk,sd->sk", win, up[seg], out=g_delta[seg])
        g_delta = g_delta.T
        g_logits = delta * (g_delta - (delta * g_delta).sum(axis=0))
        by_rank = np.zeros_like(g_logits)  # logit gradients indexed by w_p row
        by_rank[rank[valid], np.nonzero(valid)[1]] = g_logits[valid]
        grad_wp = by_rank @ ctx
        del ctx  # read only by the weight gradient
        g_ctx = by_rank.T @ op.w_p
        if op.kind == "mean_ldconv":  # the mean's share, formed in place
            share = np.divide(g_ctx, lens[:, None], out=g_ctx)
    # row r of segment j: delta[r, j] * up[j] plus its share of the mean (mean)
    # or of the context (ldconv kinds); padding rows are zeroed at the end
    grad_source, buf = np.zeros_like(source), np.empty_like(up)
    for r in reversed(range(min(grid.kappa, grid.n))):
        grad_rows = grad_source[r::xi]
        m = len(grad_rows)
        if op.kind == "max":
            grad_rows += np.where(first[:m] == r, up[:m], 0.0)
        if delta is not None:
            part = np.multiply(delta[r, :m, None], up[:m], out=buf[:m])
            if center is not None:  # the ldconv context rows at offset r
                np.add(part, g_ctx[:m], out=part, where=center[:m, None] == r)
            grad_rows += part
        if share is not None:
            grad_rows += share[:m]
    if pad_mask is not None:
        grad_source[~np.asarray(pad_mask, dtype=bool)] = 0.0
    return grad_source, grad_wp
