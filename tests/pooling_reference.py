"""The analytic backward of one segment's pooling, the per-segment reference.

``pool_segment_backward`` differentiates ``pooling.pool_segment`` one block
at a time, for tests to check ``pool_grid_backward``, the layer's pooling
gradients and the gradient check against.
"""

from __future__ import annotations

import numpy as np

from poolattn.pooling import PoolingOp, _check_block, _dynamic_weights


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
