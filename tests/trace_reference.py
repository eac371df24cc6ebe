"""What a layer trace's eight views and its blocks' biases stand for, built directly.

``trace_views`` reads a trace's views; ``fresh_stages`` builds the same
arrays, in the same order, from ``project_qkv``, ``build_pooled_grid`` and
``pool_grid``, for tests that compare the two bitwise.  ``plan`` lists the
blocks a level's passes run, and ``check_block_biases`` compares each
block's shared bias with one built from its own mask.
"""

from unittest import mock

import numpy as np

import poolattn.attention as attention
from poolattn.core import project_qkv
from poolattn.pooling import PoolingOp, pool_grid
from poolattn.windowing import build_pooled_grid


def trace_views(trace) -> tuple:
    first, second = trace.first, trace.second
    return (first.q, first.k, first.v, second.q2, second.k2, second.v2,
            second.pooled_k, second.pooled_v)


def fresh_stages(batch, params, cfg, y) -> tuple:
    """The first level's q, k, v and the second level's q2, k2, v2 and pooled grids.

    ``y`` is the first level's output, the second level's source unless
    ``cfg.mix``.
    """
    pad_arg = None if batch.pad_mask.all() else batch.pad_mask
    q2, k2, v2 = project_qkv(batch.embeddings if cfg.mix else y, params.second)
    grid = build_pooled_grid(batch.n, cfg.kappa, cfg.xi, pad_arg)
    pooled = [pool_grid(PoolingOp(cfg.pooling_kind, w), m, grid, pad_arg)
              for w, m in ((params.w_p_key, k2), (params.w_p_value, v2))]
    return (*project_qkv(batch.embeddings, params.first), q2, k2, v2, *pooled)


def plan(level) -> list:
    """The (rows, key columns) blocks each pass over a level trace's band runs."""
    return list(attention._blocks(level.band, level.config.w1))


def check_block_biases(band, blocks) -> int:
    """Run ``blocks`` of ``band`` through one ``_block_bias`` memo, as a pass does.

    Returns the memo's misses.
    Every bias and count must equal ``np.where(mask, 0, -inf)`` and
    ``mask.sum(1)`` of the block's own ``_block_mask``.  Then each block goes
    through the memo again, followed by the same rows over one column fewer,
    which a memo keyed without the width would answer with the wider bias.
    """
    block_mask = attention._block_mask

    def check(rows, cols, memo):
        bias, counts = attention._block_bias(band, rows, cols, memo)
        mask = block_mask(band, rows, cols)
        np.testing.assert_array_equal(bias, np.where(mask, 0.0, -np.inf))
        np.testing.assert_array_equal(counts, mask.sum(axis=1))

    memo: dict = {}
    with mock.patch.object(attention, "_block_mask", wraps=block_mask) as built:
        for rows, cols in blocks:
            check(rows, cols, memo)
    for rows, cols in blocks:
        keys = np.arange(cols.start, cols.stop) if isinstance(cols, slice) else cols
        check(rows, cols, memo)
        if keys.size > 1:
            check(rows, keys[:-1], memo)
    return built.call_count
