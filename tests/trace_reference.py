"""What a layer trace's eight views and its blocks' biases stand for, built directly.

``fresh_stages`` builds the arrays a trace's views stand for, in view order,
from ``project_qkv``, ``build_pooled_grid`` and ``pool_grid``, and
``check_views`` compares the two bitwise.  ``plan`` lists the blocks a
level's passes run, and ``check_block_biases`` compares each
block's bias and counts with ones built from its own mask.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import poolattn.attention as attention
from poolattn.core import project_qkv
from poolattn.pooling import PoolingOp, pool_grid
from poolattn.windowing import build_pooled_grid


def check_views(trace, fresh) -> None:
    """A trace's views are bitwise ``fresh`` (``fresh_stages``) and read-only.

    The second-level views of a non-mix ``layer_forward(retain=False)`` trace,
    whose source y became the output, raise a ValueError naming ``retain=False``.
    """
    first, second = trace.first, trace.second
    views = [first.q, first.k, first.v]
    if second.source is None:
        for name in ("q2", "k2", "v2", "pooled_k", "pooled_v"):
            with pytest.raises(ValueError, match="retain=False"):
                getattr(second, name)
        with pytest.raises(ValueError, match="retain=False"):
            second.attention_rows()
    else:
        views += [second.q2, second.k2, second.v2, second.pooled_k, second.pooled_v]
    for got, want in zip(views, fresh):
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable


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
    """The (rows, key columns, bias, counts, floor) blocks each pass over a level trace's band
    runs."""
    return list(attention._blocks(level.band, level.config.w1))


def check_block_biases(level) -> int:
    """Check every bias and count a pass over ``level``'s band is handed.

    Returns the masks the pass built.  A slice's bias and counts must equal
    ``np.where(mask, 0, -inf)`` and ``mask.sum(1)`` of its own
    ``_block_mask`` over the band with the extra rows hidden, shared or not;
    the extra rows' block must see exactly the valid keys.
    """
    band, block_mask = level.band, attention._block_mask
    with mock.patch.object(attention, "_block_mask", wraps=block_mask) as built:
        blocks = plan(level)
    # the banded blocks see no extra row: those rows' results come from their own block
    banded = band if band.extra is None else replace(band, row_ok=band.row_ok & ~band.extra)
    for rows, cols, bias, counts, _ in blocks:
        if isinstance(rows, slice):
            mask = block_mask(banded, rows, cols)
        else:  # the extra rows: every key, visible where valid
            assert cols == slice(0, band.key_ok.size)
            mask = np.broadcast_to(band.key_ok, (rows.size, band.key_ok.size))
        np.testing.assert_array_equal(np.broadcast_to(bias, mask.shape),
                                      np.where(mask, 0.0, -np.inf))
        np.testing.assert_array_equal(np.broadcast_to(counts, len(mask)), mask.sum(axis=1))
    return built.call_count
