"""What a layer trace's eight views stand for, built from the stages directly.

``trace_views`` reads a trace's views; ``fresh_stages`` builds the same
arrays, in the same order, from ``project_qkv``, ``build_pooled_grid`` and
``pool_grid``, for tests that compare the two bitwise.
"""

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
