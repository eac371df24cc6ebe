"""Differential fuzzing of the whole layer against the oracles.

One hypothesis test draws the layer's shape (n, w1, w2, kappa, xi), its
pooling kind, the mix and sharing settings, a padding pattern, the global
tokens and the row-block partition, and compares the fast path with the
masked-dense first-level oracle, a token-by-token second level on the shared
grid (the literal-pooling oracle where the window covers the sequence) and
the per-token count model, and checks every kept block's shared mask bias
against its own mask.  Small cases also run a finite-difference
gradcheck on the padded batch and read the views of a ``retain=False``
trace.  The examples are fixed (tests/conftest.py) and bounded in number.
"""

from typing import NamedTuple
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

import poolattn.attention as attention
from poolattn.attention import layer_backward, layer_forward
from poolattn.core import POOLING_KINDS, LayerConfig, SequenceBatch, project_qkv, softmax_row
from poolattn.costmodel import cost_two_level, instrumented_report, verify_counts
from poolattn.harness import (
    GRADCHECK_THRESHOLD,
    _named_arrays,
    central_difference,
    init_params,
    max_rel_error,
    relative_diff,
    symmetric_uniform,
)
from poolattn.oracle import literal_pooling_attention, mask_from_config, per_head_dense
from poolattn.pooling import PoolingOp, pool_segment
from poolattn.windowing import build_pooled_grid
from trace_reference import check_block_biases, fresh_stages, plan, trace_views

D, TOLERANCE = 4, 1e-12
GRADCHECK_MAX_N = 12  # finite differences cost two forwards per entry


class Case(NamedTuple):
    n: int
    w1: int
    w2: int
    kappa: int
    xi: int
    kind: str
    mix: bool
    share: bool
    heads: int
    pad: tuple[bool, ...]
    globals_: tuple[int, ...]
    block: int  # rows per block, patched into attention.block_rows
    seed: int

    def config(self) -> LayerConfig:
        return LayerConfig(
            d_model=D, n_heads=self.heads, w1=self.w1, w2=self.w2, kappa=self.kappa,
            xi=self.xi, pooling_kind=self.kind, share_projections=self.share,
            second_level_input="raw_embeddings" if self.mix else "first_level_output",
        )


@st.composite
def cases(draw) -> Case:
    n = draw(st.integers(1, 40))
    kappa = draw(st.integers(1, 6))
    xi = draw(st.integers(1, kappa))
    w1 = draw(st.integers(0, 8))
    w2 = draw(st.integers(w1, w1 + 2 * kappa + n))
    pad = draw(st.one_of(
        st.just((True,) * n),
        st.lists(st.booleans(), min_size=n, max_size=n).map(tuple),
    ))
    real = [i for i in range(n) if pad[i]]
    globals_ = ()
    if real:
        globals_ = draw(st.one_of(
            st.integers(0, min(3, len(real))).map(lambda g: tuple(real[:g])),
            st.sets(st.sampled_from(real), max_size=3).map(lambda s: tuple(sorted(s))),
        ))
    return Case(
        n, w1, w2, kappa, xi, draw(st.sampled_from(POOLING_KINDS)), draw(st.booleans()),
        draw(st.booleans()), draw(st.sampled_from([1, 2])), pad, globals_,
        draw(st.integers(1, n)), draw(st.integers(0, 2**16)),
    )


def _batch(case: Case) -> SequenceBatch:
    emb = symmetric_uniform(case.seed, case.n * D).reshape(case.n, D)
    return SequenceBatch(emb, np.array(case.pad, dtype=bool), case.globals_)


def _first_reference(batch, params, cfg):
    """First level by the masked-dense oracle over the real tokens; (y, counts)."""
    mask = mask_from_config(batch.n, cfg.w1, batch.global_set, batch.pad_mask)
    real = batch.pad_mask
    y = np.zeros((batch.n, D))
    if real.any():
        q, k, v = (m[real] for m in project_qkv(batch.embeddings, params.first))
        y[real] = per_head_dense(q, k, v, mask[real][:, real], cfg)
    return y, mask.sum(axis=1)


def _second_reference(batch, y, params, cfg):
    """Second level token by token on the shared grid, by oracle parts; (z, counts).

    Each segment pools its real rows with ``pool_segment``; each real token
    attends to the segments whose center is within w2 of it.
    """
    n, pad = batch.n, batch.pad_mask
    q2, k2, v2 = project_qkv(batch.embeddings if cfg.mix else y, params.second)
    grid = build_pooled_grid(n, cfg.kappa, cfg.xi, pad)
    rows = [np.arange(s, s + ln)[pad[s:s + ln]] for s, ln in zip(grid.segment_starts,
                                                                  grid.segment_lens)]
    pooled_k, pooled_v = (
        np.array([pool_segment(PoolingOp(cfg.pooling_kind, w), m[r]) for r in rows])
        for w, m in ((params.w_p_key, k2), (params.w_p_value, v2))
    )
    z, counts, dh = np.zeros((n, D)), np.zeros(n, dtype=np.int64), cfg.head_dim
    for i in np.flatnonzero(pad):
        seen = np.flatnonzero(np.abs(grid.centers - i) <= cfg.w2)
        counts[i] = seen.size
        for h in range(cfg.n_heads) if seen.size else ():
            cols = slice(h * dh, (h + 1) * dh)
            probs = softmax_row(cfg.alpha() * (pooled_k[seen, cols] @ q2[i, cols]))
            z[i, cols] = probs @ pooled_v[seen, cols]
    return z, counts


def _gradcheck(batch, params, cfg, trace) -> None:
    upstream = symmetric_uniform(7, batch.n * D).reshape(batch.n, D)
    grads = _named_arrays(layer_backward(trace, upstream))

    # central_difference perturbs each entry in place and restores it exactly
    def loss(_) -> float:
        return float(np.sum(upstream * layer_forward(batch, params, cfg)[0]))

    for name, target in (_named_arrays(params) | {"embeddings": batch.embeddings}).items():
        err = max_rel_error(grads[name], central_difference(loss, target))
        assert err <= GRADCHECK_THRESHOLD, f"{name}: {err:.2e}"


def _check_views(batch, params, cfg, y) -> None:
    """A ``retain=False`` trace's views are bitwise the stages they stand for."""
    _, trace = layer_forward(batch, params, cfg, retain=False)
    for got, want in zip(trace_views(trace), fresh_stages(batch, params, cfg, y)):
        np.testing.assert_array_equal(got, want)


EDGES = [
    # n=1
    Case(1, 0, 0, 1, 1, "mean", False, False, 1, (True,), (), 1, 1),
    # w1=0, n < kappa, globals at both ends
    Case(5, 0, 2, 6, 3, "ldconv", False, False, 2, (True,) * 5, (0, 4), 2, 2),
    # w2 < kappa: tokens between sparse centers see no segment (degenerate rows)
    Case(24, 1, 1, 6, 6, "mean_ldconv", True, False, 2, (True,) * 24, (0, 1), 5, 3),
    # all-padding segments, globals at both ends of the real tokens
    Case(16, 2, 5, 3, 3, "max", False, True, 2,
         (True, True, False, False, False, False, False, True,
          True, False, False, False, True, True, False, False), (0, 13), 3, 4),
    # padded ldconv, padding inside segments and a partial tail
    Case(11, 1, 4, 4, 2, "ldconv", True, True, 1,
         (True, False, True, True, False, False, True, False, True, True, False), (2,), 4, 5),
    # padded mean: short segments inside and at the end
    Case(12, 1, 3, 3, 2, "mean", True, False, 2,
         (True, True, False, True, True, True, False, True, True, True, True, False), (), 5, 6),
]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example(EDGES[0])
@example(EDGES[1])
@example(EDGES[2])
@example(EDGES[3])
@example(EDGES[4])
@example(EDGES[5])
def test_layer_matches_oracles(case):
    cfg, batch = case.config(), _batch(case)
    params = init_params(cfg, case.seed + 1)
    with mock.patch.object(attention, "block_rows", lambda n, w1: min(n, case.block)):
        out, trace = layer_forward(batch, params, cfg)

        y_ref, first_counts = _first_reference(batch, params, cfg)
        assert relative_diff(trace.y, y_ref) <= TOLERANCE
        np.testing.assert_array_equal(trace.first_counts, first_counts)

        z_ref, second_counts = _second_reference(batch, trace.y, params, cfg)
        assert relative_diff(trace.z, z_ref) <= TOLERANCE
        np.testing.assert_array_equal(trace.second_counts, second_counts)
        degenerate = batch.pad_mask & (second_counts == 0)
        np.testing.assert_array_equal(trace.degenerate_second, degenerate)
        np.testing.assert_array_equal(out, trace.y + trace.z)
        for level in (trace.first, trace.second):
            check_block_biases(level.band, plan(level))
        if case.w2 >= case.n - 1:
            z_lit = literal_pooling_attention(batch, trace.y, params, cfg)
            assert relative_diff(trace.z, z_lit) <= TOLERANCE

        g = len(case.globals_)
        # the count model's layout: no padding, globals at 0..g-1
        if batch.pad_mask.all() and case.globals_ == tuple(range(g)):
            model = cost_two_level(case.n, case.w1, case.w2, case.kappa, case.xi, g)
            measured = instrumented_report(
                "two_level", case.n, trace.first_counts, trace.second_counts, w1=case.w1,
                w2=case.w2, kappa=case.kappa, xi=case.xi, n_global=g,
            )
            assert verify_counts(model, measured).ok

        if case.n <= GRADCHECK_MAX_N:
            _gradcheck(batch, params, cfg, trace)
        _check_views(batch, params, cfg, trace.y)
