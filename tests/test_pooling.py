import gc
import math
import tracemalloc

import numpy as np
import pytest

from poolattn.harness import central_difference, max_rel_error
from poolattn.pooling import (
    PoolingOp,
    pool_grid,
    pool_grid_backward,
    pool_grid_rows,
    pool_grid_rows_backward,
    pool_segment,
)
from poolattn.windowing import build_pooled_grid
from pooling_reference import pool_segment_backward

ALL_KINDS = ("mean", "max", "ldconv", "mean_ldconv")


def make_op(kind, kappa, d, rng):
    if kind in ("ldconv", "mean_ldconv"):
        return PoolingOp(kind, rng.uniform(-1, 1, size=(kappa, d)))
    return PoolingOp(kind)


def scalar_dynamic_pool(kind, wp, block):
    """Independent scalar-loop evaluation of the dynamic-weight pooling."""
    length, d = block.shape
    if kind == "ldconv":
        ctx = block[math.ceil((1 + length) / 2) - 1]
    else:
        ctx = [sum(block[i][c] for i in range(length)) / length for c in range(d)]
    logits = [sum(wp[i][c] * ctx[c] for c in range(d)) for i in range(length)]
    m = max(logits)
    exps = [math.exp(t - m) for t in logits]
    total = sum(exps)
    delta = [e / total for e in exps]
    return np.array(
        [sum(delta[i] * block[i][c] for i in range(length)) for c in range(d)]
    )


class TestPoolingOp:
    def test_weight_presence_rules(self):
        with pytest.raises(ValueError):
            PoolingOp("ldconv")
        with pytest.raises(ValueError):
            PoolingOp("mean", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            PoolingOp("median")


class TestPoolSegment:
    def test_mean(self):
        out = pool_segment(PoolingOp("mean"), np.array([[1.0, 3.0], [5.0, 7.0]]))
        np.testing.assert_array_equal(out, [3.0, 5.0])

    def test_max(self):
        out = pool_segment(PoolingOp("max"), np.array([[1.0, 3.0], [5.0, 2.0]]))
        np.testing.assert_array_equal(out, [5.0, 3.0])

    def test_zero_weights_equal_mean(self):
        rng = np.random.default_rng(3)
        block = rng.standard_normal((3, 4))
        for kind in ("ldconv", "mean_ldconv"):
            op = PoolingOp(kind, np.zeros((3, 4)))
            np.testing.assert_allclose(
                pool_segment(op, block), block.mean(axis=0), rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("kind", ["ldconv", "mean_ldconv"])
    def test_matches_scalar_loop(self, kind):
        rng = np.random.default_rng(11)
        kappa, d = 3, 2
        wp = rng.uniform(-1, 1, size=(kappa, d))
        op = PoolingOp(kind, wp)
        for length in (1, 2, 3):
            block = rng.standard_normal((length, d))
            expected = scalar_dynamic_pool(kind, wp, block)
            np.testing.assert_allclose(pool_segment(op, block), expected, rtol=1e-13)

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            pool_segment(PoolingOp("mean"), np.zeros((0, 3)))

    def test_block_longer_than_kernel_rejected(self):
        op = PoolingOp("ldconv", np.zeros((2, 3)))
        with pytest.raises(ValueError):
            pool_segment(op, np.zeros((3, 3)))

    def test_width_mismatch_rejected(self):
        op = PoolingOp("ldconv", np.zeros((2, 3)))
        with pytest.raises(ValueError):
            pool_segment(op, np.zeros((2, 4)))


class TestOperatorProperties:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("kappa", [1, 2, 3, 5])
    def test_constant_input_fixpoint(self, kind, kappa):
        rng = np.random.default_rng(kappa)
        d = 4
        op = make_op(kind, kappa, d, rng)
        row = rng.standard_normal(d)
        for length in range(1, kappa + 1):
            block = np.tile(row, (length, 1))
            np.testing.assert_allclose(pool_segment(op, block), row, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", ["ldconv", "mean_ldconv"])
    @pytest.mark.parametrize("kappa", [1, 2, 3, 5])
    def test_dynamic_weights_on_simplex(self, kind, kappa):
        # probed through the constant-column trick: pooling a block whose
        # last column is 1 returns the weight total in that column
        rng = np.random.default_rng(7 * kappa)
        d = 5
        op = make_op(kind, kappa, d, rng)
        for length in range(1, kappa + 1):
            block = rng.standard_normal((length, d))
            block[:, -1] = 1.0
            out = pool_segment(op, block)
            assert abs(out[-1] - 1.0) <= 1e-12

    def test_mean_max_permutation_invariant_ldconv_not(self):
        rng = np.random.default_rng(19)
        block = rng.standard_normal((5, 3))
        # permutation that fixes the center row (index 2) but moves others
        perm = np.array([4, 3, 2, 1, 0])
        permuted = block[perm]
        for kind in ("mean", "max"):
            op = PoolingOp(kind)
            np.testing.assert_allclose(
                pool_segment(op, block), pool_segment(op, permuted), rtol=0, atol=1e-15
            )
        op = PoolingOp("ldconv", rng.uniform(-1, 1, size=(5, 3)))
        assert not np.allclose(pool_segment(op, block), pool_segment(op, permuted))


class TestPoolGrid:
    def test_disjoint_pairs(self):
        rows = np.arange(16.0).reshape(8, 2)
        grid = build_pooled_grid(8, 2, 2)
        out = pool_grid(PoolingOp("mean"), rows, grid)
        np.testing.assert_array_equal(out, (rows[::2] + rows[1::2]) / 2)

    def test_identity_grid(self):
        rng = np.random.default_rng(2)
        src = rng.standard_normal((7, 3))
        grid = build_pooled_grid(7, 1, 1)
        for kind in ALL_KINDS:
            op = make_op(kind, 1, 3, rng)
            np.testing.assert_array_equal(pool_grid(op, src, grid), src)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_per_segment_calls(self, kind):
        rng = np.random.default_rng(4)
        src = rng.standard_normal((9, 3))
        grid = build_pooled_grid(9, 5, 4)
        op = make_op(kind, 5, 3, rng)
        out = pool_grid(op, src, grid)
        assert out.shape == (3, 3)
        for j in range(3):
            s = int(grid.segment_starts[j])
            block = src[s:s + int(grid.segment_lens[j])]
            np.testing.assert_allclose(out[j], pool_segment(op, block), rtol=1e-14)

    def test_padding_rows_excluded(self):
        src = np.arange(12.0).reshape(6, 2)
        pad = np.array([True, False, True, True, True, True])
        grid = build_pooled_grid(6, 3, 3, pad)
        out = pool_grid(PoolingOp("mean"), src, grid, pad)
        np.testing.assert_array_equal(out[0], (src[0] + src[2]) / 2)

    def test_all_padding_segment_is_internal_error(self):
        src = np.zeros((4, 2))
        pad = np.array([True, True, False, False])
        stale_grid = build_pooled_grid(4, 2, 2)  # built without the mask
        with pytest.raises(RuntimeError, match="entirely padding"):
            pool_grid(PoolingOp("mean"), src, stale_grid, pad)

    def test_compression_ratio(self):
        for n, xi in ((64, 4), (100, 8), (37, 2)):
            grid = build_pooled_grid(n, xi + 1, xi)
            ratio = n / len(grid)
            assert xi * (1 - xi / n) <= ratio <= xi


class TestPoolSegmentBackward:
    def test_mean_spreads_uniformly(self):
        up = np.array([2.0, -4.0])
        grad, gwp = pool_segment_backward(PoolingOp("mean"), np.ones((4, 2)), up)
        np.testing.assert_array_equal(grad, np.tile(up / 4, (4, 1)))
        assert gwp is None

    def test_max_routes_to_first_argmax(self):
        block = np.array([[1.0, 5.0], [3.0, 5.0], [3.0, 2.0]])
        up = np.array([1.0, 1.0])
        grad, _ = pool_segment_backward(PoolingOp("max"), block, up)
        expected = np.zeros((3, 2))
        expected[1, 0] = 1.0  # first maximal row per column
        expected[0, 1] = 1.0
        np.testing.assert_array_equal(grad, expected)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_matches_finite_differences(self, kind, length):
        rng = np.random.default_rng(100 + length)
        kappa, d = 3, 2
        op = make_op(kind, kappa, d, rng)
        block = rng.standard_normal((length, d))
        up = rng.standard_normal(d)
        grad_block, grad_wp = pool_segment_backward(op, block, up)

        fd_block = central_difference(lambda b: float(pool_segment(op, b) @ up), block)
        assert max_rel_error(grad_block, fd_block) <= 1e-6

        if op.w_p is not None:
            wp = op.w_p.copy()

            def loss(w):
                return float(pool_segment(PoolingOp(kind, w), block) @ up)

            fd_wp = central_difference(loss, wp)
            assert max_rel_error(grad_wp, fd_wp) <= 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pool_segment_backward(PoolingOp("mean"), np.ones((2, 3)), np.ones(2))


class TestPoolGridBackward:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_finite_differences_with_overlap(self, kind):
        rng = np.random.default_rng(8)
        n, d, kappa, xi = 7, 2, 3, 2  # xi < kappa: segments overlap
        src = rng.standard_normal((n, d))
        op = make_op(kind, kappa, d, rng)
        grid = build_pooled_grid(n, kappa, xi)
        up = rng.standard_normal((len(grid), d))
        grad_src, grad_wp = pool_grid_backward(op, src, grid, None, up)

        fd_src = central_difference(
            lambda s: float(np.sum(pool_grid(op, s, grid) * up)), src
        )
        assert max_rel_error(grad_src, fd_src) <= 1e-6
        if op.w_p is not None:
            wp = op.w_p.copy()

            def loss(w):
                return float(np.sum(pool_grid(PoolingOp(kind, w), src, grid) * up))

            fd_wp = central_difference(loss, wp)
            assert max_rel_error(grad_wp, fd_wp) <= 1e-6

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n, kappa, xi", [(23, 5, 2), (24, 3, 1), (19, 4, 3), (3, 5, 4)])
    def test_vectorized_prefix_matches_per_segment_backward(self, kind, n, kappa, xi):
        # xi < kappa: overlapping full segments share rows; n=3 has no full segment
        rng = np.random.default_rng(n * 10 + kappa)
        d = 3
        src = rng.standard_normal((n, d))
        src[1] = src[2]  # ties: max routes to the first maximal row
        op = make_op(kind, kappa, d, rng)
        grid = build_pooled_grid(n, kappa, xi)
        up = rng.standard_normal((len(grid), d))
        grad_src, grad_wp = pool_grid_backward(op, src, grid, None, up)

        ref_src = np.zeros_like(src)
        ref_wp = None if op.w_p is None else np.zeros_like(op.w_p)
        for j in range(len(grid)):
            s = int(grid.segment_starts[j])
            rows = slice(s, s + int(grid.segment_lens[j]))
            g_block, g_wp = pool_segment_backward(op, src[rows], up[j])
            ref_src[rows] += g_block
            if g_wp is not None:
                ref_wp += g_wp
        assert max_rel_error(grad_src, ref_src) <= 1e-12
        if ref_wp is not None:
            assert max_rel_error(grad_wp, ref_wp) <= 1e-12

    @pytest.mark.parametrize("kind", ["ldconv", "mean_ldconv"])
    @pytest.mark.parametrize("kappa, xi", [(3, 1), (4, 2)])
    def test_ldconv_scratch_on_padded_grids(self, kind, kappa, xi):
        """Scratch above the (n, d) output stays under four (segments, d) arrays.

        Over the undropped grid of ceil(n / xi) segments the backward holds the
        scattered upstream, the context gradient (divided in place into the
        mean's share for mean_ldconv) and the product buffer; the context is
        freed once the weight gradient is taken, and the (kappa, segments)
        weight arrays add well under one more.
        """
        n, d = 4096, 64
        rng = np.random.default_rng(kappa * 10 + xi)
        pad = np.ones(n, dtype=bool)
        pad[3 * n // 4:] = False
        grid = build_pooled_grid(n, kappa, xi, pad)
        src = rng.standard_normal((n, d))
        up = rng.standard_normal((len(grid), d))
        op = PoolingOp(kind, 0.1 * rng.standard_normal((kappa, d)))
        gc.collect()
        tracemalloc.start()
        try:
            pool_grid_backward(op, src, grid, pad, up)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch = (peak - 8 * n * d) / (8 * -(-n // xi) * d)
        assert scratch <= 4.0, f"scratch {scratch:.2f} (segments, d) arrays"


def segment_reference(op, src, grid, pad, up):
    """Per-segment pool_segment/pool_segment_backward over the grid's real rows."""
    out = np.empty((len(grid), src.shape[1]))
    grad_src = np.zeros_like(src)
    grad_wp = None if op.w_p is None else np.zeros_like(op.w_p)
    for j in range(len(grid)):
        s = int(grid.segment_starts[j])
        rows = np.arange(s, s + int(grid.segment_lens[j]))
        if pad is not None:
            rows = rows[pad[rows]]
        out[j] = pool_segment(op, src[rows])
        g_block, g_wp = pool_segment_backward(op, src[rows], up[j])
        grad_src[rows] += g_block
        if g_wp is not None:
            grad_wp += g_wp
    return out, grad_src, grad_wp


class TestPoolGridDifferential:
    """pool_grid and its backward against per-segment pooling, padding included."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n, kappa, xi", [
        (23, 5, 1),  # xi = 1
        (23, 5, 2),  # xi < kappa, partial tail
        (22, 4, 4),  # xi = kappa, partial tail
        (24, 3, 3),  # xi = kappa, no tail
        (3, 5, 2),   # n < kappa
    ])
    @pytest.mark.parametrize("pattern", ["none", "holes", "tail_and_holes"])
    def test_matches_per_segment_pooling(self, kind, n, kappa, xi, pattern):
        rng = np.random.default_rng(1000 * n + 10 * kappa + xi + len(pattern))
        d = 3
        src = rng.standard_normal((n, d))
        src[min(2, n - 1)] = src[0]  # ties: max routes to the first maximal row
        pad = None
        if pattern != "none":
            pad = rng.random(n) > 0.35  # interior holes
            if pattern == "tail_and_holes":
                pad[n - max(1, n // 4):] = False
            pad[0] = True
            # a padding row holds a column's maximum; pooling must ignore it
            hole = int(np.flatnonzero(~pad)[0]) if not pad.all() else None
            if hole is not None:
                src[hole, 1] = 10.0 * np.abs(src).max()
        op = make_op(kind, kappa, d, rng)
        grid = build_pooled_grid(n, kappa, xi, pad)
        up = rng.standard_normal((len(grid), d))
        ref_out, ref_src, ref_wp = segment_reference(op, src, grid, pad, up)

        np.testing.assert_allclose(pool_grid(op, src, grid, pad), ref_out, rtol=1e-12, atol=0)
        grad_src, grad_wp = pool_grid_backward(op, src, grid, pad, up)
        assert max_rel_error(grad_src, ref_src) <= 1e-12
        if pad is not None:
            assert not grad_src[~pad].any()  # padding rows get no gradient
        if ref_wp is not None:
            assert max_rel_error(grad_wp, ref_wp) <= 1e-12
        else:
            assert grad_wp is None

    def test_grid_that_dropped_segments(self):
        # rows 4..11 are padding: the grid drops segments 2..4 of the stride grid
        rng = np.random.default_rng(5)
        n, kappa, xi, d = 16, 3, 2, 2
        src = rng.standard_normal((n, d))
        pad = np.ones(n, dtype=bool)
        pad[4:12] = False
        grid = build_pooled_grid(n, kappa, xi, pad)
        assert len(grid) < -(-n // xi)
        for kind in ALL_KINDS:
            op = make_op(kind, kappa, d, rng)
            up = rng.standard_normal((len(grid), d))
            ref_out, ref_src, ref_wp = segment_reference(op, src, grid, pad, up)
            np.testing.assert_allclose(pool_grid(op, src, grid, pad), ref_out, rtol=1e-12)
            grad_src, grad_wp = pool_grid_backward(op, src, grid, pad, up)
            assert max_rel_error(grad_src, ref_src) <= 1e-12
            if ref_wp is not None:
                assert max_rel_error(grad_wp, ref_wp) <= 1e-12

    @pytest.mark.parametrize("kind", ["ldconv", "mean_ldconv"])
    def test_weights_must_match_the_grid(self, kind):
        grid = build_pooled_grid(6, 3, 2)
        op = PoolingOp(kind, np.ones((2, 2)))  # kappa 2, the grid's is 3
        with pytest.raises(ValueError, match=r"\(kappa, d\) = \(3, 2\)"):
            pool_grid(op, np.ones((6, 2)), grid)
        with pytest.raises(ValueError, match=r"\(kappa, d\) = \(3, 2\)"):
            pool_grid_backward(op, np.ones((6, 2)), grid, None, np.ones((3, 2)))

    @pytest.mark.parametrize("length", [5, 8])
    def test_wrong_length_pad_mask_rejected(self, length):
        src = np.ones((6, 2))
        grid = build_pooled_grid(6, 2, 2)
        pad = np.ones(length, dtype=bool)
        op = PoolingOp("mean")
        with pytest.raises(ValueError, match=rf"\({length},\).*6 rows"):
            pool_grid(op, src, grid, pad)
        with pytest.raises(ValueError, match=rf"\({length},\).*6 rows"):
            pool_grid_backward(op, src, grid, pad, np.ones((3, 2)))


class TestPoolGridRows:
    """Pooling the segments that start in a range of rows, from those rows and a
    kappa - xi halo, as the chunked forward does."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("kappa, xi", [(5, 4), (4, 2), (3, 3), (6, 1)])
    @pytest.mark.parametrize("padded", [False, True])
    def test_ranges_pool_bitwise_as_the_whole_grid(self, kind, kappa, xi, padded):
        """At d = 64 a range of few segments would get BLAS's small-matrix
        kernel for the ldconv logits; the range's segments must still have
        the whole grid's bits."""
        n, d = 1000, 64
        rng = np.random.default_rng(kappa * 10 + xi)
        src = rng.standard_normal((n, d))
        pad = None
        if padded:
            pad = rng.random(n) > 0.3
            pad[n - 150:] = False  # whole segments of padding are dropped
        op = make_op(kind, kappa, d, rng)
        grid = build_pooled_grid(n, kappa, xi, pad)
        whole = pool_grid(op, src, grid, pad)
        for size in (2 * xi, 24 * xi, n):
            out = np.full_like(whole, np.nan)
            for a in range(0, n, size):
                b = min(n, a + size)
                first, last = np.searchsorted(grid.segment_starts, (a, b))
                rows = src[a:min(n, b + kappa - xi)]
                out[first:last] = pool_grid_rows(op, rows, grid, pad, a, b)
            np.testing.assert_array_equal(out, whole)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("kappa, xi", [(5, 4), (4, 2), (3, 3), (6, 1)])
    @pytest.mark.parametrize("padded", [False, True])
    def test_range_backwards_with_a_halo_carry_sum_to_the_whole(self, kind, kappa, xi, padded):
        """Each range's backward, its halo rows' part added into the next range's
        rows, gives ``pool_grid_backward``'s gradients to 1e-12 of their largest
        entry; the weight gradients sum to the whole grid's."""
        n, d = 300, 8
        rng = np.random.default_rng(kappa * 10 + xi + 7)
        src = rng.standard_normal((n, d))
        src[3] = src[1]  # ties: max routes to the first maximal row
        pad = None
        if padded:
            pad = rng.random(n) > 0.3
            pad[n - 50:] = False
        op = make_op(kind, kappa, d, rng)
        grid = build_pooled_grid(n, kappa, xi, pad)
        up = rng.standard_normal((len(grid), d))
        whole, whole_wp = pool_grid_backward(op, src, grid, pad, up)
        for size in (2 * xi, 24 * xi, n):
            grad, grad_wp, carry = np.full_like(whole, np.nan), None, np.zeros((0, d))
            for a in range(0, n, size):
                b = min(n, a + size)
                first, last = np.searchsorted(grid.segment_starts, (a, b))
                rows = src[a:min(n, b + kappa - xi)]
                g, g_wp = pool_grid_rows_backward(op, rows, grid, pad, a, b, up[first:last])
                g[:len(carry)] += carry
                grad[a:b], carry = g[:b - a], g[b - a:]
                grad_wp = g_wp if grad_wp is None else grad_wp + g_wp
            assert np.abs(grad - whole).max() <= 1e-12 * np.abs(whole).max()
            if whole_wp is None:
                assert grad_wp is None
            else:
                assert np.abs(grad_wp - whole_wp).max() <= 1e-12 * np.abs(whole_wp).max()

    def test_ranges_read_the_callers_grid(self):
        """A range's segments are sliced from the grid it is given, not rebuilt from
        its pad mask: a grid that kept an all-padding segment is refused, as
        ``pool_grid`` refuses it."""
        src, pad = np.ones((8, 2)), np.array([True, True, False, False, True, True, True, True])
        stale_grid = build_pooled_grid(8, 2, 2)  # built without the mask: 4 segments
        op = PoolingOp("mean")
        with pytest.raises(RuntimeError, match="entirely padding"):
            pool_grid_rows(op, src, stale_grid, pad, 0, 8)
        with pytest.raises(RuntimeError, match="entirely padding"):
            pool_grid_rows_backward(op, src, stale_grid, pad, 0, 8, np.ones((4, 2)))

    def test_rejects_ranges_off_the_grid(self):
        grid = build_pooled_grid(20, 4, 2)
        op = PoolingOp("mean")
        with pytest.raises(ValueError, match="stride-2 grid"):
            pool_grid_rows(op, np.ones((7, 2)), grid, None, 3, 8)
        with pytest.raises(ValueError, match="read rows 4 to 10, got 5 rows"):
            pool_grid_rows(op, np.ones((5, 2)), grid, None, 4, 8)
        with pytest.raises(ValueError, match="stride-2 grid"):
            pool_grid_rows_backward(op, np.ones((7, 2)), grid, None, 3, 8, np.ones((2, 2)))
        with pytest.raises(ValueError, match=r"upstream must be \(2, 2\), got \(3, 2\)"):
            pool_grid_rows_backward(op, np.ones((6, 2)), grid, None, 4, 8, np.ones((3, 2)))
