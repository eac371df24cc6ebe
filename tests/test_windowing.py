import numpy as np
import pytest
from hypothesis import given, strategies as st

from neighbor_reference import global_neighbor_set, neighbor_set, visible_segments
from poolattn.windowing import build_pooled_grid


class TestNeighborSet:
    def test_interior(self):
        ns = neighbor_set(5, 2, 10)
        assert (ns.lo, ns.hi, ns.extra) == (3, 7, ())
        assert ns.size == 5

    def test_left_clip(self):
        ns = neighbor_set(0, 2, 10)
        assert (ns.lo, ns.hi) == (0, 2)

    def test_right_clip(self):
        ns = neighbor_set(9, 2, 10)
        assert (ns.lo, ns.hi) == (7, 9)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            neighbor_set(10, 2, 10)
        with pytest.raises(ValueError):
            neighbor_set(-1, 2, 10)

    @given(st.integers(1, 200), st.integers(0, 50), st.data())
    def test_size_formula(self, n, w, data):
        i = data.draw(st.integers(0, n - 1))
        ns = neighbor_set(i, w, n)
        assert ns.size == min(n, i + w + 1) - max(0, i - w)

    @given(st.integers(1, 120), st.integers(0, 20), st.data())
    def test_window_symmetry_interior(self, n, w, data):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        # symmetry j in N(i) <=> i in N(j) holds away from the edges
        if min(i, j) >= w and max(i, j) <= n - 1 - w:
            assert neighbor_set(i, w, n).contains(j) == neighbor_set(j, w, n).contains(i)


class TestGlobalNeighborSet:
    def test_global_token_sees_everything(self):
        ns = global_neighbor_set(3, 1, 100, (3, 7))
        assert (ns.lo, ns.hi, ns.extra) == (0, 99, ())

    def test_disjoint_globals_become_extras(self):
        ns = global_neighbor_set(50, 2, 100, (0, 1))
        assert (ns.lo, ns.hi) == (48, 52)
        assert ns.extra == (0, 1)
        assert ns.size == 7

    def test_in_window_globals_absorbed(self):
        ns = global_neighbor_set(1, 2, 100, (0, 3))
        assert (ns.lo, ns.hi, ns.extra) == (0, 3, ())

    def test_indices_order(self):
        ns = global_neighbor_set(50, 1, 100, (0, 99))
        np.testing.assert_array_equal(ns.indices(), [49, 50, 51, 0, 99])


class TestBuildPooledGrid:
    def test_hand_enumerated_9_5_4(self):
        grid = build_pooled_grid(9, 5, 4)
        np.testing.assert_array_equal(grid.segment_starts, [0, 4, 8])
        np.testing.assert_array_equal(grid.segment_lens, [5, 5, 1])
        np.testing.assert_array_equal(grid.centers, [2, 6, 8])

    def test_hand_enumerated_5_5_4(self):
        grid = build_pooled_grid(5, 5, 4)
        np.testing.assert_array_equal(grid.segment_starts, [0, 4])
        np.testing.assert_array_equal(grid.segment_lens, [5, 1])

    def test_singleton(self):
        grid = build_pooled_grid(1, 5, 4)
        np.testing.assert_array_equal(grid.segment_starts, [0])
        np.testing.assert_array_equal(grid.segment_lens, [1])
        np.testing.assert_array_equal(grid.centers, [0])

    def test_empty(self):
        assert len(build_pooled_grid(0, 5, 4)) == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_pooled_grid(4, 0, 1)
        with pytest.raises(ValueError):
            build_pooled_grid(4, 3, 4)

    def test_all_padding_segment_dropped(self):
        pad = np.ones(9, dtype=bool)
        pad[8] = False  # the trailing length-1 segment is pure padding
        grid = build_pooled_grid(9, 5, 4, pad)
        np.testing.assert_array_equal(grid.segment_starts, [0, 4])

    @given(st.integers(0, 300), st.integers(1, 9), st.data())
    def test_segment_invariants(self, n, kappa, data):
        xi = data.draw(st.integers(1, kappa))
        grid = build_pooled_grid(n, kappa, xi)
        assert len(grid) == -(-n // xi)
        starts = grid.segment_starts
        if n:
            assert (starts == np.arange(len(grid)) * xi).all()
            assert (starts < n).all()
            assert (grid.segment_lens == np.minimum(kappa, n - starts)).all()
            assert (np.diff(grid.centers) >= 0).all()


class TestVisibleSegments:
    def test_full_visibility_when_window_covers(self):
        grid = build_pooled_grid(9, 5, 4)
        for i in range(9):
            assert visible_segments(i, 9, grid) == range(0, 3)

    def test_hand_checked_cases(self):
        grid = build_pooled_grid(9, 5, 4)  # centers [2, 6, 8]
        assert visible_segments(0, 4, grid) == range(0, 1)
        assert visible_segments(8, 2, grid) == range(1, 3)

    @given(st.integers(1, 150), st.integers(1, 7), st.data())
    def test_monotone_in_token_index(self, n, kappa, data):
        xi = data.draw(st.integers(1, kappa))
        w2 = data.draw(st.integers(0, n + kappa))
        grid = build_pooled_grid(n, kappa, xi)
        ranges = [visible_segments(i, w2, grid) for i in range(n)]
        for a, b in zip(ranges, ranges[1:]):
            assert b.start >= a.start and b.stop >= a.stop

    @given(st.integers(1, 150), st.integers(1, 7), st.data())
    def test_union_covers_all_segments(self, n, kappa, data):
        xi = data.draw(st.integers(1, kappa))
        w2 = data.draw(st.integers(-(-kappa // 2), n + kappa))
        grid = build_pooled_grid(n, kappa, xi)
        seen = np.zeros(len(grid), dtype=bool)
        for i in range(n):
            r = visible_segments(i, w2, grid)
            seen[r.start:r.stop] = True
        assert seen.all()

    @given(st.integers(1, 150), st.integers(1, 7), st.data())
    def test_never_empty_when_w2_at_least_kappa(self, n, kappa, data):
        xi = data.draw(st.integers(1, kappa))
        w2 = data.draw(st.integers(kappa, n + kappa))
        grid = build_pooled_grid(n, kappa, xi)
        for i in range(n):
            assert len(visible_segments(i, w2, grid)) > 0
