"""One token's receptive field at each level, built from the layer's bounds.

``neighbor_set`` and ``global_neighbor_set`` give a first-level token's
clipped window and global columns as a ``NeighborSpec``, and
``visible_segments`` the pooled segments a token sees at the second level,
one token at a time, for tests to check counts and masks against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from poolattn.windowing import PooledGrid, segment_bounds, window_bounds


@dataclass(frozen=True)
class NeighborSpec:
    """Receptive field of one token: a clipped interval plus out-of-interval globals."""

    token_index: int
    lo: int
    hi: int
    extra: tuple[int, ...] = ()

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1 + len(self.extra)

    def indices(self) -> np.ndarray:
        """All member indices, interval first, then the sorted extras."""
        return np.concatenate(
            [np.arange(self.lo, self.hi + 1, dtype=np.int64),
             np.asarray(self.extra, dtype=np.int64)]
        )

    def contains(self, j: int) -> bool:
        return self.lo <= j <= self.hi or j in self.extra


def neighbor_set(i: int, w: int, n: int) -> NeighborSpec:
    """Clipped window of radius ``w`` around token ``i`` in a length-``n`` sequence."""
    if not 0 <= i < n:
        raise ValueError(f"token index {i} out of range [0, {n})")
    lo, hi = window_bounds(i, w, n)
    return NeighborSpec(i, int(lo), int(hi) - 1)


def global_neighbor_set(i: int, w: int, n: int, global_set) -> NeighborSpec:
    """Window of token ``i`` extended by the global set.

    Global tokens see the whole sequence; everyone else sees their window plus
    every global token, with in-window globals absorbed into the interval.
    """
    base = neighbor_set(i, w, n)
    g = tuple(int(j) for j in global_set)
    if i in g:
        return NeighborSpec(i, 0, n - 1)
    extra = tuple(j for j in g if j < base.lo or j > base.hi)
    return NeighborSpec(i, base.lo, base.hi, extra)


def visible_segments(i: int, w2: int, grid: PooledGrid) -> range:
    """Segments whose center lies within ``[i - w2, i + w2]``."""
    return range(*(int(b) for b in segment_bounds(i, w2, grid)))
