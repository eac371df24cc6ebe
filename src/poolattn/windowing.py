"""Index algebra for both attention levels.

Everything here is pure integer arithmetic: clipped neighbor intervals, the
stride-pooled segment grid, and the range of pooled segments a token may
attend to, as half-open bounds over whole index arrays (``window_bounds``,
``segment_bounds``).  Windows clip at the sequence boundary (no wrap-around,
no zero padding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def window_bounds(i, w: int, n: int):
    """Half-open windows ``[max(0, i - w), min(n, i + w + 1))`` around token(s) ``i``."""
    if w < 0:
        raise ValueError("window radius must be >= 0")
    return np.maximum(0, i - w), np.minimum(n, i + w + 1)


@dataclass(frozen=True)
class PooledGrid:
    """Segment layout for stride pooling over a length-``n`` source.

    Segments start at multiples of the stride and hold ``min(kappa, n - start)``
    source rows; ``centers[j]`` is the source index of segment j's center row,
    ``start + len // 2`` (the 0-based row ceil((1+len)/2) - 1).  When a padding
    mask is supplied, segments consisting entirely of padding are dropped.
    Centers are non-decreasing, so any center interval selects a contiguous
    run of segments.
    """

    n: int
    kappa: int
    xi: int
    segment_starts: np.ndarray
    segment_lens: np.ndarray
    centers: np.ndarray

    def __len__(self) -> int:
        return self.segment_starts.shape[0]


def build_pooled_grid(n: int, kappa: int, xi: int, pad_mask: np.ndarray | None = None) -> PooledGrid:
    """Chunk a length-``n`` source into kernel-``kappa``, stride-``xi`` segments.

    Produces ceil(n / xi) segments (every start < n); the trailing partial
    segment is kept.  ``n = 0`` yields an empty grid.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if not 1 <= xi <= kappa:
        raise ValueError(f"xi ({xi}) must satisfy 1 <= xi <= kappa ({kappa})")
    if n < 0:
        raise ValueError("n must be >= 0")
    count = -(-n // xi)
    starts = np.arange(count, dtype=np.int64) * xi
    lens = np.minimum(kappa, n - starts)
    if pad_mask is not None:
        pad = np.ascontiguousarray(pad_mask, dtype=bool)
        if pad.shape != (n,):
            raise ValueError(f"pad_mask must have length {n}")
        cum = np.concatenate([[0], np.cumsum(pad)])
        keep = (cum[starts + lens] - cum[starts]) > 0
        starts, lens = starts[keep], lens[keep]
    centers = starts + lens // 2
    return PooledGrid(n, kappa, xi, starts, lens, centers)


def segment_bounds(i, w2: int, grid: PooledGrid):
    """Half-open runs ``[lo, hi)`` of segments centered in ``[i - w2, i + w2]``, per token.

    Contiguous because centers are non-decreasing; empty only for degenerate
    windows (w2 < kappa) or heavily padded grids.
    """
    if w2 < 0:
        raise ValueError("w2 must be >= 0")
    c = grid.centers
    return np.searchsorted(c, i - w2, side="left"), np.searchsorted(c, i + w2, side="right")
