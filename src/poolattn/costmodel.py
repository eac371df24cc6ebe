"""Analytic operation-count model for the three attention patterns.

Counts measure query-key score evaluations (one value accumulation per score,
so the two totals are always equal); pooling work is tracked separately.
Edge effects are counted exactly via clipped windows, not asymptotically.
The model assumes the harness layout: no padding, global tokens at indices
0..g-1.  Per-token counts are computed by independent interval arithmetic so
they can be checked against instrumented counters from the attention path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from poolattn.attention import block_rows, row_chunks
from poolattn.core import LayerConfig, product_rows

PATTERNS = ("dense", "single_window", "two_level")


@dataclass(frozen=True)
class CostReport:
    """Exact operation counts for one attention pattern at one sequence length."""

    pattern: str
    n: int
    w1: int = 0
    w2: int = 0
    kappa: int = 1
    xi: int = 1
    n_global: int = 0
    score_evals: int = 0
    value_accums: int = 0
    pool_ops: int = 0
    bytes_touched: int = 0
    per_token: np.ndarray | None = None

    def params_key(self) -> tuple:
        return (self.pattern, self.n, self.w1, self.w2, self.kappa, self.xi, self.n_global)


class CountCheck(NamedTuple):
    ok: bool
    first_mismatch: int | None


def _bytes_estimate(score_evals: int, value_accums: int, pool_ops: int, d_model: int) -> int:
    # one q-row + one k-row read per score, one v-row per accumulation,
    # kappa*d reads + d writes folded into pool_ops; 8 bytes per float64
    return 8 * d_model * (2 * score_evals + value_accums + pool_ops)


def _window_sizes(n: int, w: int, n_global: int) -> np.ndarray:
    """Per-token receptive-field sizes for a clipped window plus leading globals."""
    i = np.arange(n, dtype=np.int64)
    lo = np.maximum(0, i - w)
    hi = np.minimum(n - 1, i + w)
    sizes = hi - lo + 1
    if n_global:
        if not 0 < n_global <= n:
            raise ValueError(f"n_global must be in [0, {n}]")
        # globals sit at 0..g-1, so the only out-of-window globals are below lo
        sizes = sizes + np.minimum(n_global, lo)
        sizes[:n_global] = n
    return sizes


def _segment_counts(n: int, w2: int, kappa: int, xi: int) -> tuple[np.ndarray, int]:
    """Per-token count of pooled segments with center within radius w2."""
    n_seg = -(-n // xi)
    starts = np.arange(n_seg, dtype=np.int64) * xi
    lens = np.minimum(kappa, n - starts)
    centers = starts + lens // 2
    # each segment j is visible from tokens [c_j - w2, c_j + w2]; accumulate
    # those intervals with a difference array
    diff = np.zeros(n + 1, dtype=np.int64)
    a = np.maximum(0, centers - w2)
    b = np.minimum(n - 1, centers + w2)
    np.add.at(diff, a, 1)
    np.add.at(diff, b + 1, -1)
    return np.cumsum(diff[:-1]), n_seg


def cost_dense(n: int, d_model: int = 1) -> CostReport:
    """Full self-attention: every token scores every token (n^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    per_token = np.full(n, n, dtype=np.int64)
    total = int(per_token.sum())
    return CostReport(
        "dense", n, score_evals=total, value_accums=total,
        bytes_touched=_bytes_estimate(total, total, 0, d_model), per_token=per_token,
    )


def cost_single_window(n: int, w_one_side: int, n_global: int = 0, d_model: int = 1) -> CostReport:
    """Single-level clipped-window attention with optional leading globals."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if w_one_side < 0:
        raise ValueError("window radius must be >= 0")
    per_token = _window_sizes(n, w_one_side, n_global)
    total = int(per_token.sum())
    return CostReport(
        "single_window", n, w1=w_one_side, n_global=n_global,
        score_evals=total, value_accums=total,
        bytes_touched=_bytes_estimate(total, total, 0, d_model), per_token=per_token,
    )


def cost_two_level(
    n: int, w1: int, w2: int, kappa: int, xi: int, n_global: int = 0, d_model: int = 1
) -> CostReport:
    """Two-level pattern: first-level window sum plus visible-segment sum.

    ``pool_ops`` charges n_seg * kappa rows per pooled matrix (two matrices).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    first = _window_sizes(n, w1, n_global)
    second, n_seg = _segment_counts(n, w2, kappa, xi)
    per_token = first + second
    total = int(per_token.sum())
    pool_ops = 2 * n_seg * kappa
    return CostReport(
        "two_level", n, w1=w1, w2=w2, kappa=kappa, xi=xi, n_global=n_global,
        score_evals=total, value_accums=total, pool_ops=pool_ops,
        bytes_touched=_bytes_estimate(total, total, pool_ops, d_model), per_token=per_token,
    )


def instrumented_report(
    pattern: str,
    n: int,
    first_counts: np.ndarray,
    second_counts: np.ndarray | None = None,
    *,
    w1: int = 0,
    w2: int = 0,
    kappa: int = 1,
    xi: int = 1,
    n_global: int = 0,
) -> CostReport:
    """Build a report from per-token counters recorded by an attention trace."""
    if pattern not in PATTERNS:
        raise ValueError(f"pattern must be one of {PATTERNS}")
    per_token = np.asarray(first_counts, dtype=np.int64).copy()
    if per_token.shape != (n,):
        raise ValueError(f"first_counts must have length {n}")
    if second_counts is not None:
        per_token += np.asarray(second_counts, dtype=np.int64)
    total = int(per_token.sum())
    return CostReport(
        pattern, n, w1=w1, w2=w2, kappa=kappa, xi=xi, n_global=n_global,
        score_evals=total, value_accums=total, per_token=per_token,
    )


def verify_counts(expected: CostReport, measured: CostReport) -> CountCheck:
    """Exact per-token comparison of a model report against an instrumented one.

    Raises on pattern/parameter mismatch; otherwise returns whether every
    token's count matches, with the first differing token index on failure.
    """
    if expected.params_key() != measured.params_key():
        raise ValueError(
            f"report mismatch: {expected.params_key()} vs {measured.params_key()}"
        )
    if expected.per_token is None or measured.per_token is None:
        raise ValueError("both reports need per-token counts")
    diff = expected.per_token != measured.per_token
    if diff.any():
        return CountCheck(False, int(np.argmax(diff)))
    if expected.score_evals != measured.score_evals:
        return CountCheck(False, 0)
    return CountCheck(True, None)


# the traces, bands, grids' Python objects and the small per-call arrays the
# estimate does not itemize
CALL_OVERHEAD = 64 << 10


def estimate_peak_bytes(
    pattern: str,
    n: int,
    d_model: int,
    w1: int = 0,
    w2: int = 0,
    kappa: int = 1,
    xi: int = 1,
    n_global: int = 0,
    n_heads: int = LayerConfig().n_heads,
    retain: bool = False,
) -> int:
    """Analytic peak live bytes of one forward pass of the "dense" or "two_level" pattern.

    Dense holds two n-by-n score-sized matrices plus projections.  The
    two-level forward streams row chunks (``row_chunks``): it holds O(n * d)
    outputs, pooled grids and row statistics, plus one chunk's buffers and
    one row block's transients, sized by the block's key union (window or
    segment union), whose scores are one (rows, cols) matrix per head.  The
    first level holds y, its statistics and a chunk's queries, its keys and
    values over the chunk's key union (held, and copied with the global
    rows' appended) and one block, or the global rows' scores against the
    chunk.  The second level then holds y, the first level's statistics and
    the pooled grids, while it pools a chunk's unpooled keys and values and
    their pooling scratch, then its own statistics, a chunk's q2 and one
    block.  ``retain`` (a training forward) adds z, an (n, d) array of its
    own, to the second level, and ``y + z`` at the end.  Per-token counts
    and flags, the block plan's per-block bounds and the one-byte-per-entry
    finiteness check of each level's output are included, and
    ``CALL_OVERHEAD`` bytes for the Python objects of a call.  Blocks are the
    layer's own ``block_rows(n, w1)`` rows; ``n_heads`` defaults to
    ``LayerConfig``'s.
    """
    if pattern not in ("dense", "two_level"):
        raise ValueError(f"pattern must be dense or two_level, got {pattern!r}")
    d = d_model
    nd = n * d
    if pattern == "dense":
        return 8 * (2 * n * n + 5 * nd)
    b = block_rows(n, w1)
    # the largest chunk: a short tail folds into the chunk before it
    c = max(stop - start for start, stop in row_chunks(n, b))
    rows = c + product_rows(d)  # a chunk's projection, at least product_rows(d) rows

    def block_floats(r: int, cols: int) -> int:
        # every head's scores and the mask bias, the bool mask, the scaled
        # queries and the block's output
        return (n_heads + 1) * r * cols + r * cols // 8 + 2 * r * d

    # one level's row maxima, denominators and counts, and the block plan's
    # per-block starts, stops and key bounds
    stats = 2 * n_heads * n + n + 12 * (n // b + 1)
    u1 = min(n, b + 2 * w1) + n_global
    # keys and values over the chunk's union as projected and held; with
    # global rows, also copied with theirs, and a block gathers its columns
    kv1 = 2 * (c + 2 * w1 + product_rows(d)) * d
    block1 = block_floats(b, u1)
    if n_global:
        kv1 += 2 * (c + 2 * w1 + n_global) * d
        block1 += 2 * u1 * d
    chunk1 = rows * d + kv1 + max(block1, n_heads * n_global * c)
    # the extra keys' bias row and the keys' rows in a chunk's buffer
    first = nd + stats + 2 * n + max(chunk1, nd // 8)
    n_seg = -(-n // xi)
    u2 = min(n_seg, (b + 2 * w2) // max(xi, 1) + 2)
    grids = 2 * n_seg * d + 3 * n_seg
    # unpooled keys and values held, one being projected, and pooling scratch
    pooling = 3 * (rows + kappa) * d + 4 * (c // xi + 1) * d
    attend = stats + rows * d + block_floats(b, u2)
    flags = n // 4  # the global rows' and the degenerate rows' flags, a byte per row
    z = nd if retain else 0
    second = nd + stats + flags + grids + max(pooling, z + attend)
    # the trace's grid and flags, with y + z or the finiteness check
    final = 2 * stats + flags + 3 * n_seg + (3 * nd if retain else nd + nd // 8)
    return 8 * max(first, second, final) + CALL_OVERHEAD
