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

from poolattn.attention import block_rows
from poolattn.core import LayerConfig

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
) -> int:
    """Analytic peak live bytes of one forward pass of the "dense" or "two_level" pattern.

    Dense holds two n-by-n score-sized matrices plus projections.  The
    two-level pattern holds O(n * d) arrays plus the transient buffers of one
    row block at a time, sized by the block's key union (window or segment
    union, or all n keys for the global rows), whose scores are one
    (rows, cols) matrix per head.  The first level holds its q, k, v and
    either the global rows' full-width block, which runs before y exists, or
    y, its counts, its row statistics and one banded row block.  The second
    level runs after q, k and v are freed.  While it pools it holds y, one
    unpooled key or value grid and the pooled grids; then y, its q2, the
    pooled grids, its output z, both levels' statistics and one row block.
    The latter holds one (n, d) array more than the former, so it is the
    second level's peak, and the layer's is the larger of the two levels'.
    Per-token counts, the softmax row statistics (two floats per head and row) and
    the one-byte-per-entry finiteness check of each level's output are
    included; fixed per-call overheads are not, so below a few thousand
    tokens the estimate can fall a few percent short.  Blocks are the layer's
    own ``block_rows(n, w1)`` rows; ``n_heads`` defaults to ``LayerConfig``'s.
    """
    if pattern not in ("dense", "two_level"):
        raise ValueError(f"pattern must be dense or two_level, got {pattern!r}")
    nd = n * d_model
    if pattern == "dense":
        return 8 * (2 * n * n + 5 * nd)
    b = block_rows(n, w1)

    def block_floats(rows: int, cols: int) -> int:
        # every head's scores and the mask bias, the bool mask, the block's output
        return (n_heads + 1) * rows * cols + rows * cols // 8 + rows * d_model

    u1 = min(n, b + 2 * w1) + n_global
    # a block with globals outside its union copies its keys and values
    block1 = block_floats(b, u1) + (2 * u1 * d_model if n_global else 0)
    stats = 2 * n_heads * n  # one level's row maxima and denominators
    first = 3 * nd + max(block_floats(n_global, n), nd + n + stats + block1)
    n_seg = -(-n // xi)
    u2 = min(n_seg, (b + 2 * w2) // max(xi, 1) + 2)
    second = 3 * nd + 2 * n_seg * d_model + 3 * n_seg + 2 * n + 2 * stats + block_floats(b, u2)
    return 8 * max(first, second) + nd
