"""Correctness checks: every one counts toward ``attempted`` and, if it fails, ``failed``.

* oracle gate: the fast path against the brute-force oracles on the
  workload's own config at small n, at the harness threshold;
* gradcheck gate: the analytic backward against central differences at
  n <= 64, at the harness threshold;
* count gate: the per-token score counters against the exact count model at
  full n (unpadded workloads only; the model assumes no padding);
* request check: every request's output and gradients are finite, zero on
  padding rows, free of degenerate rows, and bitwise equal to the reference
  output of the same input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from poolattn import (
    SequenceBatch,
    cost_two_level,
    dense_first_level,
    dense_layer_reference,
    first_level_forward,
    instrumented_report,
    layer_forward,
    literal_pooling_attention,
    second_level_forward,
    verify_counts,
)
from poolattn.harness import (
    GRADCHECK_MAX_N,
    GRADCHECK_THRESHOLD,
    ORACLE_DIFF_THRESHOLD,
    gradcheck_layer,
    init_params,
    relative_diff,
)
from workloads import Result, Workload, make_batch

# the literal pooling oracle loops over tokens in Python; n=256 keeps the gate
# near a second while w2 >= n - 1 still holds for every workload
ORACLE_N = 256
# gradcheck differentiates every parameter entry; d_model=8 with the
# workload's heads, pooling, kappa and xi keeps it near a second
GRADCHECK_N = 48
GRADCHECK_D = 8


@dataclass
class Checks:
    """Counts checks attempted and failed, keeping a message per failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_request(
    checks: Checks, label: str, result: Result, batch: SequenceBatch, reference: Result
) -> bool:
    """One check per request covering its output and every gradient."""
    pad = batch.pad_mask
    problems = []
    ref = reference.arrays()
    for name, arr in result.arrays().items():
        if not np.isfinite(arr).all():
            problems.append(f"{name} not finite")
        if name in ("output", "grad.embeddings") and np.any(arr[~pad]):
            problems.append(f"{name} nonzero on padding rows")
        if name not in ref or not _bitwise_equal(arr, ref[name]):
            problems.append(f"{name} differs from the reference")
    if result.degenerate_rows:
        problems.append(f"{result.degenerate_rows} degenerate rows")
    return checks.check(label, not problems, "; ".join(problems))


def oracle_gate(w: Workload, seed: int, checks: Checks) -> float:
    """Fast path against the oracles at n=ORACLE_N; returns the largest relative error.

    The first level and the identity-pooling layer are compared unpadded (the
    dense references have no padding convention); the second level is
    compared with the literal per-token oracle on the workload's own padding.
    """
    cfg = w.config
    n = min(ORACLE_N, w.n)
    cfg_wide = replace(cfg, w2=max(cfg.w2, n))  # shared grid == literal when w2 >= n - 1
    batch = make_batch(w, n, seed, 0, 1)
    plain = SequenceBatch.of(batch.embeddings, None, batch.global_set)
    params = init_params(cfg_wide, seed + 1)

    errors = {}
    y, _ = first_level_forward(plain, params, cfg_wide, retain=False)
    errors["first_level_vs_masked_dense"] = relative_diff(
        y, dense_first_level(plain, params, cfg_wide)
    )
    y, _ = first_level_forward(batch, params, cfg_wide, retain=False)
    z, _ = second_level_forward(batch, y, params, cfg_wide, retain=False)
    errors["second_level_vs_literal"] = relative_diff(
        z, literal_pooling_attention(batch, y, params, cfg_wide)
    )
    ident = replace(cfg_wide, kappa=1, xi=1)
    params_i = init_params(ident, seed + 2)
    out, _ = layer_forward(plain, params_i, ident, retain=False)
    errors["layer_vs_dense"] = relative_diff(out, dense_layer_reference(plain, params_i, ident))

    for name, err in errors.items():
        checks.check(
            f"oracle.{name}", err <= ORACLE_DIFF_THRESHOLD,
            f"max rel err {err:.3e} > {ORACLE_DIFF_THRESHOLD:.0e}",
        )
    return max(errors.values())


def gradcheck_gate(w: Workload, seed: int, checks: Checks) -> float:
    """Finite-difference check of every parameter; returns the largest relative error."""
    n = min(GRADCHECK_N, GRADCHECK_MAX_N, w.n)
    cfg = replace(
        w.config, d_model=GRADCHECK_D, w1=min(w.config.w1, n // 6), w2=min(w.config.w2, n // 3)
    )
    errors = gradcheck_layer(cfg, n, seed, global_count=min(2, w.n_global))
    for name, err in errors.items():
        checks.check(
            f"gradcheck.{name}", err <= GRADCHECK_THRESHOLD,
            f"max rel err {err:.3e} > {GRADCHECK_THRESHOLD:.0e}",
        )
    return max(errors.values())


def count_gate(w: Workload, result: Result, checks: Checks) -> tuple[int, int]:
    """Per-token counters of one request against the count model at full n.

    Returns (visible score entries counted, entries the model predicts).  The
    model assumes no padding, so padded workloads report both without the check.
    """
    c = w.config
    model = cost_two_level(w.n, c.w1, c.w2, c.kappa, c.xi, n_global=w.n_global)
    measured = instrumented_report(
        "two_level", w.n, result.first_counts, result.second_counts,
        w1=c.w1, w2=c.w2, kappa=c.kappa, xi=c.xi, n_global=w.n_global,
    )
    if w.pad_share is None:
        ok, first_bad = verify_counts(model, measured)
        checks.check("costmodel.verify_counts", ok, f"first mismatch at token {first_bad}")
    return measured.score_evals, model.score_evals
