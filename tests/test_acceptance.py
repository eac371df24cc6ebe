"""Acceptance suite: one test per headline criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from poolattn.attention import first_level_forward, layer_forward, second_level_forward
from poolattn.core import LayerConfig, SequenceBatch, project_qkv
from poolattn.costmodel import (
    cost_dense,
    cost_single_window,
    cost_two_level,
    instrumented_report,
    verify_counts,
)
from poolattn.harness import (
    RunConfig,
    gradcheck_layer,
    init_params,
    relative_diff,
    run_bench,
    splitmix64,
    symmetric_uniform,
    synth_batch,
)
from poolattn.oracle import (
    dense_attention,
    dense_first_level,
    dense_layer_reference,
    literal_pooling_attention,
)
from poolattn.pooling import PoolingOp, pool_segment
from pooling_reference import pool_segment_backward

KINDS = ("mean", "max", "ldconv", "mean_ldconv")


def _draw(seed, lo, hi):
    """Deterministic integer in [lo, hi] from one SplitMix64 output."""
    return lo + int(splitmix64(seed, 1)[0] % (hi - lo + 1))


def test_oracle_equivalence_dense_layer():
    """Layer output equals the dense-attention oracle when windows cover everything."""
    start = time.monotonic()
    worst = 0.0
    for case in range(50):
        seed = 1000 + case
        n = _draw(seed, 1, 64)
        h = _draw(seed + 50, 1, 2)
        d = h * _draw(seed + 100, 1, 4)
        cfg = LayerConfig(
            d_model=d, n_heads=h, w1=n, w2=n, kappa=1, xi=1,
            pooling_kind=KINDS[case % 4],
            second_level_input="raw_embeddings" if case % 3 == 0 else "first_level_output",
            share_projections=case % 5 == 0,
        )
        batch = synth_batch(n, d, seed)
        params = init_params(cfg, seed + 1)
        out, _ = layer_forward(batch, params, cfg)
        worst = max(worst, relative_diff(out, dense_layer_reference(batch, params, cfg)))
    elapsed = time.monotonic() - start
    assert worst <= 1e-12, f"worst relative error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"\nPASS oracle equivalence: 50 configs, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_windowed_equivalence_with_globals():
    """First level matches masked dense attention, global tokens included."""
    worst = 0.0
    for case in range(50):
        seed = 2000 + case
        n = _draw(seed, 2, 128)
        h = _draw(seed + 50, 1, 2)
        d = h * _draw(seed + 100, 1, 4)
        w1 = _draw(seed + 150, 0, n)
        g = _draw(seed + 200, 1, min(4, n)) if case % 2 == 0 else 0
        cfg = LayerConfig(d_model=d, n_heads=h, w1=w1, w2=n + w1, kappa=1, xi=1)
        batch = synth_batch(n, d, seed, g)
        params = init_params(cfg, seed + 1)
        y, _ = first_level_forward(batch, params, cfg)
        worst = max(worst, relative_diff(y, dense_first_level(batch, params, cfg)))
    assert worst <= 1e-12, f"worst relative error {worst:.3e}"
    print(f"\nPASS windowed equivalence: 50 seeds with globals, worst rel err {worst:.2e}")


def test_pooling_path_equivalence():
    """Identity pooling matches dense; shared grid matches the literal oracle."""
    worst_dense = 0.0
    for case in range(10):
        seed = 3000 + case
        n = _draw(seed, 2, 64)
        cfg = LayerConfig(d_model=6, n_heads=2, w1=2, w2=n, kappa=1, xi=1,
                          pooling_kind=KINDS[case % 4])
        batch = synth_batch(n, 6, seed)
        params = init_params(cfg, seed + 1)
        y, _ = first_level_forward(batch, params, cfg)
        z, _ = second_level_forward(batch, y, params, cfg)
        q2, k2, v2 = project_qkv(y, params.second)
        mask = np.ones((n, n), dtype=bool)
        ref = np.empty_like(z)
        for head in range(2):
            cols = slice(head * 3, (head + 1) * 3)
            ref[:, cols] = dense_attention(
                q2[:, cols], k2[:, cols], v2[:, cols], mask, cfg.alpha()
            )
        worst_dense = max(worst_dense, relative_diff(z, ref))
    assert worst_dense <= 1e-12, f"identity-pooling worst {worst_dense:.3e}"

    worst_literal = 0.0
    for case in range(10):
        seed = 3100 + case
        n = _draw(seed, 8, 64)
        cfg = LayerConfig(d_model=4, n_heads=2, w1=3, w2=n, kappa=5, xi=4,
                          pooling_kind=KINDS[case % 4])
        batch = synth_batch(n, 4, seed)
        params = init_params(cfg, seed + 1)
        y, _ = first_level_forward(batch, params, cfg)
        z, _ = second_level_forward(batch, y, params, cfg)
        z_lit = literal_pooling_attention(batch, y, params, cfg)
        worst_literal = max(worst_literal, relative_diff(z, z_lit))
    assert worst_literal <= 1e-12, f"literal-oracle worst {worst_literal:.3e}"
    print(
        f"\nPASS pooling-path equivalence: identity {worst_dense:.2e}, "
        f"literal {worst_literal:.2e}"
    )


def test_gradient_checks_all_variants():
    """Every parameter and the input, all kinds, mix and sharing on and off."""
    start = time.monotonic()
    worst = 0.0
    worst_name = ""
    for kind in KINDS:
        for mix in (False, True):
            for share in (False, True):
                cfg = LayerConfig(
                    d_model=6, n_heads=2, w1=2, w2=6, kappa=3, xi=2,
                    pooling_kind=kind,
                    second_level_input="raw_embeddings" if mix else "first_level_output",
                    share_projections=share,
                )
                errors = gradcheck_layer(cfg, n=10, seed=4000)
                for name, err in errors.items():
                    if err > worst:
                        worst, worst_name = err, f"{kind}/mix={mix}/share={share}/{name}"
    elapsed = time.monotonic() - start
    assert worst <= 1e-6, f"worst {worst:.3e} at {worst_name}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nPASS gradient checks: 16 variants, worst rel err {worst:.2e}, {elapsed:.1f}s")


COUNTER_CONFIGS = [
    (16, 0, 1, 1, 1, 0), (16, 2, 4, 2, 1, 0), (33, 0, 7, 5, 4, 1),
    (48, 5, 12, 3, 2, 0), (48, 5, 12, 3, 2, 3), (64, 8, 32, 5, 4, 0),
    (64, 8, 32, 5, 4, 2), (64, 64, 64, 1, 1, 0), (80, 1, 9, 9, 8, 0),
    (96, 16, 40, 17, 16, 1), (100, 3, 50, 7, 3, 4), (128, 8, 32, 9, 8, 4),
    (128, 12, 48, 5, 4, 0), (160, 2, 6, 3, 2, 1), (192, 20, 96, 5, 4, 2),
    (200, 0, 100, 4, 3, 0), (256, 16, 64, 5, 4, 0), (256, 16, 64, 5, 4, 8),
    (300, 7, 77, 6, 5, 2), (320, 32, 128, 5, 4, 0),
]


def test_complexity_counters_match_model_exactly():
    """Instrumented score counters equal the analytic model, token by token."""
    assert len(COUNTER_CONFIGS) == 20
    for n, w1, w2, kappa, xi, g in COUNTER_CONFIGS:
        cfg = LayerConfig(d_model=4, n_heads=2, w1=w1, w2=w2, kappa=kappa, xi=xi)
        batch = synth_batch(n, 4, n + w1, g)
        params = init_params(cfg, n + w1 + 1)
        _, trace = layer_forward(batch, params, cfg)
        measured = instrumented_report(
            "two_level", n, trace.first_counts, trace.second_counts,
            w1=w1, w2=w2, kappa=kappa, xi=xi, n_global=g,
        )
        model = cost_two_level(n, w1, w2, kappa, xi, g)
        check = verify_counts(model, measured)
        assert check.ok, f"config {(n, w1, w2, kappa, xi, g)} diverges at {check.first_mismatch}"

    # default config, interior token at stride alignment: (2*128+1) + ceil(1025/4)
    expected = (2 * 128 + 1) + -(-(2 * 512 + 1) // 4)
    model = cost_two_level(4096, 128, 512, 5, 4)
    assert model.per_token[514] == expected == 514
    cfg = LayerConfig()
    batch = synth_batch(4096, cfg.d_model, 7)
    params = init_params(cfg, 8)
    _, trace = layer_forward(batch, params, cfg)
    assert trace.first_counts[514] + trace.second_counts[514] == expected
    print(f"\nPASS complexity counters: 20 exact configs; default interior token = {expected}")


def test_matched_receptive_field_cost_ratio():
    """Two-level cost at matched receptive field is half a single 512 window."""
    n, margin = 8192, 512 + 5
    two = cost_two_level(n, 128, 512, 5, 4)
    single = cost_single_window(n, 512)
    ratio = (two.per_token[margin:n - margin].mean()
             / single.per_token[margin:n - margin].mean())
    assert abs(ratio - 0.5) <= 0.01, f"ratio {ratio:.4f}"
    print(f"\nPASS matched-receptive-field ratio: {ratio:.4f} (target 0.500 +- 0.01)")


@pytest.mark.slow
def test_linear_scaling_benchmark():
    """Two-level forward time scales linearly; dense scales quadratically."""
    start = time.monotonic()
    rc = RunConfig()  # n_list (4096, 8192, 16384), trials 7, defaults elsewhere
    records, notices = run_bench(rc)
    assert not notices
    elapsed = time.monotonic() - start
    two = [r.median_ns for r in records if r.pattern == "two_level"]
    dense = [r.median_ns for r in records if r.pattern == "dense"]
    assert len(two) == 3 and len(dense) == 3
    two_ratios = [b / a for a, b in zip(two, two[1:])]
    dense_ratios = [b / a for a, b in zip(dense, dense[1:])]
    assert all(1.6 <= r <= 2.6 for r in two_ratios), f"two-level ratios {two_ratios}"
    assert all(r >= 3.4 for r in dense_ratios), f"dense ratios {dense_ratios}"
    assert elapsed < 300.0, f"bench took {elapsed:.0f}s"
    print(
        f"\nPASS linear scaling: two-level ratios "
        f"{[f'{r:.2f}' for r in two_ratios]}, dense {[f'{r:.2f}' for r in dense_ratios]}, "
        f"{elapsed:.0f}s"
    )


def _perturb(batch, j, seed):
    emb = batch.embeddings.copy()
    emb[j] += 1.0 + 0.5 * symmetric_uniform(seed, batch.d)
    return SequenceBatch(emb, batch.pad_mask, batch.global_set)


def test_receptive_field_reach_bitwise():
    """Information reach is exactly the documented bound, bitwise, 20 seeds."""
    n = 48
    for case in range(20):
        seed = 5000 + 31 * case
        kind = KINDS[case % 4]
        w1 = _draw(seed, 1, 3)
        kappa = _draw(seed + 7, 1, 4)
        xi = _draw(seed + 11, 1, kappa)
        w2 = max(w1, kappa) + _draw(seed + 13, 0, 4)
        j = _draw(seed + 17, 10, n - 11)
        batch = synth_batch(n, 4, seed)
        idx = np.arange(n)

        # sliding-only: no reach beyond w1
        cfg1 = LayerConfig(d_model=4, n_heads=2, w1=w1, w2=w2, kappa=kappa, xi=xi,
                           pooling_kind=kind)
        params = init_params(cfg1, seed + 1)
        y, _ = first_level_forward(batch, params, cfg1)
        y2, _ = first_level_forward(_perturb(batch, j, seed + 2), params, cfg1)
        far = np.abs(idx - j) > w1
        assert np.array_equal(y[far], y2[far])
        assert not np.array_equal(y[j], y2[j])

        # two-level mix: reach bounded by w2 + kappa
        cfg_mix = replace(cfg1, second_level_input="raw_embeddings")
        params_mix = init_params(cfg_mix, seed + 3)
        out, _ = layer_forward(batch, params_mix, cfg_mix)
        out2, _ = layer_forward(_perturb(batch, j, seed + 4), params_mix, cfg_mix)
        far = np.abs(idx - j) >= w2 + kappa
        assert np.array_equal(out[far], out2[far])

        # two-level default: reach bounded by w1 + w2 + kappa
        out3, _ = layer_forward(batch, params, cfg1)
        out4, _ = layer_forward(_perturb(batch, j, seed + 5), params, cfg1)
        far = np.abs(idx - j) >= w1 + w2 + kappa
        assert np.array_equal(out3[far], out4[far])
        # and it extends beyond the first-level window (pooled reach witness)
        beyond = (np.abs(idx - j) > w1) & ~far
        assert any(
            not np.array_equal(out3[i], out4[i]) for i in idx[beyond]
        ), "no reach beyond w1"

        # global tokens: full reach both ways
        gbatch = synth_batch(n, 4, seed, global_count=1)
        gparams = init_params(cfg1, seed + 6)
        gy, _ = first_level_forward(gbatch, gparams, cfg1)
        gy2, _ = first_level_forward(_perturb(gbatch, n - 1, seed + 7), gparams, cfg1)
        assert not np.array_equal(gy[0], gy2[0])
        gy3, _ = first_level_forward(_perturb(gbatch, 0, seed + 8), gparams, cfg1)
        assert not np.array_equal(gy[n - 1], gy3[n - 1])
    print("\nPASS receptive field: 20 seeds, bitwise reach bounds hold")


def test_pooling_operator_properties_exhaustive():
    """Simplex weights, constant fixpoint, zero-weight degeneracy, tie routing."""
    rng = np.random.default_rng(99)
    for kappa in (1, 2, 3, 5):
        for length in range(1, kappa + 1):
            # dynamic weights live on the simplex: pooling an identity block
            # returns the weight vector itself
            for kind in ("ldconv", "mean_ldconv"):
                op = PoolingOp(kind, rng.uniform(-2, 2, size=(kappa, length)))
                delta = pool_segment(op, np.eye(length))
                assert (delta >= 0).all()
                assert abs(delta.sum() - 1.0) <= 1e-12

            # constant blocks are fixpoints for every kind
            row = rng.standard_normal(4)
            block = np.tile(row, (length, 1))
            for kind in KINDS:
                wp = rng.uniform(-1, 1, (kappa, 4)) if kind in ("ldconv", "mean_ldconv") else None
                out = pool_segment(PoolingOp(kind, wp), block)
                np.testing.assert_allclose(out, row, rtol=0, atol=1e-14)

            # zero weights make both dynamic kinds equal mean pooling
            data = rng.standard_normal((length, 4))
            mean = pool_segment(PoolingOp("mean"), data)
            for kind in ("ldconv", "mean_ldconv"):
                out = pool_segment(PoolingOp(kind, np.zeros((kappa, 4))), data)
                np.testing.assert_allclose(out, mean, rtol=0, atol=1e-15)

            # max-pool ties route deterministically to the lowest row index
            tied = np.zeros((length, 3))
            tied[:, 1] = np.arange(length)  # unique max in column 1, ties elsewhere
            grad, _ = pool_segment_backward(
                PoolingOp("max"), tied, np.array([1.0, 1.0, 1.0])
            )
            expected = np.zeros((length, 3))
            expected[0, 0] = expected[0, 2] = 1.0
            expected[length - 1, 1] = 1.0
            np.testing.assert_array_equal(grad, expected)
    print("\nPASS pooling operator properties: exhaustive kappa/length grid")
