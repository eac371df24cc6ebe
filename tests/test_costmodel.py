import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import poolattn.attention as attention
from poolattn.attention import first_level_forward, layer_backward, layer_forward
from poolattn.core import LayerConfig, SequenceBatch
from poolattn.costmodel import (
    cost_dense,
    cost_single_window,
    cost_two_level,
    estimate_peak_bytes,
    estimate_training_peak_bytes,
    instrumented_report,
    verify_counts,
)
from poolattn.harness import init_params, symmetric_uniform, synth_batch
from poolattn.windowing import build_pooled_grid, segment_bounds, window_bounds
from neighbor_reference import global_neighbor_set, visible_segments


def instrumented_two_level(n, w1, w2, kappa, xi, g, seed=1):
    cfg = LayerConfig(d_model=4, n_heads=2, w1=w1, w2=w2, kappa=kappa, xi=xi)
    batch = synth_batch(n, 4, seed, g)
    params = init_params(cfg, seed + 1)
    _, trace = layer_forward(batch, params, cfg)
    return instrumented_report(
        "two_level", n, trace.first_counts, trace.second_counts,
        w1=w1, w2=w2, kappa=kappa, xi=xi, n_global=g,
    )


class TestCostDense:
    def test_single_token(self):
        assert cost_dense(1).score_evals == 1

    def test_512_squared(self):
        assert cost_dense(512).score_evals == 262_144

    def test_quadrupling_law(self):
        for n in (64, 256, 1000):
            assert cost_dense(2 * n).score_evals == 4 * cost_dense(n).score_evals

    def test_score_equals_value_accums(self):
        rep = cost_dense(33)
        assert rep.score_evals == rep.value_accums


class TestCostSingleWindow:
    def test_covering_window_degenerates_to_dense(self):
        assert cost_single_window(17, 17).score_evals == 17 * 17

    def test_self_only(self):
        assert cost_single_window(29, 0).score_evals == 29

    def test_closed_form_matches_loop_summation(self):
        n, w = 4096, 512
        rep = cost_single_window(n, w)
        loop = sum(min(n, i + w + 1) - max(0, i - w) for i in range(n))
        assert rep.score_evals == loop
        interior = rep.per_token[w:n - w]
        assert (interior == 2 * w + 1).all()
        assert interior[0] == 1025

    def test_globals_match_neighbor_sets(self):
        n, w, g = 50, 4, 3
        rep = cost_single_window(n, w, g)
        G = tuple(range(g))
        expected = [global_neighbor_set(i, w, n, G).size for i in range(n)]
        np.testing.assert_array_equal(rep.per_token, expected)


class TestCostTwoLevel:
    def test_identity_pooling_reduces_to_single_window_plus_self(self):
        n, w2 = 200, 30
        two = cost_two_level(n, 0, w2, 1, 1)
        single = cost_single_window(n, w2)
        assert two.score_evals == single.score_evals + n
        assert two.pool_ops == 2 * n

    def test_matches_windowing_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 120))
            w1 = int(rng.integers(0, 20))
            w2 = w1 + int(rng.integers(0, 30))
            kappa = int(rng.integers(1, 8))
            xi = int(rng.integers(1, kappa + 1))
            g = int(rng.integers(0, min(5, n)))
            grid = build_pooled_grid(n, kappa, xi)
            G = tuple(range(g))
            expected = np.array([
                global_neighbor_set(i, w1, n, G).size
                + len(visible_segments(i, w2, grid))
                for i in range(n)
            ])
            rep = cost_two_level(n, w1, w2, kappa, xi, g)
            np.testing.assert_array_equal(rep.per_token, expected)

    def test_default_interior_token_count(self):
        # interior token at stride alignment: (2*128+1) + ceil((2*512+1)/4)
        rep = cost_two_level(4096, 128, 512, 5, 4)
        assert rep.per_token[514] == (2 * 128 + 1) + -(-(2 * 512 + 1) // 4) == 514

    def test_interior_per_token_converges(self):
        # linearity: interior per-token cost is identical across lengths
        margin = 512 + 5
        means = []
        for n in (8192, 16384):
            rep = cost_two_level(n, 128, 512, 5, 4)
            span = (n - 2 * margin) // 4 * 4  # whole stride periods
            means.append(rep.per_token[margin:margin + span].mean())
        assert abs(means[0] - means[1]) < 1.0
        # and the raw mean approaches the interior constant from below
        raw = [cost_two_level(n, 128, 512, 5, 4).score_evals / n
               for n in (4096, 8192, 16384)]
        assert raw[0] < raw[1] < raw[2] < means[1]

    def test_dense_ratio_grows_without_bound(self):
        ratios = [
            cost_dense(n).score_evals / cost_two_level(n, 128, 512, 5, 4).score_evals
            for n in (1024, 2048, 4096, 8192)
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_led_matched_receptive_field_ratio(self):
        n, margin = 8192, 512 + 5
        two = cost_two_level(n, 128, 512, 5, 4)
        single = cost_single_window(n, 512)
        ratio = (two.per_token[margin:n - margin].mean()
                 / single.per_token[margin:n - margin].mean())
        assert abs(ratio - 0.5) <= 0.01


class TestVerifyCounts:
    def test_matched_instrumented_run(self):
        model = cost_two_level(64, 5, 12, 3, 2, 2)
        measured = instrumented_two_level(64, 5, 12, 3, 2, 2)
        check = verify_counts(model, measured)
        assert check.ok and check.first_mismatch is None

    def test_off_by_one_window_detected_with_index(self):
        # a run whose windows are genuinely one narrower than the model claims
        model = cost_two_level(64, 5, 12, 3, 2, 0)
        buggy = instrumented_two_level(64, 4, 12, 3, 2, 0)
        measured = instrumented_report(
            "two_level", 64, buggy.per_token, None, w1=5, w2=12, kappa=3, xi=2,
        )
        check = verify_counts(model, measured)
        assert not check.ok
        assert check.first_mismatch == 0  # token 0 loses a left neighbor first

    def test_pattern_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            verify_counts(cost_dense(8), cost_single_window(8, 2))

    def test_dense_oracle_counts_match_model(self):
        from poolattn.oracle import mask_from_config

        n = 16
        mask = mask_from_config(n, n, tuple(range(n)))  # all-true
        measured = instrumented_report("dense", n, mask.sum(axis=1))
        assert verify_counts(cost_dense(n), measured).ok


class TestInstrumentedEquality:
    @pytest.mark.parametrize("case", [
        (64, 5, 12, 3, 2, 0), (64, 5, 12, 3, 2, 2), (33, 0, 7, 5, 4, 1),
        (100, 16, 40, 5, 4, 0), (17, 3, 3, 1, 1, 0), (128, 8, 32, 9, 8, 4),
    ])
    def test_trace_counters_equal_model(self, case):
        n, w1, w2, kappa, xi, g = case
        model = cost_two_level(n, w1, w2, kappa, xi, g)
        measured = instrumented_two_level(n, w1, w2, kappa, xi, g)
        assert verify_counts(model, measured).ok

    def test_first_level_counts_equal_single_window_model(self):
        n, w, g = 90, 7, 3
        cfg = LayerConfig(d_model=4, n_heads=2, w1=w, w2=w, kappa=1, xi=1)
        batch = synth_batch(n, 4, 3, g)
        params = init_params(cfg, 4)
        _, trace = first_level_forward(batch, params, cfg)
        measured = instrumented_report(
            "single_window", n, trace.counts, w1=w, n_global=g
        )
        assert verify_counts(cost_single_window(n, w, g), measured).ok


class TestPerTokenBound:
    def test_interior_non_global_tokens_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            w1 = int(rng.integers(0, 8))
            kappa = int(rng.integers(1, 7))
            xi = int(rng.integers(1, kappa + 1))
            w2 = max(w1, kappa) + int(rng.integers(0, 12))
            g = int(rng.integers(0, 4))
            n = 4 * (w2 + kappa) + 64
            cfg = LayerConfig(d_model=4, n_heads=2, w1=w1, w2=w2, kappa=kappa, xi=xi)
            batch = synth_batch(n, 4, 11, g)
            params = init_params(cfg, 12)
            _, trace = layer_forward(batch, params, cfg)
            total = trace.first_counts + trace.second_counts
            margin = w2 + kappa
            bound = (2 * w1 + 1) + g + -(-(2 * w2 + 1) // xi) + 2
            interior = total[max(margin, g):n - margin]
            assert (interior <= bound).all()


class TestMutationDetection:
    def test_neighbor_off_by_one_breaks_counter_equality(self, monkeypatch):
        def narrowed(i, w, n):
            lo, hi = window_bounds(i, w, n)
            return lo, np.maximum(lo + 1, hi - 1)

        monkeypatch.setattr(attention, "window_bounds", narrowed)
        model = cost_two_level(64, 5, 12, 3, 2, 0)
        measured = instrumented_two_level(64, 5, 12, 3, 2, 0)
        check = verify_counts(model, measured)
        assert not check.ok
        assert check.first_mismatch is not None

    def test_visible_segments_off_by_one_breaks_counter_equality(self, monkeypatch):
        def truncated(i, w2, grid):
            lo, hi = segment_bounds(i, w2, grid)
            return lo, np.maximum(lo, hi - 1)

        monkeypatch.setattr(attention, "segment_bounds", truncated)
        model = cost_two_level(64, 5, 12, 3, 2, 0)
        measured = instrumented_two_level(64, 5, 12, 3, 2, 0)
        assert not verify_counts(model, measured).ok


class TestPeakBytes:
    def test_dense_dominates_two_level_at_scale(self):
        dense = estimate_peak_bytes("dense", 16384, 64)
        pooled = estimate_peak_bytes("two_level", 16384, 64, 128, 512, 5, 4)
        assert dense > 10 * pooled
        assert dense > 1 << 30  # over a 1 GiB budget
        assert pooled < 256 << 20  # comfortably desk-scale

    def test_windowed_patterns_linear_in_n(self):
        small = estimate_peak_bytes("two_level", 4096, 64, 128, 512, 5, 4)
        big = estimate_peak_bytes("two_level", 16384, 64, 128, 512, 5, 4)
        assert big < 4.5 * small

    # the benchmark workloads' layers: (config, globals, padded share of the tail)
    WORKLOAD_LAYERS = {
        "infer_long": (LayerConfig(), 8, 0.0),
        "train_ldconv": (LayerConfig(pooling_kind="ldconv"), 8, 0.0),
        "padded_wide": (
            LayerConfig(w1=16, w2=1024, kappa=4, xi=2, pooling_kind="mean_ldconv",
                        second_level_input="raw_embeddings"),
            4, 0.25,
        ),
    }

    # (workload, heads, n): every workload and head count at n = 4096, where
    # padded_wide's window of pooled segments (1536) holds its whole kept grid
    # (1537); and padded_wide at n = 8192, whose window (1538) is narrower than
    # its kept grid (3073), so a pooling transient growing with the padded
    # tail shows
    INFERENCE_CASES = [
        *((workload, heads, 4096) for workload in WORKLOAD_LAYERS for heads in (4, 8, 16)),
        ("padded_wide", 4, 8192),
    ]

    @pytest.mark.parametrize(
        "workload, heads, n", INFERENCE_CASES,
        ids=[f"{w}-{h}" + ("" if n == 4096 else f"-n{n}") for w, h, n in INFERENCE_CASES],
    )
    def test_estimate_bounds_measured_inference_peak(self, workload, heads, n):
        """The estimate bounds a forward's peak, the trace's block statistics included,
        for the inference forward (``retain=False``) and the training one.

        Each head scores every block on its own, so the estimate takes the
        head count.
        """
        cfg, g, pad_share = self.WORKLOAD_LAYERS[workload]
        cfg = replace(cfg, n_heads=heads)
        batch = synth_batch(n, cfg.d_model, seed=61, global_count=g)
        pad = np.ones(n, dtype=bool)
        pad[n - int(pad_share * n):] = False
        batch = SequenceBatch(batch.embeddings, pad, batch.global_set)
        params = init_params(cfg, 62)
        for retain in (False, True):
            gc.collect()
            tracemalloc.start()
            try:
                layer_forward(batch, params, cfg, retain=retain)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            est = estimate_peak_bytes(
                "two_level", n, cfg.d_model, cfg.w1, cfg.w2, cfg.kappa, cfg.xi, n_global=g,
                n_heads=heads, retain=retain,
            )
            assert peak <= est <= 1.25 * peak, f"retain={retain}: peak {peak}, estimate {est}"

    @pytest.mark.parametrize("workload", WORKLOAD_LAYERS)
    def test_training_backward_holds_one_level_of_gradients(self, workload):
        """A training step's peak, the forward's trace held through the backward,
        is bounded by ``estimate_training_peak_bytes``, whose docstring derives
        its live sets: ``peak <= est <= 1.25 * peak``, at n = 2048 and 4096.

        Both sizes stream chunks of the same rows, so from 2048 to 4096 the
        peak grows only by the whole arrays the estimate counts (the trace,
        d_y, the pooled grids and their gradients): a whole (n, d) array left
        in the backward, a projection or a second upstream, grows it by one
        more array, past half an array of slack.
        """
        cfg, g, pad_share = self.WORKLOAD_LAYERS[workload]
        peak, est = {}, {}
        for n in (2048, 4096):
            batch = synth_batch(n, cfg.d_model, seed=63, global_count=g)
            pad = np.ones(n, dtype=bool)
            pad[n - int(pad_share * n):] = False
            batch = SequenceBatch(batch.embeddings, pad, batch.global_set)
            params = init_params(cfg, 64)
            upstream = symmetric_uniform(65, n * cfg.d_model).reshape(n, cfg.d_model)
            gc.collect()
            tracemalloc.start()
            try:
                _, trace = layer_forward(batch, params, cfg)
                layer_backward(trace, upstream)
                peak[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del trace
            est[n] = estimate_training_peak_bytes(
                n, cfg.d_model, cfg.w1, cfg.w2, cfg.kappa, cfg.xi, n_global=g,
                n_heads=cfg.n_heads, mix=cfg.mix, n_valid=int(pad.sum()),
            )
            assert peak[n] <= est[n] <= 1.25 * peak[n], f"n={n}: peak {peak[n]}, estimate {est[n]}"
        array = 8 * 2048 * cfg.d_model  # one (n, d) array's growth from n = 2048 to 4096
        grown, modelled = peak[4096] - peak[2048], est[4096] - est[2048]
        assert grown <= modelled + array // 2, (
            f"peak grew {grown / array:.2f} arrays, the estimate {modelled / array:.2f}"
        )

    @pytest.mark.parametrize("pattern", ["banded", "single_window"])
    def test_unknown_pattern_rejected(self, pattern):
        with pytest.raises(ValueError, match="dense or two_level"):
            estimate_peak_bytes(pattern, 10, 4)
