from dataclasses import replace
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import poolattn.attention as attention
from poolattn.attention import (
    AttentionTrace,
    _Band,
    _block_backward,
    _block_mask,
    _heads,
    _masked_scores,
    _replay_probs,
    block_rows,
    first_level_forward,
    layer_backward,
    layer_forward,
    row_chunks,
    second_level_forward,
    stack_forward,
)
from poolattn.core import (
    LayerConfig,
    LayerParams,
    ProjectionTriple,
    SequenceBatch,
    matrix,
    project_qkv,
    softmax_row,
    zeros_params,
)
from poolattn.harness import (
    central_difference,
    init_params,
    max_rel_error,
    relative_diff,
    symmetric_uniform,
    synth_batch,
)
from poolattn.oracle import (
    dense_attention,
    dense_first_level,
    dense_layer_reference,
    literal_pooling_attention,
    mask_from_config,
)
from poolattn.pooling import pool_grid_rows
from poolattn.windowing import window_bounds
from neighbor_reference import global_neighbor_set
from trace_reference import check_block_biases, check_views, fresh_stages, plan


def windowed_reference(batch, params, config):
    """Per-token first-level reference that understands padding and globals."""
    q, k, v = project_qkv(batch.embeddings, params.first)
    n, d = batch.embeddings.shape
    dh, alpha = config.head_dim, config.alpha()
    y = np.zeros((n, d))
    for i in range(n):
        if not batch.pad_mask[i]:
            continue
        ns = global_neighbor_set(i, config.w1, n, batch.global_set)
        idx = ns.indices()
        idx = idx[batch.pad_mask[idx]]
        for h in range(config.n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            probs = softmax_row(alpha * (k[idx][:, cols] @ q[i, cols]))
            y[i, cols] = probs @ v[idx][:, cols]
    return y


class TestFirstLevelForward:
    def test_single_token_returns_value_row(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=3, w2=5, kappa=2, xi=1)
        batch = synth_batch(1, 4, seed=1)
        params = init_params(cfg, 2)
        y, _ = first_level_forward(batch, params, cfg)
        _, _, v = project_qkv(batch.embeddings, params.first)
        np.testing.assert_allclose(y, v, rtol=0, atol=1e-15)

    def test_window_covering_sequence_equals_dense(self):
        cfg = LayerConfig(d_model=6, n_heads=3, w1=16, w2=16, kappa=2, xi=2)
        batch = synth_batch(10, 6, seed=3)
        params = init_params(cfg, 4)
        y, _ = first_level_forward(batch, params, cfg)
        mask = np.ones((10, 10), dtype=bool)
        q, k, v = project_qkv(batch.embeddings, params.first)
        ref = np.empty_like(y)
        for h in range(3):
            cols = slice(h * 2, (h + 1) * 2)
            ref[:, cols] = dense_attention(q[:, cols], k[:, cols], v[:, cols], mask, cfg.alpha())
        assert relative_diff(y, ref) <= 1e-12

    def test_windowed_with_global_matches_masked_dense(self):
        cfg = LayerConfig(d_model=8, n_heads=2, w1=2, w2=4, kappa=2, xi=2)
        batch = synth_batch(12, 8, seed=5, global_count=1)
        params = init_params(cfg, 6)
        y, _ = first_level_forward(batch, params, cfg)
        assert relative_diff(y, dense_first_level(batch, params, cfg)) <= 1e-12

    def test_padded_batch_matches_per_token_reference(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=4, kappa=2, xi=2)
        emb = symmetric_uniform(21, 10 * 4).reshape(10, 4)
        pad = np.ones(10, dtype=bool)
        pad[[4, 8, 9]] = False
        batch = SequenceBatch(emb, pad, (0,))
        params = init_params(cfg, 7)
        y, _ = first_level_forward(batch, params, cfg)
        assert relative_diff(y, windowed_reference(batch, params, cfg)) <= 1e-12
        np.testing.assert_array_equal(y[~pad], 0.0)

    def test_counts_match_receptive_field_sizes(self):
        cfg = LayerConfig(d_model=4, n_heads=1, w1=3, w2=6, kappa=2, xi=2)
        batch = synth_batch(20, 4, seed=8, global_count=2)
        params = init_params(cfg, 9)
        _, trace = first_level_forward(batch, params, cfg)
        for i in range(20):
            assert trace.counts[i] == global_neighbor_set(i, 3, 20, (0, 1)).size


class TestSecondLevelForward:
    def test_identity_pooling_full_window_equals_dense(self):
        cfg = LayerConfig(d_model=6, n_heads=2, w1=2, w2=16, kappa=1, xi=1)
        batch = synth_batch(9, 6, seed=11)
        params = init_params(cfg, 12)
        y, _ = first_level_forward(batch, params, cfg)
        z, _ = second_level_forward(batch, y, params, cfg)
        q2, k2, v2 = project_qkv(y, params.second)
        mask = np.ones((9, 9), dtype=bool)
        ref = np.empty_like(z)
        for h in range(2):
            cols = slice(h * 3, (h + 1) * 3)
            ref[:, cols] = dense_attention(
                q2[:, cols], k2[:, cols], v2[:, cols], mask, cfg.alpha()
            )
        assert relative_diff(z, ref) <= 1e-12

    @pytest.mark.parametrize("kind", ["mean", "max", "ldconv", "mean_ldconv"])
    def test_full_window_equals_literal_oracle(self, kind):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=3, w2=16, kappa=5, xi=4,
                          pooling_kind=kind)
        batch = synth_batch(16, 4, seed=13)
        params = init_params(cfg, 14)
        y, _ = first_level_forward(batch, params, cfg)
        z, _ = second_level_forward(batch, y, params, cfg)
        z_lit = literal_pooling_attention(batch, y, params, cfg)
        assert relative_diff(z, z_lit) <= 1e-12

    def test_full_window_equals_literal_oracle_with_padding(self):
        cfg = LayerConfig(d_model=4, n_heads=1, w1=2, w2=12, kappa=3, xi=2,
                          pooling_kind="ldconv")
        emb = symmetric_uniform(33, 12 * 4).reshape(12, 4)
        pad = np.ones(12, dtype=bool)
        pad[[5, 10, 11]] = False
        batch = SequenceBatch(emb, pad)
        params = init_params(cfg, 15)
        y, _ = first_level_forward(batch, params, cfg)
        z, _ = second_level_forward(batch, y, params, cfg)
        z_lit = literal_pooling_attention(batch, y, params, cfg)
        assert relative_diff(z, z_lit) <= 1e-12
        np.testing.assert_array_equal(z[~pad], 0.0)

    def test_constant_embeddings_mean_pooling_uniform_rows(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2)
        emb = np.tile([0.3, -0.7, 1.1, 0.2], (15, 1))
        batch = SequenceBatch.of(emb)
        params = init_params(cfg, 16)
        y, _ = first_level_forward(batch, params, cfg)
        z, _ = second_level_forward(batch, y, params, cfg)
        np.testing.assert_allclose(z, np.tile(z[0], (15, 1)), rtol=0, atol=1e-12)

    def test_mix_reads_raw_embeddings(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2,
                          second_level_input="raw_embeddings")
        batch = synth_batch(10, 4, seed=17)
        params = init_params(cfg, 18)
        y = symmetric_uniform(99, 40).reshape(10, 4)
        z1, _ = second_level_forward(batch, y, params, cfg)
        z2, _ = second_level_forward(batch, np.zeros((10, 4)), params, cfg)
        np.testing.assert_array_equal(z1, z2)

    def test_degenerate_window_flagged_and_zero(self):
        # w2 < kappa: tokens far from every center get an empty range
        cfg = LayerConfig(d_model=4, n_heads=1, w1=0, w2=1, kappa=5, xi=4)
        batch = synth_batch(12, 4, seed=19)
        params = init_params(cfg, 20)
        y, _ = first_level_forward(batch, params, cfg)
        z, trace = second_level_forward(batch, y, params, cfg)
        # centers are [2, 6, 10]; token 0 sees nothing within radius 1
        assert trace.degenerate[0] and trace.degenerate[4]
        assert not trace.degenerate[2]
        np.testing.assert_array_equal(z[trace.degenerate], 0.0)


class TestLayerForward:
    def test_zero_second_value_projection_gives_first_level_only(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2)
        batch = synth_batch(12, 4, seed=21)
        params = init_params(cfg, 22)
        params.second.w_v[:] = 0.0
        params.second.b_v[:] = 0.0
        out, trace = layer_forward(batch, params, cfg)
        np.testing.assert_array_equal(out, trace.y)
        np.testing.assert_array_equal(trace.z, 0.0)

    def test_final_is_sum_of_levels(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2)
        batch = synth_batch(10, 4, seed=23)
        params = init_params(cfg, 24)
        out, trace = layer_forward(batch, params, cfg)
        np.testing.assert_array_equal(out, trace.y + trace.z)

    def test_trace_softmax_rows_sum_to_one(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2,
                          pooling_kind="max")
        batch = synth_batch(14, 4, seed=25, global_count=2)
        params = init_params(cfg, 26)
        _, trace = layer_forward(batch, params, cfg)
        for rows in (trace.first.attention_rows(), trace.second.attention_rows()):
            for weights in rows:
                assert (weights >= 0.0).all()
                if weights.shape[1]:
                    np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-9)

    def test_two_heads_reproduce_single_head_with_decoupled_weights(self):
        d, dh = 4, 2
        rng = np.random.default_rng(27)
        a = rng.standard_normal((dh, d))
        b = rng.standard_normal((dh, d))
        a2 = rng.standard_normal((dh, d))
        b2 = rng.standard_normal((dh, d))
        w_v = rng.standard_normal((d, d))
        w_v2 = rng.standard_normal((d, d))
        zero = np.zeros(d)

        cfg2 = LayerConfig(d_model=d, n_heads=2, w1=2, w2=8, kappa=3, xi=2)
        cfg1 = LayerConfig(d_model=d, n_heads=1, w1=2, w2=8, kappa=3, xi=2)
        scale = cfg2.alpha() / cfg1.alpha()

        def stacked(m):
            return np.vstack([m, m])

        def padded(m, s=1.0):
            return np.vstack([s * m, np.zeros((d - dh, d))])

        params2 = LayerParams(
            ProjectionTriple(stacked(a), zero, stacked(b), zero, w_v, zero),
            ProjectionTriple(stacked(a2), zero, stacked(b2), zero, w_v2, zero),
        )
        params1 = LayerParams(
            ProjectionTriple(padded(a), zero, padded(b, scale), zero, w_v, zero),
            ProjectionTriple(padded(a2), zero, padded(b2, scale), zero, w_v2, zero),
        )
        batch = synth_batch(12, d, seed=28)
        out2, _ = layer_forward(batch, params2, cfg2)
        out1, _ = layer_forward(batch, params1, cfg1)
        assert relative_diff(out2, out1) <= 1e-12

    def test_default_config_runs_at_4096(self):
        cfg = LayerConfig()
        batch = synth_batch(4096, cfg.d_model, seed=29)
        params = init_params(cfg, 30)
        out, trace = layer_forward(batch, params, cfg)
        assert out.shape == (4096, cfg.d_model)
        assert not trace.degenerate_second.any()


class TestLocality:
    def _perturbed(self, batch, j, seed=77):
        emb = batch.embeddings.copy()
        emb[j] += symmetric_uniform(seed, batch.d)
        return SequenceBatch(emb, batch.pad_mask, batch.global_set)

    def test_sliding_only_reach_is_w1_bitwise(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=3, w2=6, kappa=3, xi=2)
        batch = synth_batch(24, 4, seed=31)
        params = init_params(cfg, 32)
        y, _ = first_level_forward(batch, params, cfg)
        i, j = 5, 9  # |i-j| = 4 > w1
        y2, _ = first_level_forward(self._perturbed(batch, j), params, cfg)
        np.testing.assert_array_equal(y[i], y2[i])
        assert not np.array_equal(y[j], y2[j])

    def test_two_level_mix_reach_is_w2_plus_kappa_bitwise(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=1, w2=4, kappa=3, xi=2,
                          second_level_input="raw_embeddings")
        batch = synth_batch(32, 4, seed=33)
        params = init_params(cfg, 34)
        out, _ = layer_forward(batch, params, cfg)
        i = 10
        j_far = i + cfg.w2 + cfg.kappa  # beyond reach
        out2, _ = layer_forward(self._perturbed(batch, j_far), params, cfg)
        np.testing.assert_array_equal(out[i], out2[i])
        j_near = i + cfg.w2  # inside the pooled reach, outside w1
        out3, _ = layer_forward(self._perturbed(batch, j_near), params, cfg)
        assert not np.array_equal(out[i], out3[i])

    def test_two_level_default_reach_bounded_by_w1_w2_kappa(self):
        # second level reads Y, so reach never exceeds w1 + w2 + kappa - 1
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=4, kappa=3, xi=2)
        batch = synth_batch(40, 4, seed=35)
        params = init_params(cfg, 36)
        out, _ = layer_forward(batch, params, cfg)
        i = 12
        j_beyond = i + cfg.w1 + cfg.w2 + cfg.kappa  # strictly beyond the chain
        out2, _ = layer_forward(self._perturbed(batch, j_beyond), params, cfg)
        np.testing.assert_array_equal(out[i], out2[i])

    def test_two_level_default_reach_includes_w1_chain(self):
        # identity pooling: every source row is a center, so the chain through
        # Y is reachable at exactly w1 + w2 and cut off one step beyond
        cfg = LayerConfig(d_model=4, n_heads=2, w1=3, w2=6, kappa=1, xi=1)
        batch = synth_batch(40, 4, seed=36)
        params = init_params(cfg, 37)
        out, _ = layer_forward(batch, params, cfg)
        i = 12
        out2, _ = layer_forward(self._perturbed(batch, i + cfg.w1 + cfg.w2), params, cfg)
        assert not np.array_equal(out[i], out2[i])
        out3, _ = layer_forward(
            self._perturbed(batch, i + cfg.w1 + cfg.w2 + 1), params, cfg
        )
        np.testing.assert_array_equal(out[i], out3[i])

    def test_receptive_field_grows_beyond_w1(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=8, kappa=3, xi=2)
        batch = synth_batch(30, 4, seed=37)
        params = init_params(cfg, 38)
        out, _ = layer_forward(batch, params, cfg)
        i, j = 10, 14  # |i-j| = 4 > w1, within the pooled window
        out2, _ = layer_forward(self._perturbed(batch, j), params, cfg)
        assert not np.array_equal(out[i], out2[i])

    def test_global_token_full_reach(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=1, w2=2, kappa=2, xi=2)
        batch = synth_batch(30, 4, seed=39, global_count=1)
        params = init_params(cfg, 40)
        y, _ = first_level_forward(batch, params, cfg)
        far = 29
        y2, _ = first_level_forward(self._perturbed(batch, far), params, cfg)
        assert not np.array_equal(y[0], y2[0])  # global token sees everything
        y3, _ = first_level_forward(self._perturbed(batch, 0), params, cfg)
        assert not np.array_equal(y[far], y3[far])  # everyone sees the global

    def test_padding_token_invisible_bitwise(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2)
        emb = symmetric_uniform(55, 12 * 4).reshape(12, 4)
        pad = np.ones(12, dtype=bool)
        pad[6] = False
        batch = SequenceBatch(emb, pad)
        params = init_params(cfg, 41)
        out, _ = layer_forward(batch, params, cfg)
        emb2 = emb.copy()
        emb2[6] = 123.0
        out2, _ = layer_forward(SequenceBatch(emb2, pad), params, cfg)
        np.testing.assert_array_equal(out[pad], out2[pad])


class TestLayerBackward:
    def test_zero_upstream_gives_zero_grads(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2,
                          pooling_kind="ldconv")
        batch = synth_batch(10, 4, seed=43)
        params = init_params(cfg, 44)
        _, trace = layer_forward(batch, params, cfg)
        grads = layer_backward(trace, np.zeros((10, 4)))
        for arr in (*grads.first, *grads.second, grads.w_p_key, grads.w_p_value,
                    grads.embeddings):
            np.testing.assert_array_equal(arr, 0.0)

    @pytest.mark.parametrize("mix", [False, True])
    def test_inference_trace_keeps_statistics_and_refuses_backward(self, mix):
        """A ``retain=False`` trace keeps a retained trace's counts, flags and
        statistics bitwise, but no y or z: ``layer_backward``, ``y`` and ``z``
        raise a ValueError naming ``retain=False``, not an AttributeError."""
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2,
                          second_level_input="raw_embeddings" if mix else "first_level_output")
        batch = synth_batch(8, 4, seed=45, global_count=1)
        params = init_params(cfg, 46)
        upstream = symmetric_uniform(45, 32).reshape(8, 4)
        out, kept = layer_forward(batch, params, cfg)
        out_d, dropped = layer_forward(batch, params, cfg, retain=False)
        y, first = first_level_forward(batch, params, cfg, retain=False)
        _, second = second_level_forward(batch, y, params, cfg, retain=False)
        _assert_bitwise_equal({"out": out_d}, {"out": out})
        for trace in (dropped, AttentionTrace(first, second, out_d)):
            for got, want in ((trace.first, kept.first), (trace.second, kept.second)):
                for name in ("counts", "rowmax", "denom"):
                    _assert_bitwise_equal({name: getattr(got, name)}, {name: getattr(want, name)})
            _assert_bitwise_equal({"flags": trace.degenerate_second},
                                  {"flags": kept.degenerate_second})
            for read in (lambda: layer_backward(trace, upstream), lambda: trace.y,
                         lambda: trace.z):
                with pytest.raises(ValueError, match="retain=False"):
                    read()

    def test_upstream_shape_checked(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2)
        batch = synth_batch(8, 4, seed=47)
        params = init_params(cfg, 48)
        _, trace = layer_forward(batch, params, cfg)
        with pytest.raises(ValueError, match="shape"):
            layer_backward(trace, np.zeros((7, 4)))

    def test_padded_batch_gradients_match_finite_differences(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=4, kappa=3, xi=2,
                          pooling_kind="ldconv")
        emb = symmetric_uniform(66, 10 * 4).reshape(10, 4)
        pad = np.ones(10, dtype=bool)
        pad[[3, 9]] = False
        batch = SequenceBatch(emb, pad, (0,))
        params = init_params(cfg, 49)
        upstream = symmetric_uniform(67, 40).reshape(10, 4)
        _, trace = layer_forward(batch, params, cfg)
        grads = layer_backward(trace, upstream)
        np.testing.assert_array_equal(grads.embeddings[~pad], 0.0)

        emb_work = emb.copy()

        def loss(_):
            out, _ = layer_forward(SequenceBatch(emb_work, pad, (0,)), params, cfg)
            return float(np.sum(upstream * out))

        fd = central_difference(lambda _: loss(None), emb_work)
        assert max_rel_error(grads.embeddings, fd) <= 1e-6

    def test_shared_gradient_is_sum_of_unshared(self):
        shared_cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2,
                                 pooling_kind="ldconv", share_projections=True)
        plain_cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2,
                                pooling_kind="ldconv")
        batch = synth_batch(10, 4, seed=51)
        shared = init_params(shared_cfg, 52)
        # unshared run whose two levels hold identical copies of the weights
        unshared = LayerParams(
            ProjectionTriple(*(a.copy() for a in shared.first)),
            ProjectionTriple(*(a.copy() for a in shared.first)),
            shared.w_p_key.copy(), shared.w_p_value.copy(),
        )
        upstream = symmetric_uniform(53, 40).reshape(10, 4)
        _, t_shared = layer_forward(batch, shared, shared_cfg)
        _, t_plain = layer_forward(batch, unshared, plain_cfg)
        np.testing.assert_allclose(t_shared.final, t_plain.final, rtol=0, atol=1e-15)
        g_shared = layer_backward(t_shared, upstream)
        g_plain = layer_backward(t_plain, upstream)
        assert g_shared.second is g_shared.first
        for field in range(6):
            np.testing.assert_allclose(
                g_shared.first[field],
                g_plain.first[field] + g_plain.second[field],
                rtol=1e-12, atol=1e-14,
            )


class TestStackForward:
    def test_single_sliding_layer_equals_first_level(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2)
        batch = synth_batch(12, 4, seed=55)
        params = init_params(cfg, 56)
        out = stack_forward(batch, [(cfg, params)], ["sliding_only"])
        y, _ = first_level_forward(batch, params, cfg)
        np.testing.assert_array_equal(out, y)

    def test_schedules_differ(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2)
        batch = synth_batch(16, 4, seed=57)
        layers = [(cfg, init_params(cfg, 58 + i)) for i in range(2)]
        a = stack_forward(batch, layers, ["sliding_only", "two_level"])
        b = stack_forward(batch, layers, ["two_level", "two_level"])
        assert not np.allclose(a, b)

    def test_three_of_twelve_two_level_placement(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=4, w2=12, kappa=3, xi=2)
        batch = synth_batch(32, 4, seed=60)
        layers = [(cfg, init_params(cfg, 61 + i)) for i in range(12)]
        schedule = ["sliding_only"] * 12
        for depth in (5, 6, 7):  # two-level attention in three middle layers
            schedule[depth] = "two_level"
        out = stack_forward(batch, layers, schedule)
        assert out.shape == (32, 4)
        assert np.isfinite(out).all()
        plain = stack_forward(batch, layers, ["sliding_only"] * 12)
        assert not np.allclose(out, plain)

    def test_mismatched_schedule_rejected(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2)
        batch = synth_batch(8, 4, seed=73)
        params = init_params(cfg, 74)
        with pytest.raises(ValueError, match="schedule"):
            stack_forward(batch, [(cfg, params)], ["sliding_only", "two_level"])
        with pytest.raises(ValueError, match="mode"):
            stack_forward(batch, [(cfg, params)], ["dense"])

    def test_mismatched_width_rejected(self):
        cfg = LayerConfig(d_model=6, n_heads=2, w1=2, w2=6, kappa=3, xi=2)
        batch = synth_batch(8, 4, seed=75)
        params = init_params(cfg, 76)
        with pytest.raises(ValueError, match="d_model"):
            stack_forward(batch, [(cfg, params)], ["sliding_only"])

    @pytest.mark.parametrize("bad", ["mode", "width"])
    def test_last_layer_checked_before_any_layer_runs(self, bad):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2)
        wide = LayerConfig(d_model=6, n_heads=2, w1=2, w2=6, kappa=3, xi=2)
        batch = synth_batch(8, 4, seed=77)
        layers = [(cfg, init_params(cfg, 78))] * 2
        schedule = ["two_level", "sliding_only"]
        if bad == "mode":
            schedule[-1] = "dense"
        else:
            layers[-1] = (wide, init_params(wide, 79))
        with mock.patch.object(attention, "first_level_forward") as first, \
                mock.patch.object(attention, "layer_forward") as layer, \
                pytest.raises(ValueError, match="mode" if bad == "mode" else "layer 1 d_model"):
            stack_forward(batch, layers, schedule)
        assert first.call_count == layer.call_count == 0


class TestDenseLayerEquivalence:
    @pytest.mark.parametrize("mix", [False, True])
    def test_layer_matches_dense_reference(self, mix):
        cfg = LayerConfig(
            d_model=6, n_heads=2, w1=16, w2=16, kappa=1, xi=1,
            second_level_input="raw_embeddings" if mix else "first_level_output",
        )
        batch = synth_batch(11, 6, seed=63)
        params = init_params(cfg, 64)
        out, _ = layer_forward(batch, params, cfg)
        ref = dense_layer_reference(batch, params, cfg)
        assert relative_diff(out, ref) <= 1e-12


def _grad_groups(out, grads):
    """Output and gradients, one flat vector per parameter group.

    A projection triple is compared as one vector: a key-bias gradient sums
    terms that cancel (exactly, where keys reach the output only through a
    softmax, which ignores a shared shift), so alone it is rounding noise
    with no scale of its own.
    """
    groups = {"output": out, "embeddings": grads.embeddings}
    for level in ("first", "second"):
        groups[level] = np.concatenate([a.ravel() for a in getattr(grads, level)])
    for name in ("w_p_key", "w_p_value"):
        if getattr(grads, name) is not None:
            groups[name] = getattr(grads, name)
    return groups


def _levels(grads):
    """A ``LayerGrads``' arrays by level: the first triple, the second triple
    with the pooling weights (None without them), and the embeddings."""
    return {
        "first": list(grads.first),
        "second": [*grads.second, grads.w_p_key, grads.w_p_value],
        "embeddings": [grads.embeddings],
    }


def _assert_levels_close(got, want, tol):
    """Every array of ``got`` within ``tol`` of the largest entry of ``want`` at its level."""
    for (level, arrays), expected in zip(_levels(got).items(), _levels(want).values()):
        scale = max(np.abs(w).max() for w in expected if w is not None)
        for i, (g, w) in enumerate(zip(arrays, expected)):
            assert (g is None) == (w is None), (level, i)
            if w is not None:
                assert np.abs(g - w).max() <= tol * scale, (level, i)


class TestBlockSizeInvariance:
    CASES = {
        # padding mid-sequence, globals at both ends
        "padded_globals": (
            LayerConfig(d_model=4, n_heads=2, w1=3, w2=6, kappa=3, xi=2, pooling_kind="ldconv"),
            41, (0, 40), (5, 17, 30),
        ),
        # mix reads raw embeddings; three globals, two at the start
        "mix": (
            LayerConfig(d_model=4, n_heads=2, w1=2, w2=5, kappa=4, xi=3,
                        pooling_kind="mean_ldconv", second_level_input="raw_embeddings"),
            40, (0, 1, 39), (),
        ),
        # w2 < kappa: some rows see no segment center
        "degenerate": (
            LayerConfig(d_model=4, n_heads=1, w1=0, w2=1, kappa=5, xi=4, pooling_kind="max"),
            38, (), (9,),
        ),
        # w1 large enough that the default block follows w1 (35 rows, not 32)
        "wide_window": (
            LayerConfig(d_model=8, n_heads=4, w1=70, w2=90, kappa=5, xi=4),
            100, (0, 99), (50,),
        ),
        # d = 64, where BLAS rounds short products differently: 300 rows are
        # 9 blocks and a 12-row tail, and a global row mid-sequence
        "wide_rows": (
            LayerConfig(d_model=64, n_heads=4, w1=40, w2=120, kappa=5, xi=4,
                        pooling_kind="ldconv"),
            300, (3, 200), (77,),
        ),
        # d = 64, mean_ldconv pooling over stride 3, no global row
        "wide_rows_no_globals": (
            LayerConfig(d_model=64, n_heads=2, w1=20, w2=90, kappa=4, xi=3,
                        pooling_kind="mean_ldconv"),
            250, (), (),
        ),
        # a padded tail; max pooling with kappa - xi = 2 halo rows; global
        # row 20 lies in the right halo of the 8-row chunk 8..16
        "padded_tail": (
            LayerConfig(d_model=8, n_heads=2, w1=5, w2=12, kappa=4, xi=2, pooling_kind="max"),
            60, (0, 20), tuple(range(47, 60)),
        ),
        # 2*w2 = 80 rows span many 6-row chunks, so the window of pooled
        # segments carries segments across several chunks; segments 20 to 25
        # (rows 60 to 79, all padding) are dropped inside it
        "window_carry": (
            LayerConfig(d_model=8, n_heads=2, w1=4, w2=40, kappa=5, xi=3,
                        pooling_kind="mean_ldconv", second_level_input="raw_embeddings"),
            150, (0, 149), tuple(range(60, 81)),
        ),
    }

    def _inputs(self, case):
        cfg, n, globals_, padded = self.CASES[case]
        emb = symmetric_uniform(81, n * cfg.d_model).reshape(n, cfg.d_model)
        pad = np.ones(n, dtype=bool)
        pad[list(padded)] = False
        batch = SequenceBatch(emb, pad, globals_)
        upstream = symmetric_uniform(83, n * cfg.d_model).reshape(n, cfg.d_model)
        return cfg, n, batch, init_params(cfg, 82), upstream

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("block_size", [1, 7, 64, "n"])
    def test_output_and_gradients_independent_of_block_size(self, case, block_size, monkeypatch):
        cfg, n, batch, params, upstream = self._inputs(case)

        def run():
            out, trace = layer_forward(batch, params, cfg)
            return out, trace, layer_backward(trace, upstream)

        out, trace, grads = run()
        if case == "degenerate":
            assert trace.degenerate_second.any()
        # the row-block partition is the driver's block_rows(n, w1), patched here
        rows = n if block_size == "n" else block_size
        monkeypatch.setattr(attention, "block_rows", lambda n, w1: min(n, rows))
        with mock.patch.object(attention, "_blocks", wraps=attention._blocks) as passes:
            out_b, trace_b, grads_b = run()
        # two forward and two backward passes, each over the layer's w1
        assert [c.args[1] for c in passes.call_args_list] == [cfg.w1] * 4
        # each pass's slices fill the patched grid, rounded down to a multiple
        # of the level's step: none leaves its grid cell, and the largest is a
        # full one wherever a cell holds no global row
        for level in (trace_b.first, trace_b.second):
            step = level.band.step
            block = max(step, min(n, rows) // step * step)
            spans = [r for r, *_ in plan(level) if isinstance(r, slice)]
            assert all(s.start // block == (s.stop - 1) // block for s in spans)
            extra = np.zeros(n, dtype=bool) if level.band.extra is None else level.band.extra
            if not all(extra[c:c + block].any() for c in range(0, n, block)):
                assert max(s.stop - s.start for s in spans) == min(n, block)
        np.testing.assert_array_equal(trace_b.first_counts, trace.first_counts)
        np.testing.assert_array_equal(trace_b.second_counts, trace.second_counts)
        ref = _grad_groups(out, grads)
        got = _grad_groups(out_b, grads_b)
        assert ref.keys() == got.keys()
        for name in ref:
            assert relative_diff(got[name], ref[name]) <= 1e-12, name

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("chunk", ["block", "two_blocks", "n"])
    def test_output_and_gradients_independent_of_chunk_size(self, case, chunk, monkeypatch):
        """The forwards stream chunks of ``CHUNK_ROWS`` rows, rounded down to whole
        blocks, a short tail folded in: one block, two blocks, or all n rows.
        Blocks are 8 rows here, fewer than BLAS needs to round a product's
        rows as the whole sequence's at d = 64.

        Outputs and gradients stay within 1e-12 of the default's (one chunk at
        these n).  Chunks project and pool bitwise as the whole sequence, so
        the first level's rows other than the global ones are bitwise equal,
        and so are z and the second level's statistics where they read no
        global row's y (mix, or no global row); only the global rows' online
        softmax rounds differently.  The trace views stay the fresh
        whole-sequence stages.
        """
        cfg, n, batch, params, upstream = self._inputs(case)
        monkeypatch.setattr(attention, "block_rows", lambda n, w1: min(n, 8))
        out, trace = layer_forward(batch, params, cfg)
        grads = layer_backward(trace, upstream)
        assert len(row_chunks(n, attention._block_size(trace.first.band, cfg.w1))) == 1
        z = trace.z  # rebuilt on access: read it before the chunk size changes
        monkeypatch.setattr(attention, "CHUNK_ROWS", {"block": 1, "two_blocks": 16, "n": n}[chunk])
        out_c, trace_c = layer_forward(batch, params, cfg)
        grads_c = layer_backward(trace_c, upstream)
        for level in (trace_c.first, trace_c.second):
            chunks = row_chunks(n, attention._block_size(level.band, cfg.w1))
            assert (len(chunks) == 1) == (chunk == "n"), chunks
        ref, got = _grad_groups(out, grads), _grad_groups(out_c, grads_c)
        assert ref.keys() == got.keys()
        for name in ref:
            assert relative_diff(got[name], ref[name]) <= 1e-12, name
        banded = np.ones(n, dtype=bool)
        banded[list(batch.global_set)] = False
        np.testing.assert_array_equal(trace_c.y[banded], trace.y[banded])
        if cfg.mix or not batch.global_set:
            np.testing.assert_array_equal(out_c[banded], out[banded])
            np.testing.assert_array_equal(trace_c.z, z)
            for name in ("rowmax", "denom"):
                got, want = getattr(trace_c.second, name), getattr(trace.second, name)
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(trace_c.first_counts, trace.first_counts)
        np.testing.assert_array_equal(trace_c.second_counts, trace.second_counts)
        for name in ("rowmax", "denom"):
            got, want = getattr(trace_c.first, name), getattr(trace.first, name)
            np.testing.assert_array_equal(got[:, banded], want[:, banded])
        check_views(trace_c, fresh_stages(batch, params, cfg, trace_c.y))

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("chunk", ["block", "two_blocks", "n"])
    def test_backward_streams_chunks_of_its_own(self, case, chunk, monkeypatch):
        """The backward streams ``CHUNK_ROWS`` chunks of its own: one 8-row block,
        two blocks or all n rows, after a forward under another ``CHUNK_ROWS``
        (two blocks, or one for "two_blocks").

        Its carries cross every chunk edge: the first level's 2*w1 halo rows
        and global accumulators, and the pooling's kappa - xi halo rows.
        Every gradient array stays within 1e-12 of the largest entry at its
        level of the one-chunk backward's.
        """
        cfg, n, batch, params, upstream = self._inputs(case)
        monkeypatch.setattr(attention, "block_rows", lambda n, w1: min(n, 8))
        _, trace = layer_forward(batch, params, cfg)
        want = layer_backward(trace, upstream)
        monkeypatch.setattr(attention, "CHUNK_ROWS", 1 if chunk == "two_blocks" else 16)
        _, trace = layer_forward(batch, params, cfg)
        monkeypatch.setattr(attention, "CHUNK_ROWS", {"block": 1, "two_blocks": 16, "n": n}[chunk])
        got = layer_backward(trace, upstream)
        for level in (trace.first, trace.second):
            chunks = row_chunks(n, attention._block_size(level.band, cfg.w1))
            assert (len(chunks) == 1) == (chunk == "n"), chunks
        _assert_levels_close(got, want, 1e-12)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_backward_reads_statistics_of_any_partition(self, case, monkeypatch):
        """The trace keeps statistics per row, not per block: a backward under
        another partition than its forward's agrees with one under the same."""
        cfg, n, batch, params, upstream = self._inputs(case)
        monkeypatch.setattr(attention, "block_rows", lambda n, w1: min(n, 7))
        out, trace = layer_forward(batch, params, cfg)
        same = _grad_groups(out, layer_backward(trace, upstream))
        monkeypatch.setattr(attention, "block_rows", lambda n, w1: min(n, 64))
        other = _grad_groups(out, layer_backward(trace, upstream))
        assert same.keys() == other.keys()
        for name in same:
            assert relative_diff(other[name], same[name]) <= 1e-12, name

    @pytest.mark.parametrize("chunk_rows", [attention.CHUNK_ROWS, 100])
    @pytest.mark.parametrize("w1, step", [(128, 1), (128, 3), (16, 2), (0, 5)])
    @pytest.mark.parametrize("n", [1, 40, 100, 1024, 1100, 2047, 2048, 3000])
    def test_chunks_tile_the_rows_in_whole_blocks_and_fold_the_tail(
        self, n, w1, step, chunk_rows, monkeypatch
    ):
        monkeypatch.setattr(attention, "CHUNK_ROWS", chunk_rows)
        band = _Band(partial(window_bounds, w=w1, n=n), row_ok=np.ones(n, dtype=bool), step=step)
        cell = max(step, block_rows(n, w1) // step * step)
        assert attention._block_size(band, w1) == cell
        size = max(cell, chunk_rows // cell * cell)
        chunks = row_chunks(n, cell)
        assert [a for a, _ in chunks] == [0] + [b for _, b in chunks[:-1]]
        assert chunks[-1][1] == n
        # no block crosses a chunk edge; a tail shorter than a chunk joins the last
        assert all(b - a == size for a, b in chunks[:-1])
        last = chunks[-1][1] - chunks[-1][0]
        assert last == n if len(chunks) == 1 else size <= last < 2 * size

    def test_default_block_follows_w1(self):
        assert block_rows(16384, 128) == 64
        assert block_rows(8192, 16) == 32
        assert block_rows(20, 128) == 20


class TestPooledWindow:
    @pytest.mark.parametrize("retain", [False, True])
    def test_each_segment_pooled_once_from_at_most_a_chunk_of_rows(self, retain, monkeypatch):
        """The second level pools every segment once per pass, a chunk's rows
        (8 here) and the kappa - xi halo at most per call, although the first
        chunk's window spans 9 segments (18 rows), and reads no row of the
        padded tail past the last segment's stride step (rows 46 to 48)."""
        cfg = LayerConfig(d_model=8, n_heads=2, w1=5, w2=12, kappa=4, xi=2, pooling_kind="max")
        n = 60
        pad = np.ones(n, dtype=bool)
        pad[47:] = False
        batch = SequenceBatch(symmetric_uniform(81, n * 8).reshape(n, 8), pad, (0, 20))
        monkeypatch.setattr(attention, "block_rows", lambda n, w1: min(n, 8))
        monkeypatch.setattr(attention, "CHUNK_ROWS", 8)
        calls = []

        def pool(op, rows, grid, pad_mask, start, stop):
            calls.append((start, stop, len(rows)))
            return pool_grid_rows(op, rows, grid, pad_mask, start, stop)

        monkeypatch.setattr(attention, "pool_grid_rows", pool)
        _, trace = layer_forward(batch, init_params(cfg, 82), cfg, retain=retain)
        grid = trace.second.grid
        passes = 2 * (2 if retain else 1)  # keys and values, forward and backward
        if retain:
            layer_backward(trace, np.ones((n, 8)))
        pooled = np.zeros(len(grid), dtype=np.int64)
        for start, stop, rows in calls:
            assert stop - start <= 8 and rows <= 8 + cfg.kappa - cfg.xi
            assert stop <= grid.segment_starts[-1] + cfg.xi
            pooled[slice(*np.searchsorted(grid.segment_starts, (start, stop)))] += 1
        np.testing.assert_array_equal(pooled, passes)


class TestBlockPlan:
    CFG = LayerConfig(d_model=4, n_heads=2, w1=8, w2=20, kappa=3, xi=2)

    @pytest.mark.parametrize("globals_", [(0, 1, 2), (45, 46, 70), (0, 33, 99)])
    def test_global_rows_come_first_and_in_no_banded_block(self, globals_):
        """The global rows' block comes first; the banded blocks are cut around them."""
        n = 100
        batch = SequenceBatch(synth_batch(n, self.CFG.d_model, seed=95).embeddings,
                              np.ones(n, dtype=bool), globals_)
        _, trace = first_level_forward(batch, init_params(self.CFG, 96), self.CFG)
        (rows, cols, *_), *banded = plan(trace)
        np.testing.assert_array_equal(rows, globals_)
        assert cols == slice(0, n)
        held = np.zeros(n, dtype=np.int64)
        held[list(globals_)] += 1
        for rows, *_ in banded:
            assert isinstance(rows, slice)
            assert rows.stop - rows.start <= block_rows(n, self.CFG.w1)
            assert not trace.band.extra[rows].any()
            held[rows] += 1
        np.testing.assert_array_equal(held, 1)  # every row in exactly one block


class TestStatsOnlyTrace:
    CFG = LayerConfig(d_model=8, n_heads=2, w1=64, w2=128, kappa=5, xi=4, pooling_kind="ldconv")

    def _trace(self, n):
        batch = synth_batch(n, self.CFG.d_model, seed=85, global_count=2)
        params = init_params(self.CFG, 86)
        return layer_forward(batch, params, self.CFG)[1]

    def _held(self, level):
        """The arrays a level trace holds besides its inputs, output and pooled grid."""
        skip = {"batch", "params", "config", "source", "grid", "y", "_pad_arg"}
        seen: set = set()  # what the skipped fields reach, the band's grid too
        for name in skip & vars(level).keys():
            _reachable_arrays(getattr(level, name), name, seen)
        return {
            key: a for name, value in vars(level).items() if name not in skip
            for key, a in _reachable_arrays(value, name, seen).items()
        }

    def test_blocks_hold_no_mask(self):
        """No mask and no key column array: masks are rebuilt from the level's band."""
        n = 512
        trace = self._trace(n)
        for level in (trace.first, trace.second):
            held = self._held(level)
            # the band's per-row and per-key flags, each one entry per token
            assert all(a.ndim == 1 and a.size == n for a in held.values() if a.dtype == bool)
            # the counts are the only integers: one int64 per row
            assert sum(a.nbytes for a in held.values() if a.dtype.kind in "iu") == 8 * n

    def test_trace_holds_two_floats_per_head_and_row(self):
        cfg, n = self.CFG, 512
        trace = self._trace(n)
        for level in (trace.first, trace.second):
            floats = [a for a in self._held(level).values() if a.dtype.kind == "f"]
            # row max and denominator per head and row, whatever the partition
            assert level.rowmax.shape == level.denom.shape == (cfg.n_heads, n, 1)
            assert sum(a.nbytes for a in floats) == 2 * 8 * cfg.n_heads * n

    @pytest.mark.parametrize("level", ["first", "second"])
    def test_replayed_probabilities_reproduce_forward_bitwise(self, level):
        trace = self._trace(200)
        lt = getattr(trace, level)
        # the inputs each level's backward rebuilds from what the trace holds
        qh, kh, vh = (_heads(m, self.CFG.n_heads) for m in map(lt._input, range(3)))
        out = trace.y if level == "first" else trace.z
        replayed = np.zeros_like(out)
        replayed_h = _heads(replayed, self.CFG.n_heads)
        for rows, cols, bias, _ in plan(lt):
            e = _replay_probs(qh[:, rows], kh[:, cols], bias, lt.rowmax[:, rows], self.CFG.alpha())
            # the replay is unnormalized: the forward divides its output by denom
            replayed_h[:, rows] = np.matmul(e, vh[:, cols]) / lt.denom[:, rows]
        np.testing.assert_array_equal(replayed, out)


class TestBlockBias:
    """Runs of like blocks share one mask bias, and sharing never changes a block's bias."""

    # (config, n, globals, padded tail, patched block rows, whether most blocks share)
    CASES = {
        # leading globals, xi = kappa: every interior block looks alike
        "plain": (LayerConfig(d_model=8, n_heads=2, w1=64, w2=128, kappa=4, xi=4),
                  1024, (0, 1), 0, None, True),
        # a padded tail, mix and shared projections; xi = 1
        "padded_mix_share": (LayerConfig(d_model=8, n_heads=2, w1=64, w2=96, kappa=3, xi=1,
                                         pooling_kind="mean_ldconv", share_projections=True,
                                         second_level_input="raw_embeddings"),
                             1024, (0, 1), 200, None, True),
        # globals inside the sequence: neighbouring blocks whose unions hold
        # one differ only in extra[cols]
        "inner_globals": (LayerConfig(d_model=8, n_heads=2, w1=64, w2=128, kappa=4, xi=4),
                          512, (0, 300, 400), 0, None, False),
        # a patched row block dividing neither n, the window nor the stride
        "patched_block": (LayerConfig(d_model=4, n_heads=1, w1=8, w2=20, kappa=5, xi=5,
                                      pooling_kind="max"), 300, (7,), 30, 13, False),
    }

    def _trace(self, case, monkeypatch):
        cfg, n, globals_, padded, block, _ = self.CASES[case]
        if block is not None:
            monkeypatch.setattr(attention, "block_rows", lambda n, w1: min(n, block))
        pad = np.ones(n, dtype=bool)
        pad[n - padded:] = False
        emb = synth_batch(n, cfg.d_model, seed=98).embeddings
        return layer_forward(SequenceBatch(emb, pad, globals_), init_params(cfg, 99), cfg)[1]

    @pytest.mark.parametrize("case", CASES)
    def test_shared_bias_equals_block_mask(self, case, monkeypatch):
        trace = self._trace(case, monkeypatch)
        for level in (trace.first, trace.second):
            blocks = plan(level)
            misses = check_block_biases(level)
            if self.CASES[case][-1]:
                assert len(blocks) >= 8
                assert len(blocks) - misses > misses

    def test_blocks_around_an_extra_row(self, monkeypatch):
        """The extra row sees every valid key; each slice around it, its band and the extra."""
        n = 16
        extra = np.zeros(n, dtype=bool)
        extra[10] = True
        key_ok = np.ones(n, dtype=bool)
        key_ok[14] = False
        # every row sees keys 0 to 3 and the extra key 10, outside the union
        band = _Band(lambda r: (np.zeros_like(r), np.full_like(r, 4)), np.ones(n, dtype=bool),
                     key_ok, extra)
        monkeypatch.setattr(attention, "block_rows", lambda n, w1: 4)
        level = SimpleNamespace(band=band, config=LayerConfig(w1=0, w2=0))
        # the two full slices before the extra row share one mask
        assert check_block_biases(level) == 4
        counts = np.zeros(n, dtype=np.int64)
        for rows, _, _, seen in plan(level):
            counts[rows] = seen
        np.testing.assert_array_equal(counts, np.where(extra, n - 1, 5))

    def test_second_level_slices_follow_the_stride(self):
        """Slices are a multiple of xi rows, so interior blocks share a mask
        even where ``block_rows`` (64) is not one."""
        cfg, n = LayerConfig(xi=3), 4096
        batch = synth_batch(n, cfg.d_model, seed=97)
        with mock.patch.object(attention, "_block_mask", wraps=_block_mask) as built:
            _, trace = layer_forward(batch, init_params(cfg, 98), cfg)
        assert built.call_count == 25
        sizes = [rows.stop - rows.start for rows, *_ in plan(trace.second)]
        assert max(sizes) == 63
        assert all(size % cfg.xi == 0 for size in sizes[:-1])


def _explicit_backward(level, upstream, q, k, v, cfg):
    """The softmax backward ``p * (dp - rowsum(p * dp))`` over the level's block masks, densely."""
    mask = np.zeros((len(q), len(k)), dtype=bool)
    for rows, cols, bias, _ in plan(level):
        r, c = np.arange(len(q))[rows], np.arange(len(k))[cols]
        mask[np.ix_(r, c)] |= bias == 0.0
    grads = [np.zeros_like(m) for m in (q, k, v)]
    dh, alpha = cfg.head_dim, cfg.alpha()
    for h in range(cfg.n_heads):
        c = slice(h * dh, (h + 1) * dh)
        s = np.where(mask, alpha * q[:, c] @ k[:, c].T, -np.inf)
        rowmax = np.where(mask.any(axis=1, keepdims=True), s.max(axis=1, keepdims=True), 0.0)
        p = np.exp(s - rowmax)
        total = p.sum(axis=1, keepdims=True)
        p /= np.where(total == 0.0, 1.0, total)
        du = upstream[:, c]
        dp = du @ v[:, c].T
        ds = p * (dp - (p * dp).sum(axis=1, keepdims=True))
        grads[0][:, c] = alpha * ds @ k[:, c]
        grads[1][:, c] = alpha * ds.T @ q[:, c]
        grads[2][:, c] = p.T @ du
    return grads


def _blocked_backward(level, upstream, out, q, k, v, cfg):
    """The level's blocks run backward by ``_block_backward`` over whole (n, d) inputs;
    ``out`` None takes each block's D from its own probabilities."""
    grads = [np.zeros_like(m) for m in (q, k, v)]
    qh, kh, vh, uh = (_heads(m, cfg.n_heads) for m in (q, k, v, upstream))
    oh = None if out is None else _heads(out, cfg.n_heads)
    for rows, cols, bias, _ in plan(level):
        parts = _block_backward(qh[:, rows], kh[:, cols], vh[:, cols], uh[:, rows],
                                None if oh is None else oh[:, rows], bias,
                                level.rowmax[:, rows], level.denom[:, rows], cfg.alpha())
        for grad, idx, part in zip(grads, (rows, cols, cols), parts):
            grad[idx] += part
    return grads


class TestBackwardDForm:
    """The block backward's D forms equal the explicit softmax backward: the first
    level's ``D = rowsum(dO * O)`` from y, the second level's ``D = rowsum(P * dP)``
    from each block's own probabilities and score gradient, with no z."""

    # (config, n, padded rows, globals): a padded tail and a padded row mid-sequence;
    # w2 < kappa, where rows see no segment center, with a padded tail
    CASES = {
        "padded": (LayerConfig(d_model=8, n_heads=2, w1=4, w2=12, kappa=3, xi=2,
                               pooling_kind="ldconv"), 60, [20, *range(51, 60)], (0, 1, 30)),
        "degenerate": (LayerConfig(d_model=8, n_heads=2, w1=1, w2=1, kappa=5, xi=4,
                                   pooling_kind="max"), 50, list(range(44, 50)), (3,)),
    }

    def _check(self, cfg, n, padded, globals_):
        """Both levels' blocked backward against the explicit one; returns the trace,
        the upstream and each level's blocked (d_q, d_k, d_v)."""
        pad = np.ones(n, dtype=bool)
        pad[padded] = False
        batch = SequenceBatch(synth_batch(n, cfg.d_model, seed=100).embeddings, pad, globals_)
        _, trace = layer_forward(batch, init_params(cfg, 101), cfg)
        upstream = symmetric_uniform(102, n * cfg.d_model).reshape(n, cfg.d_model)
        blocked = []
        # the first level's D for global rows comes from the global block's rows of y
        for level, out in ((trace.first, trace.y), (trace.second, None)):
            q, k, v = map(level._input, range(3))
            qh, kh = _heads(q, cfg.n_heads), _heads(k, cfg.n_heads)
            for rows, cols, bias, _ in plan(level):
                rowmax = level.rowmax[:, rows]
                e = _replay_probs(qh[:, rows], kh[:, cols], bias, rowmax, cfg.alpha())
                assert not e[:, ~level.band.row_ok[rows]].any()  # padding rows: e = 0
            got = _blocked_backward(level, upstream, out, q, k, v, cfg)
            want = _explicit_backward(level, upstream, q, k, v, cfg)
            for name, g, w in zip("qkv", got, want):
                assert relative_diff(g, w) <= 1e-12, name
            blocked.append(got)
        return trace, upstream, blocked

    @pytest.mark.parametrize("mix", [False, True])
    def test_matches_explicit_softmax_backward(self, mix):
        cfg, *rest = self.CASES["padded"]
        cfg = replace(cfg, second_level_input="raw_embeddings" if mix else "first_level_output")
        self._check(cfg, *rest)

    @pytest.mark.parametrize("case", CASES)
    def test_rows_that_see_nothing_get_exact_zeros(self, case):
        """Rows with ``seen == 0`` (padding, and valid rows that see no segment
        center) replay all-zero probabilities, so either D form leaves their
        query gradients exactly zero, and the layer's input gradient is exactly
        zero on padding rows."""
        trace, upstream, blocked = self._check(*self.CASES[case])
        assert trace.degenerate_second.any() == (case == "degenerate")
        for level, (d_q, _, _) in zip((trace.first, trace.second), blocked):
            blind = level.counts == 0
            assert blind.any()
            np.testing.assert_array_equal(d_q[blind], 0.0)
        grads = layer_backward(trace, upstream)
        np.testing.assert_array_equal(grads.embeddings[~trace.batch.pad_mask], 0.0)


class TestPaddedBlocks:
    @pytest.mark.parametrize("mix", [False, True])
    def test_no_kept_block_is_all_padding(self, mix):
        """A row block whose rows are all padding is skipped at both levels."""
        cfg = LayerConfig(d_model=8, n_heads=2, w1=64, w2=128, kappa=4, xi=2,
                          pooling_kind="mean_ldconv",
                          second_level_input="raw_embeddings" if mix else "first_level_output")
        n = 512
        batch = synth_batch(n, cfg.d_model, seed=87, global_count=2)
        pad = np.ones(n, dtype=bool)
        pad[n - n // 4:] = False  # four whole blocks of padding, and a padded row mid-block
        pad[100] = False
        batch = SequenceBatch(batch.embeddings, pad, batch.global_set)
        trace = layer_forward(batch, init_params(cfg, 88), cfg)[1]
        for level in (trace.first, trace.second):
            blocks = plan(level)
            assert all(level.band.row_ok[rows].any() for rows, *_ in blocks)
            kept = np.zeros(n, dtype=bool)
            for rows, *_ in blocks:
                kept[rows] = True
            # every valid row is still in a kept block
            assert kept[pad].all()


class TestRowLayoutTrace:
    """Every level's inputs are (n, d) rows; trace views re-project them on access.

    The views are the arrays the layer attended, heads being column blocks of
    them, so they equal ``project_qkv`` and ``pool_grid`` at every size, short
    inputs included (n=40 at d=64, d/h=16).
    """

    PADDED_MIX = LayerConfig(w1=16, w2=1024, kappa=4, xi=2, pooling_kind="mean_ldconv",
                             second_level_input="raw_embeddings")
    CASES = {
        "default": (LayerConfig(), 256, 8, 0.0),
        "default_short": (LayerConfig(), 40, 8, 0.0),
        "ldconv": (LayerConfig(pooling_kind="ldconv"), 256, 8, 0.0),
        "padded_mix": (PADDED_MIX, 256, 4, 0.3),
        "small_shared": (LayerConfig(d_model=8, n_heads=2, w1=4, w2=12, kappa=3, xi=2,
                                     share_projections=True), 100, 2, 0.2),
        # w2 < kappa // 2: a chunk's window ends before the last segment that
        # starts in its rows, which must be pooled before z is added to them
        "short_w2": (LayerConfig(d_model=8, n_heads=2, w1=1, w2=1, kappa=9, xi=2,
                                 pooling_kind="max"), 300, 2, 0.1),
    }

    def _inputs(self, case):
        cfg, n, g, pad_share = self.CASES[case]
        batch = synth_batch(n, cfg.d_model, seed=95, global_count=g)
        pad = np.ones(n, dtype=bool)
        pad[n - int(pad_share * n):] = False
        return cfg, SequenceBatch(batch.embeddings, pad, batch.global_set), init_params(cfg, 96)

    @pytest.mark.parametrize("retain", [False, True])
    @pytest.mark.parametrize("case", CASES)
    def test_trace_views_equal_fresh_stages_bitwise(self, case, retain):
        """A ``retain=False`` layer trace's first-level views, and its
        second-level views in the mix setting, are the fresh stages too; without
        mix, y became the output, and its second-level views raise."""
        cfg, batch, params = self._inputs(case)
        y = layer_forward(batch, params, cfg)[1].y
        _, trace = layer_forward(batch, params, cfg, retain=retain)
        check_views(trace, fresh_stages(batch, params, cfg, y))

    @pytest.mark.parametrize("chunk_rows", [attention.CHUNK_ROWS, 64])
    @pytest.mark.parametrize("case", CASES)
    def test_inference_output_is_bitwise_the_retained_output(self, case, chunk_rows, monkeypatch):
        """``retain=False`` adds each chunk's z into y's own buffer: ``y[rows] += z``
        rounds as ``y + z``, and a chunk's q2 is projected before its z is added."""
        monkeypatch.setattr(attention, "CHUNK_ROWS", chunk_rows)
        cfg, batch, params = self._inputs(case)
        out, _ = layer_forward(batch, params, cfg)
        out_d, _ = layer_forward(batch, params, cfg, retain=False)
        assert out_d.tobytes() == out.tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_trace_holds_no_projection(self, case):
        """A trace holds y, the output, counts, block statistics and the grid: no z.

        No projection or pooled grid is kept: every reader re-projects from the
        batch, the parameters and ``source`` (the embeddings, or y).
        """
        cfg, batch, params = self._inputs(case)
        _, trace = layer_forward(batch, params, cfg)
        n, g = batch.n, len(batch.global_set)
        skip = {id(batch), id(params), id(batch.embeddings), id(batch.pad_mask)}
        held = sum(a.nbytes for a in _reachable_arrays(trace, "trace", skip).values())
        design = sum(a.nbytes for a in (trace.y, trace.final))
        design += 2 * 8 * n + n  # counts of both levels and the degenerate flags
        # row maxima and denominators of both levels, plus the global rows' block
        design += 2 * 2 * 8 * cfg.n_heads * (n + block_rows(n, cfg.w1))
        design += 8 * (-(-n // block_rows(n, cfg.w1)) * g + g)  # out-of-union global columns
        design += 2 * n  # the first level's row validity and global flags
        design += 3 * 8 * len(trace.second.grid)  # segment starts, lengths and centers
        assert held <= design, f"held {held} bytes, design {design}"


def _reachable_arrays(obj, path: str, seen: set | None = None) -> dict[str, np.ndarray]:
    """Every ndarray reachable from ``obj`` through fields, sequences and partials, by path."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return {}
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return {path: obj}
    if isinstance(obj, partial):
        children = {"args": obj.args, "keywords": obj.keywords}
    elif isinstance(obj, dict):
        children = obj
    elif isinstance(obj, (list, tuple)):
        children = dict(enumerate(obj))
    elif hasattr(obj, "__dict__"):
        children = vars(obj)
    else:
        return {}
    found = {}
    for key, child in children.items():
        found.update(_reachable_arrays(child, f"{path}.{key}", seen))
    return found


def _assert_bitwise_equal(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key, a in got.items():
        b = want[key]
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), key


class TestBackwardPurity:
    """``layer_backward`` adds into its own masked upstream and consumes gradient lists.

    Neither may reach the caller's arrays: the trace, its output and the
    upstream stay bitwise unchanged, so a second backward on the same trace
    returns bitwise-equal gradients.
    """

    CASES = TestRowLayoutTrace.CASES
    _inputs = TestRowLayoutTrace._inputs

    @pytest.mark.parametrize("case", CASES)
    def test_backward_leaves_trace_and_upstream_unchanged(self, case):
        cfg, batch, params = self._inputs(case)
        _, trace = layer_forward(batch, params, cfg)
        upstream = symmetric_uniform(97, batch.n * cfg.d_model).reshape(batch.n, cfg.d_model)
        arrays = _reachable_arrays(trace, "trace")
        arrays["upstream"] = upstream
        # what the trace holds, by field; nothing the backward rebuilds (the
        # second level's band holds only the pad mask and the grid, reached first)
        fields = {".".join(key.split(".")[:3]) for key in arrays}
        assert fields == {
            "trace.first.batch", "trace.first.params", "trace.first.y", "trace.first.counts",
            "trace.first.band", "trace.first.rowmax", "trace.first.denom", "trace.second.grid",
            "trace.second.counts", "trace.second.degenerate",
            "trace.second.rowmax", "trace.second.denom", "trace.final", "upstream",
        }
        before = {key: a.copy() for key, a in arrays.items()}

        grads = _reachable_arrays(layer_backward(trace, upstream), "grads")
        _assert_bitwise_equal(arrays, before)
        _assert_bitwise_equal(_reachable_arrays(layer_backward(trace, upstream), "grads"), grads)


class TestOverflowErrors:
    """Each stage's non-finite error names the stage and the first token or segment."""

    def _params(self, cfg, stage):
        params = init_params(cfg, 88)
        if stage == "project_qkv":
            params.first.w_q[:] = 1.0  # four 1e308 terms per hot query entry
            return params
        # finite projections; positive scores between hot rows
        for triple in (params.first, params.second):
            for w in (triple.w_q, triple.w_k, triple.w_v):
                w[:] = 0.0
        if stage == "first_level_forward":
            params.first.w_q[:] = params.first.w_k[:] = np.eye(cfg.d_model)
        elif stage == "second_level_forward":
            params.second.w_q[:] = params.second.w_k[:] = np.eye(cfg.d_model)
        else:  # only the pooled mean of the two hot rows overflows
            params.second.w_k[:] = np.eye(cfg.d_model)
        return params

    @pytest.mark.parametrize("stage, scale, hot, where", [
        ("project_qkv", 1e308, (5,), "token 5"),
        ("first_level_forward", 1e200, (5,), "token 5"),  # projections finite, scores overflow
        ("second_level_forward", 1e200, (7,), "token 7"),
        ("pool_grid", 1e308, (4, 5), "segment 2"),  # segment 2 pools rows 4 to 6
    ])
    def test_error_names_the_stage_and_index(self, stage, scale, hot, where):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2,
                          second_level_input="raw_embeddings")
        emb = np.ones((12, 4))
        emb[list(hot)] = scale
        params = self._params(cfg, stage)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=rf"^{stage}: .*{where}$"):
            layer_forward(SequenceBatch.of(emb), params, cfg)

    def test_pooling_error_names_the_segment_in_the_whole_grid(self, monkeypatch):
        """Each chunk pools only the segments new to its window: an overflow in a
        later chunk's range names the segment's index in the whole grid.  Chunks
        are 8 rows, so segment 15 (rows 30 to 32), whose mean of the two hot
        rows overflows, is the first segment the chunk of rows 24 to 32 pools."""
        monkeypatch.setattr(attention, "block_rows", lambda n, w1: min(n, 8))
        monkeypatch.setattr(attention, "CHUNK_ROWS", 8)
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2,
                          second_level_input="raw_embeddings")
        emb = np.ones((40, 4))
        emb[[30, 31]] = 1e308
        params = self._params(cfg, "pool_grid")
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"^pool_grid: .*first at segment 15$"
        ):
            layer_forward(SequenceBatch.of(emb), params, cfg)

    @pytest.mark.parametrize("hot, global_set", [(30, (0, 30)), (17, ())])
    def test_key_projection_error_names_the_gathered_token(self, hot, global_set, monkeypatch):
        """A chunk's keys are one product over its key union and the global rows:
        the error names the token, not its row in that gather.  Chunks are 8
        rows, so token 17 is first projected in the right halo of rows 8 to 16
        (union 6 to 18), and the global token 30 after chunk 0's union (0 to 10)."""
        monkeypatch.setattr(attention, "block_rows", lambda n, w1: min(n, 8))
        monkeypatch.setattr(attention, "CHUNK_ROWS", 8)
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2)
        emb = np.ones((40, 4))
        emb[hot] = 1e308
        params = init_params(cfg, 88)
        params.first.w_q[:] = 0.0
        params.first.w_k[:] = 1.0  # only the keys overflow
        batch = SequenceBatch.of(emb, global_set=global_set)
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=rf"^project_qkv: .*first at token {hot}$"
        ):
            first_level_forward(batch, params, cfg)

    def test_matrix_error_names_row_and_column(self):
        data = np.zeros((3, 4))
        data[2, 1] = np.inf
        data[2, 3] = np.nan
        with pytest.raises(ValueError, match=r"must be finite .*row 2, column 1$"):
            matrix(data)

    def test_upstream_error_names_row_and_column(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=2, w2=6, kappa=3, xi=2)
        _, trace = layer_forward(synth_batch(12, 4, seed=89), init_params(cfg, 90), cfg)
        upstream = np.zeros((12, 4))
        upstream[6, 3] = np.nan
        with pytest.raises(ValueError, match=r"must be finite; first at row 6, column 3$"):
            layer_backward(trace, upstream)


class TestMaskedScores:
    def test_additive_mask_equals_where(self):
        rng = np.random.default_rng(90)
        qr, kc = rng.standard_normal((4, 64, 16)), rng.standard_normal((4, 320, 16))
        allowed = rng.random((64, 320)) < 0.4
        allowed[3] = False  # a row with nothing visible
        # alpha scales the queries, not the scores
        scores = np.matmul(qr * 0.25, kc.transpose(0, 2, 1))
        expected = np.where(allowed, scores, -np.inf)
        got = _masked_scores(qr, kc, np.where(allowed, 0.0, -np.inf), 0.25)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestMalformedBatch:
    def test_error_names_the_blind_token(self, monkeypatch):
        # moving the window start of token `block` (the second block's first
        # row) one column right leaves it, at w1=0, without a visible key
        block = block_rows(96, 0)
        real = attention.window_bounds

        def narrowed(i, w, n):
            lo, hi = real(i, w, n)
            return np.where(i == block, lo + 1, lo), hi

        monkeypatch.setattr(attention, "window_bounds", narrowed)
        cfg = LayerConfig(d_model=4, n_heads=2, w1=0, w2=4, kappa=2, xi=2)
        batch = synth_batch(96, cfg.d_model, seed=93)
        with pytest.raises(ValueError, match=rf"receptive field of token {block} is entirely"):
            first_level_forward(batch, init_params(cfg, 94), cfg)
