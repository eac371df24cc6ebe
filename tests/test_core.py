import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from poolattn.core import (
    LayerConfig,
    LayerParams,
    ProjectionTriple,
    SequenceBatch,
    matrix,
    product_rows,
    project,
    project_qkv,
    softmax_row,
    zeros_params,
    zeros_projection,
)

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestMatrixValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            matrix([[1.0, float("nan")]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            matrix([[1.0, 2.0]], rows=2, cols=2)
        with pytest.raises(ValueError):
            matrix([1.0, 2.0])

    def test_row_major_float64(self):
        m = matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.flags["C_CONTIGUOUS"]
        assert m.shape == (2, 2)


class TestSoftmaxRow:
    def test_uniform_on_equal_scores(self):
        np.testing.assert_allclose(softmax_row([0.0, 0.0, 0.0]), [1 / 3] * 3, rtol=0, atol=0)

    def test_single_element_is_one(self):
        for x in (-1e300, 0.0, 3.5, 1e300):
            np.testing.assert_array_equal(softmax_row([x]), [1.0])

    def test_huge_gap_underflows_without_overflow(self):
        # extended-precision value of the small weight: exp(-1000) / (1 + exp(-1000))
        import mpmath

        tiny = mpmath.exp(-1000) / (1 + mpmath.exp(-1000))
        assert tiny < mpmath.mpf(5e-324)  # below the smallest float64 subnormal
        out = softmax_row([1000.0, 0.0])
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax_row([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax_row([1.0, float("nan")])

    @given(st.lists(finite_floats, min_size=1, max_size=30))
    def test_sums_to_one_and_shift_invariant(self, scores):
        out = softmax_row(scores)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert (out >= 0).all()
        shifted = softmax_row(np.asarray(scores) + 17.25)
        np.testing.assert_allclose(out, shifted, rtol=0, atol=1e-15)

    @given(st.lists(finite_floats, min_size=2, max_size=10))
    def test_monotone_in_inputs(self, scores):
        out = softmax_row(scores)
        order = np.argsort(scores)
        assert (np.diff(out[order]) >= -1e-15).all()


class TestProjectQkv:
    def test_identity_projection(self):
        d = 3
        eye = np.eye(d)
        zero = np.zeros(d)
        proj = ProjectionTriple(eye, zero, eye, zero, eye, zero)
        x = matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        q, k, v = project_qkv(x, proj)
        for out in (q, k, v):
            np.testing.assert_array_equal(out, x)

    def test_bias_broadcast_over_tokens(self):
        d = 2
        c = np.array([0.5, -1.5])
        proj = ProjectionTriple(np.zeros((d, d)), c, np.zeros((d, d)), c, np.zeros((d, d)), c)
        q, k, v = project_qkv(np.zeros((4, d)), proj)
        for out in (q, k, v):
            np.testing.assert_array_equal(out, np.tile(c, (4, 1)))

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(5)
        n, d = 3, 4
        x = rng.standard_normal((n, d))
        mats = [rng.standard_normal((d, d)) for _ in range(3)]
        biases = [rng.standard_normal(d) for _ in range(3)]
        proj = ProjectionTriple(mats[0], biases[0], mats[1], biases[1], mats[2], biases[2])
        outs = project_qkv(x, proj)
        for out, w, b in zip(outs, mats, biases):
            expected = np.empty((n, d))
            for i in range(n):
                for r in range(d):
                    acc = b[r]
                    for c in range(d):
                        acc += w[r, c] * x[i, c]
                    expected[i, r] = acc
            np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_linear_with_zero_bias(self):
        rng = np.random.default_rng(6)
        d = 3
        w = rng.standard_normal((d, d))
        zero = np.zeros(d)
        proj = ProjectionTriple(w, zero, w, zero, w, zero)
        x1 = rng.standard_normal((5, d))
        x2 = rng.standard_normal((5, d))
        a, b = 2.5, -0.75
        combined = project_qkv(a * x1 + b * x2, proj)[0]
        separate = a * project_qkv(x1, proj)[0] + b * project_qkv(x2, proj)[0]
        np.testing.assert_allclose(combined, separate, rtol=1e-12)

    def test_dimension_mismatch(self):
        proj = zeros_projection(3)
        with pytest.raises(ValueError):
            project_qkv(np.zeros((2, 4)), proj)

    @pytest.mark.parametrize("d", [8, 32, 64])
    def test_products_of_product_rows_rows_equal_the_whole_projection(self, d):
        """The BLAS fact the chunked forward rests on: a projection of at least
        ``product_rows(d)`` rows, sliced or gathered, gives each row bitwise the
        bits of the whole projection.  OpenBLAS 0.3.31 on x86-64 rounds products
        of at most 1200 entries and inner dimension >= 32 with another kernel:
        there, at d = 64, slices of 1 to 18 rows differ in the last bit, and at
        d = 32 slices of up to 37 rows.  ``MIN_BLOCK`` (32) rows suffice at d = 8
        and d = 64, not at d = 32."""
        rng = np.random.default_rng(d)
        n = 2048
        x, w, b = rng.standard_normal((n, d)), rng.standard_normal((d, d)), rng.standard_normal(d)
        whole = project(x, w, b)
        least = product_rows(d)
        sizes = {least, least + 1, 64, 1024} | ({32} if d != 32 else set())
        for m in sorted(sizes):
            for start in (0, 5, n - m):
                np.testing.assert_array_equal(project(x[start:start + m], w, b),
                                              whole[start:start + m])
        pick = np.concatenate([[3, 700, 2047], np.arange(least - 3)])
        np.testing.assert_array_equal(project(x[pick], w, b), whole[pick])

    def test_error_names_the_token_a_row_stands_for(self):
        x = np.ones((6, 2))
        x[4] = 1e308
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"first at token 14$"):
            project(x, np.ones((2, 2)), np.zeros(2), tokens=range(10, 16))


class TestLayerConfig:
    def test_defaults(self):
        cfg = LayerConfig()
        assert (cfg.w1, cfg.w2, cfg.kappa, cfg.xi) == (128, 512, 5, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d_model=10, n_heads=4),
            dict(w1=-1),
            dict(w1=8, w2=4),
            dict(kappa=0),
            dict(kappa=5, xi=8),
            dict(xi=0),
            dict(pooling_kind="conv"),
            dict(second_level_input="nope"),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LayerConfig(**kwargs)

    def test_alpha_is_per_head(self):
        cfg = LayerConfig(d_model=16, n_heads=4)
        assert cfg.alpha() == pytest.approx(1 / math.sqrt(4))
        single = LayerConfig(d_model=16, n_heads=1)
        assert single.alpha() == pytest.approx(1 / math.sqrt(16))


class TestLayerParams:
    def test_share_requires_alias(self):
        cfg = LayerConfig(d_model=4, n_heads=2, w1=1, w2=2, kappa=1, xi=1,
                          share_projections=True)
        params = LayerParams(zeros_projection(4), zeros_projection(4))
        with pytest.raises(ValueError, match="alias"):
            params.validate(cfg)
        shared = zeros_params(cfg)
        assert shared.second is shared.first

    def test_pool_weights_presence(self):
        ld = LayerConfig(d_model=4, n_heads=2, w1=1, w2=2, kappa=2, xi=1,
                         pooling_kind="ldconv")
        with pytest.raises(ValueError, match="w_p_key"):
            LayerParams(zeros_projection(4), zeros_projection(4)).validate(ld)
        mean = LayerConfig(d_model=4, n_heads=2, w1=1, w2=2, kappa=2, xi=1)
        bad = LayerParams(
            zeros_projection(4), zeros_projection(4),
            np.zeros((2, 4)), np.zeros((2, 4)),
        )
        with pytest.raises(ValueError, match="no pooling weights"):
            bad.validate(mean)


class TestSequenceBatch:
    def test_global_must_be_real_token(self):
        emb = np.zeros((4, 2))
        pad = np.array([True, True, False, True])
        with pytest.raises(ValueError, match="padding"):
            SequenceBatch(emb, pad, (2,))

    def test_global_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            SequenceBatch.of(np.zeros((3, 2)), global_set=(3,))

    def test_global_must_be_sorted_unique(self):
        with pytest.raises(ValueError, match="sorted"):
            SequenceBatch.of(np.zeros((3, 2)), global_set=(1, 0))

    def test_rejects_nan_embeddings(self):
        with pytest.raises(ValueError, match="finite"):
            SequenceBatch.of([[float("nan")]])
