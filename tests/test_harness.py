import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import poolattn.attention as attention
import poolattn.harness as harness
import poolattn.pooling as pooling
from poolattn.cli import main as cli_main
from poolattn.core import LayerConfig, project_qkv
from poolattn.harness import (
    RunConfig,
    batch_checksum,
    central_difference,
    gradcheck_layer,
    init_params,
    load_config,
    max_rel_error,
    parse_config,
    run_bench,
    run_forward,
    run_gradcheck,
    run_oracle_diff,
    serialize_config,
    splitmix64,
    symmetric_uniform,
    synth_batch,
    unit_uniform,
)
from poolattn.windowing import segment_bounds
from pooling_reference import pool_segment_backward

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "synth_checksums.json").read_text()
)

SMALL_LAYER = LayerConfig(d_model=8, n_heads=2, w1=8, w2=32, kappa=5, xi=4)
GRAD_LAYER = LayerConfig(d_model=6, n_heads=2, w1=2, w2=6, kappa=3, xi=2)


def scalar_splitmix64(seed, count):
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    def test_matches_scalar_reference(self):
        for seed in (0, 1, 12345, 2**64 - 1):
            np.testing.assert_array_equal(
                splitmix64(seed, 16), scalar_splitmix64(seed, 16)
            )

    def test_offset_continues_the_stream(self):
        whole = splitmix64(99, 10)
        np.testing.assert_array_equal(splitmix64(99, 6, offset=4), whole[4:])

    def test_unit_uniform_range(self):
        u = unit_uniform(7, 10_000)
        assert (u >= 0).all() and (u < 1).all()
        s = symmetric_uniform(7, 10_000)
        assert (s >= -1).all() and (s < 1).all()


class TestSynthBatch:
    def test_deterministic(self):
        a = synth_batch(32, 8, 123, 2)
        b = synth_batch(32, 8, 123, 2)
        np.testing.assert_array_equal(a.embeddings, b.embeddings)
        assert a.global_set == b.global_set == (0, 1)

    def test_empty_global_set(self):
        assert synth_batch(8, 2, 1).global_set == ()

    def test_golden_checksums(self):
        for key, expected in GOLDEN.items():
            parts = dict(p.split("=") for p in key.split())
            batch = synth_batch(int(parts["n"]), int(parts["d"]), int(parts["seed"]))
            assert batch_checksum(batch.embeddings) == expected

    def test_init_params_deterministic_and_bounded(self):
        cfg = replace(SMALL_LAYER, pooling_kind="ldconv")
        a = init_params(cfg, 5)
        b = init_params(cfg, 5)
        np.testing.assert_array_equal(a.first.w_q, b.first.w_q)
        np.testing.assert_array_equal(a.w_p_key, b.w_p_key)
        bound = 1 / np.sqrt(cfg.d_model)
        assert (np.abs(a.w_p_key) <= bound).all()
        assert not np.array_equal(a.w_p_key, a.w_p_value)

    def test_init_params_shared_alias(self):
        cfg = replace(SMALL_LAYER, share_projections=True)
        params = init_params(cfg, 5)
        assert params.second is params.first


class TestConfigParsing:
    def test_empty_document_gives_defaults(self):
        rc = parse_config("")
        assert rc == RunConfig()
        assert (rc.layer.w1, rc.layer.w2, rc.layer.kappa, rc.layer.xi) == (128, 512, 5, 4)

    def test_full_round_trip(self):
        rc = RunConfig(
            layer=LayerConfig(
                d_model=16, n_heads=4, w1=4, w2=20, kappa=9, xi=8,
                pooling_kind="mean_ldconv", second_level_input="raw_embeddings",
                share_projections=True,
            ),
            n_list=(64, 128), seed=77, trials=3,
        )
        assert parse_config(serialize_config(rc)) == rc

    def test_comments_and_blank_lines(self):
        rc = parse_config("# a comment\n\nw1 = 16  # trailing\nw2 = 64\n")
        assert (rc.layer.w1, rc.layer.w2) == (16, 64)

    def test_constraint_violation_diagnostic(self):
        with pytest.raises(ValueError, match="xi"):
            parse_config("kappa = 5\nxi = 8\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'window'"):
            parse_config("window = 12\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("w1 = 2\nw1 = 3\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("w1 = 4\nmix = yes\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("just some text\n")

    # one non-default value per key, each valid against the other defaults;
    # a round trip alone cannot see two keys that swap fields symmetrically
    ONE_KEY = {
        "d_model": ("32", {"layer": {"d_model": 32}}),
        "n_heads": ("8", {"layer": {"n_heads": 8}}),
        "w1": ("16", {"layer": {"w1": 16}}),
        "w2": ("600", {"layer": {"w2": 600}}),
        "kappa": ("9", {"layer": {"kappa": 9}}),
        "xi": ("2", {"layer": {"xi": 2}}),
        "pooling": ("mean_ldconv", {"layer": {"pooling_kind": "mean_ldconv"}}),
        "mix": ("true", {"layer": {"second_level_input": "raw_embeddings"}}),
        "share_projections": ("true", {"layer": {"share_projections": True}}),
        "n_list": ("64, 128", {"n_list": (64, 128)}),
        "seed": ("77", {"seed": 77}),
        "trials": ("3", {"trials": 3}),
    }

    @pytest.mark.parametrize("key", list(harness.CONFIG_KEYS))
    def test_each_key_sets_only_its_field(self, key):
        value, fields = self.ONE_KEY[key]
        expected = replace(
            RunConfig(),
            layer=replace(LayerConfig(), **fields.get("layer", {})),
            **{name: v for name, v in fields.items() if name != "layer"},
        )
        rc = parse_config(f"{key} = {value}\n")
        assert rc == expected
        assert f"{key} = {value}" in serialize_config(rc).splitlines()

class TestFiniteDifferences:
    def test_central_difference_on_quadratic(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        grad = central_difference(lambda a: float(np.sum(a * a)), x)
        assert max_rel_error(grad, 2 * x) <= 1e-9

    def test_max_rel_error_floor(self):
        assert max_rel_error(np.array([1e-9]), np.array([2e-9])) < 1e-5
        assert max_rel_error(np.array([1.0]), np.array([1.0 + 1e-4])) > 1e-5


class TestRunners:
    def test_oracle_diff_passes_on_scaled_down_defaults(self):
        rc = RunConfig(layer=SMALL_LAYER, n_list=(64,), seed=3, trials=3)
        rows = run_oracle_diff(rc)
        assert all(r.status != "FAIL" for r in rows)
        checks = {r.check for r in rows}
        assert checks == {
            "first_level_vs_masked_dense", "second_level_vs_literal",
            "layer_vs_dense", "shared_vs_literal_gap",
        }
        variants = {r.variant for r in rows}
        assert variants == {"plain", "mix", "share"}

    def test_oracle_diff_rejects_large_n(self):
        rc = RunConfig(layer=SMALL_LAYER, n_list=(1024,))
        with pytest.raises(ValueError, match="n <= 512"):
            run_oracle_diff(rc)

    def test_oracle_diff_catches_window_mutation(self, monkeypatch):
        def truncated(i, w2, grid):
            lo, hi = segment_bounds(i, w2, grid)
            return lo, np.maximum(lo, hi - 1)

        monkeypatch.setattr(attention, "segment_bounds", truncated)
        rc = RunConfig(layer=SMALL_LAYER, n_list=(64,), seed=3, trials=3)
        rows = run_oracle_diff(rc)
        assert any(r.status == "FAIL" for r in rows)

    def test_gradcheck_passes_at_n10(self):
        rc = RunConfig(layer=GRAD_LAYER, n_list=(10,), seed=41, trials=3)
        rows = run_gradcheck(rc)
        assert all(r.status != "FAIL" for r in rows)
        kinds = {r.pooling for r in rows}
        assert kinds == {"mean", "max", "ldconv", "mean_ldconv"}

    def test_gradcheck_rejects_large_n(self):
        rc = RunConfig(layer=GRAD_LAYER, n_list=(128,))
        with pytest.raises(ValueError, match="n <= 64"):
            run_gradcheck(rc)

    def test_gradcheck_catches_dropped_jacobian_term(self, monkeypatch):
        def corrupted(op, block, upstream):
            grad_block, grad_wp = pool_segment_backward(op, block, upstream)
            if op.kind == "ldconv" and block.shape[0] > 1:
                # drop the logits' dependence on the center row
                length = block.shape[0]
                from poolattn.core import softmax_row

                delta = softmax_row(op.w_p[:length] @ block[length // 2])
                grad_block = np.outer(delta, upstream)
            return grad_block, grad_wp

        def corrupted_grid(op, source, grid, pad_mask, upstream):
            # the pooling backward the layer's row ranges run (``pool_grid_rows_backward``
            # calls it), segment by segment through `corrupted`
            grad_src, grad_wp = np.zeros_like(source), np.zeros_like(op.w_p)
            for j, (s, length) in enumerate(zip(grid.segment_starts, grid.segment_lens)):
                rows = np.arange(s, s + length)
                if pad_mask is not None:
                    rows = rows[pad_mask[rows]]
                g_block, g_wp = corrupted(op, source[rows], upstream[j])
                grad_src[rows] += g_block
                grad_wp += g_wp
            return grad_src, grad_wp

        monkeypatch.setattr(pooling, "pool_grid_backward", corrupted_grid)
        cfg = replace(GRAD_LAYER, pooling_kind="ldconv")
        errors = gradcheck_layer(cfg, 10, 41)
        assert max(errors.values()) > 1e-6

    def test_forward_rows_deterministic(self):
        rc = RunConfig(layer=SMALL_LAYER, n_list=(48, 64), seed=9, trials=3)
        assert run_forward(rc) == run_forward(rc)

    def test_bench_smoke_and_guard(self, monkeypatch):
        rc = RunConfig(layer=SMALL_LAYER, n_list=(128, 256), seed=1, trials=3)
        records, notices = run_bench(rc, dense_cap=256)
        patterns = [(r.pattern, r.n) for r in records]
        assert ("two_level", 128) in patterns and ("dense", 256) in patterns
        assert all(r.median_ns > 0 for r in records)
        # a tiny memory guard skips everything, with notices
        monkeypatch.setattr(harness, "DEFAULT_MEM_GUARD", 1)
        records2, notices2 = run_bench(rc, dense_cap=256)
        assert not records2
        assert len(notices2) == 4

    def test_bench_equal_memory_budget_excludes_dense(self, monkeypatch):
        # at a budget the two-level path fits, the dense pattern is skipped
        monkeypatch.setattr(harness, "DEFAULT_MEM_GUARD", 16 << 20)
        rc = RunConfig(layer=LayerConfig(), n_list=(2048,), seed=1, trials=3)
        records, notices = run_bench(rc, dense_cap=2048)
        assert [r.pattern for r in records] == ["two_level"]
        assert any("dense" in note for note in notices)

    def test_dense_point_projects_on_every_timed_trial(self, monkeypatch):
        calls = []

        def counting(x, proj):
            calls.append(x.shape[0])
            return project_qkv(x, proj)

        monkeypatch.setattr(harness, "project_qkv", counting)
        rc = RunConfig(layer=SMALL_LAYER, n_list=(64,), seed=1, trials=3)
        records, _ = run_bench(rc, dense_cap=64)
        assert ("dense", 64) in [(r.pattern, r.n) for r in records]
        assert calls == [64] * (1 + rc.trials)  # the warm-up, then each timed trial

    def test_bench_pins_openblas_without_threadpoolctl(self, monkeypatch):
        calls = harness._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        get, put = calls
        monkeypatch.setattr(harness, "threadpool_limits", None)
        seen = []
        real = harness._interleaved_medians

        def recording(points, trials):
            seen.append(get())
            return real(points, trials)

        monkeypatch.setattr(harness, "_interleaved_medians", recording)
        before = get()
        try:
            _, notices = run_bench(RunConfig(layer=SMALL_LAYER, n_list=(64,), trials=3), 64)
            assert get() == before  # the previous count is restored
        finally:
            put(before)
        assert seen == [1]
        assert not notices

    @pytest.mark.parametrize("calls, notice", [
        (None, "timed with an unknown BLAS thread count"),
        ((lambda: 2, lambda k: None), "timed with 2 BLAS threads"),
    ])
    def test_bench_notices_unpinned_blas(self, monkeypatch, calls, notice):
        monkeypatch.setattr(harness, "threadpool_limits", None)
        monkeypatch.setattr(harness, "_openblas_thread_calls", lambda: calls)
        _, notices = run_bench(RunConfig(layer=SMALL_LAYER, n_list=(64,), trials=3), 64)
        assert len(notices) == 1 and notices[0].startswith(notice)

    def test_bench_validates_trials_and_order(self):
        with pytest.raises(ValueError, match="trials"):
            run_bench(RunConfig(layer=SMALL_LAYER, n_list=(64,), trials=2))
        with pytest.raises(ValueError, match="ascending"):
            run_bench(RunConfig(layer=SMALL_LAYER, n_list=(128, 64), trials=3))


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMALL_CFG_TEXT = (
    "d_model = 8\nn_heads = 2\nw1 = 8\nw2 = 32\nkappa = 5\nxi = 4\n"
    "n_list = 48\nseed = 3\ntrials = 3\n"
)


GRAD_CFG_TEXT = "d_model = 4\nn_heads = 2\nw1 = 1\nw2 = 4\nkappa = 3\nxi = 2\nn_list = 6\nseed = 5\n"


def readme_headers() -> dict[str, str]:
    """Each command's CSV header as README's "Output" block lists it."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("### Output", 1)[1].split("```")[1]
    return dict(line.split() for line in block.strip().splitlines())


class TestCli:
    @pytest.mark.parametrize("command, text, extra", [
        ("forward", SMALL_CFG_TEXT, []),
        ("cost", SMALL_CFG_TEXT, []),
        ("oracle-diff", SMALL_CFG_TEXT, []),
        ("gradcheck", GRAD_CFG_TEXT, []),
        ("bench", SMALL_CFG_TEXT.replace("n_list = 48", "n_list = 64"), ["--dense-cap", "64"]),
    ])
    def test_csv_header_is_documented(self, tmp_path, command, text, extra):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out.csv"
        assert cli_main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
        assert out.read_text().splitlines()[0] == readme_headers()[command]

    def test_cost_exit_zero_and_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CFG_TEXT)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["cost", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli_main(["cost", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_oracle_diff_exit_zero_and_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CFG_TEXT)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["oracle-diff", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli_main(["oracle-diff", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("text, pooling, params", [
        (
            "share_projections = true\n", "ldconv",
            ["first.w_q", "first.b_q", "first.w_k", "first.b_k", "first.w_v", "first.b_v",
             "w_p_key", "w_p_value", "embeddings"],
        ),
        (
            "", "mean",
            ["first.w_q", "first.b_q", "first.w_k", "first.b_k", "first.w_v", "first.b_v",
             "second.w_q", "second.b_q", "second.w_k", "second.b_k", "second.w_v", "second.b_v",
             "embeddings"],
        ),
    ], ids=["shared_ldconv", "plain_mean"])
    def test_gradcheck_byte_identical_and_param_names(self, tmp_path, text, pooling, params):
        cfg = write_config(tmp_path, GRAD_CFG_TEXT + text)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["gradcheck", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli_main(["gradcheck", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["param"] for r in rows if r["pooling"] == pooling] == params

    def test_forward_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CFG_TEXT)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["forward", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli_main(
            ["forward", "--config", str(cfg), "--out", str(out2), "--seed", "99"]
        ) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_bench_byte_identical_modulo_timing(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CFG_TEXT.replace("n_list = 48", "n_list = 64"))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert cli_main([
                "bench", "--config", str(cfg), "--out", str(out), "--dense-cap", "64",
            ]) == 0
            outs.append(out)

        def strip_timing(path):
            lines = path.read_text().splitlines()
            header = lines[0].split(",")
            drop = {header.index("median_ns"), header.index("per_token_ns")}
            return [
                [cell for idx, cell in enumerate(line.split(",")) if idx not in drop]
                for line in lines
            ]

        assert strip_timing(outs[0]) == strip_timing(outs[1])

    def test_verification_failure_exits_one(self, tmp_path, monkeypatch):
        def truncated(i, w2, grid):
            lo, hi = segment_bounds(i, w2, grid)
            return lo, np.maximum(lo, hi - 1)

        monkeypatch.setattr(attention, "segment_bounds", truncated)
        cfg = write_config(tmp_path, SMALL_CFG_TEXT)
        out = tmp_path / "diff.csv"
        assert cli_main(["oracle-diff", "--config", str(cfg), "--out", str(out)]) == 1
        assert "FAIL" in out.read_text()

    def test_usage_errors_exit_two(self, tmp_path):
        bad = write_config(tmp_path, "kappa = 5\nxi = 8\n")
        assert cli_main(["cost", "--config", str(bad)]) == 2
        missing = tmp_path / "nope.cfg"
        assert cli_main(["cost", "--config", str(missing)]) == 2
        big = write_config(tmp_path, "n_list = 4096\n", name="big.cfg")
        assert cli_main(["oracle-diff", "--config", str(big), "--out",
                         str(tmp_path / "x.csv")]) == 2

    def test_bench_dense_cap_too_small_exits_two(self, tmp_path, capsys):
        # no n in n_list is <= 3, and the fallback lengths 3 // 4 ... would be 0
        cfg = write_config(tmp_path, SMALL_CFG_TEXT.replace("n_list = 48", "n_list = 64"))
        out = tmp_path / "bench.csv"
        for cap in ("0", "3"):
            assert cli_main(["bench", "--config", str(cfg), "--out", str(out),
                             "--dense-cap", cap]) == 2
            assert f"dense_cap must be >= 4 when no n in n_list is <= it, got dense_cap={cap}" \
                in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_seed_names_an_int(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["forward", "--seed", "x"])
        assert exc.value.code == 2
        assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["frobnicate"])
        assert exc.value.code == 2

    def test_load_config_default_when_none(self):
        assert load_config(None) == RunConfig()
