"""Recorded mutants of the mask path, the pooling, the chunked forward, the
window of pooled segments, the streamed backward and its two D forms, the
forward's and the training step's memory and the config table, each of which
some named test must kill.

Each row of ``MUTANTS`` names a file, a snippet that occurs in it exactly
once, its replacement, and the test node ids that must fail.  A row copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
applies its edit there and runs its node ids with ``-x`` in one subprocess.
It fails if its snippet does not occur exactly once (a refactor must restate
its mutants) or if the mutant passes its tests.  Rows run one after another.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
ATTENTION = "src/poolattn/attention.py"
CORE = "src/poolattn/core.py"
HARNESS = "src/poolattn/harness.py"
POOLING = "src/poolattn/pooling.py"
FUZZ = "tests/test_layer_fuzz.py::test_layer_matches_oracles"
BLOCK_BIAS = "tests/test_attention.py::TestBlockBias"
CHUNKS = "tests/test_attention.py::TestBlockSizeInvariance"
POOL_DIFF = "tests/test_pooling.py::TestPoolGridDifferential::test_matches_per_segment_pooling"
BACKWARD_CHUNKS = f"{CHUNKS}::test_backward_streams_chunks_of_its_own"
PURITY = "tests/test_attention.py::TestBackwardPurity"
STEP_MEMORY = ("tests/test_costmodel.py::TestPeakBytes::"
               "test_training_backward_holds_one_level_of_gradients[train_ldconv]")
INFERENCE_MEMORY = ("tests/test_costmodel.py::TestPeakBytes::"
                    "test_estimate_bounds_measured_inference_peak[infer_long-4]")
WINDOW_CARRY = f"{CHUNKS}::test_output_and_gradients_independent_of_chunk_size[block-window_carry]"
POOLED_ONCE = ("tests/test_attention.py::TestPooledWindow::"
               "test_each_segment_pooled_once_from_at_most_a_chunk_of_rows[False]")
PADDED_INFERENCE_MEMORY = ("tests/test_costmodel.py::TestPeakBytes::"
                           "test_estimate_bounds_measured_inference_peak[padded_wide-4-n8192]")


class Mutant(NamedTuple):
    path: str
    snippet: str
    replacement: str
    node_ids: tuple[str, ...]


MUTANTS = {
    # the six mask mutants
    "no_key_validity": Mutant(
        ATTENTION, "        mask &= band.key_ok[cols]\n", "        pass\n", (FUZZ,)),
    "no_row_validity": Mutant(
        ATTENTION, "    mask &= band.row_ok[rows, None]\n", "", (FUZZ,)),
    "inclusive_hi": Mutant(
        ATTENTION, "mask = (keys >= lo) & (keys < hi)", "mask = (keys >= lo) & (keys <= hi)",
        (FUZZ,)),
    "no_extra_cols": Mutant(
        ATTENTION, "        mask |= band.extra[cols]\n", "        pass\n", (FUZZ,)),
    "unmasked_replay": Mutant(
        ATTENTION, "e = _masked_scores(qr, kc, bias, alpha)",
        "e = _masked_scores(qr, kc, 0.0, alpha)",
        ("tests/test_attention.py::TestBackwardDForm",)),
    "extras_dropped_right_of_union": Mutant(
        ATTENTION, "outside = extra[(extra < c0) | (extra >= c1)]", "outside = extra[extra < c0]",
        (f"{BLOCK_BIAS}::test_blocks_around_an_extra_row",)),
    # the sharing key: the hi offsets hold the width, which the key needs
    "key_without_hi_offsets": Mutant(
        ATTENTION, "key = lo.tobytes(), hi.tobytes(), extra_cols",
        "key = lo.tobytes(), extra_cols",
        (f"{BLOCK_BIAS}::test_shared_bias_equals_block_mask",)),
    "key_without_extra_cols": Mutant(
        ATTENTION, "key = lo.tobytes(), hi.tobytes(), extra_cols",
        "key = lo.tobytes(), hi.tobytes()",
        (f"{BLOCK_BIAS}::test_shared_bias_equals_block_mask",)),
    "sharing_without_validity": Mutant(
        ATTENTION,
        "if band.row_ok[rows].all() and (band.key_ok is None or band.key_ok[cols].all()):",
        "if True:",
        (f"{BLOCK_BIAS}::test_shared_bias_equals_block_mask",)),
    "global_bias_ignores_key_validity": Mutant(
        ATTENTION, "np.where(band.key_ok, 0.0, -np.inf)[None]", "np.zeros((1, n))",
        (f"{BLOCK_BIAS}::test_blocks_around_an_extra_row",)),
    "one_row_slices": Mutant(
        ATTENTION,
        "return max(band.step, block_rows(band.row_ok.shape[0], w1) // band.step * band.step)",
        "return 1",
        (f"{BLOCK_BIAS}::test_second_level_slices_follow_the_stride",)),
    # the chunked forward
    # the gathered first-level keys: the union one row short on its left
    "halo_one_row_short": Mutant(
        ATTENTION, "rows = np.r_[c0:c1, glob]", "rows = np.r_[c0 + 1:c1, glob]",
        (f"{CHUNKS}::test_output_and_gradients_independent_of_chunk_size[block-wide_rows]",)),
    "online_softmax_without_rescaling": Mutant(
        ATTENTION, "scale = np.exp(e_max - top)", "scale = 1.0",
        (f"{CHUNKS}::test_output_and_gradients_independent_of_chunk_size[block-wide_rows]",)),
    "tail_chunk_unfolded": Mutant(
        ATTENTION, "starts.pop()", "pass",
        (f"{CHUNKS}::test_chunks_tile_the_rows_in_whole_blocks_and_fold_the_tail",)),
    # layer_forward(retain=False) added z into y: a trace keeping y as the
    # source would project q2 (and k2, v2) from y + z
    "z_added_before_q2_view": Mutant(
        ATTENTION, "None if src is into else src", "src",
        ("tests/test_attention.py::TestRowLayoutTrace::"
         "test_trace_views_equal_fresh_stages_bitwise[default-False]",)),
    # the rolling window of pooled segments: one segment short on the left,
    # new segments pooled without their halo rows, without the segments a
    # forward adding z into its source must pool ahead, from the rows of a
    # padded tail or all in one call, and an overflow named by its index in
    # the pooled range
    "window_one_segment_short_on_the_left": Mutant(
        ATTENTION, "flat[:(h1 - c0) * d] = flat[(c0 - h0) * d:(h1 - h0) * d]",
        "flat[:(h1 - c0 - 1) * d] = flat[(c0 - h0 + 1) * d:(h1 - h0) * d]", (WINDOW_CARRY,)),
    "new_segments_pooled_without_halo": Mutant(
        ATTENTION, "last = min(n, stop + halo)", "last = stop", (WINDOW_CARRY,)),
    "no_segments_pooled_ahead": Mutant(
        ATTENTION, "return max(c1, int(np.searchsorted(starts, grid.centers[c1] - config.w2)))",
        "return c1",
        ("tests/test_attention.py::TestRowLayoutTrace::"
         "test_inference_output_is_bitwise_the_retained_output[short_w2-64]",)),
    # (reading the padded tail wastes work but moves no peak: each call still
    # reads at most a chunk's rows)
    "new_rows_read_into_the_padded_tail": Mutant(
        ATTENTION, "min(n, int(starts[end - 1]) + config.xi)",
        "int(starts[end]) if end < len(grid) else n", (POOLED_ONCE,)),
    "new_segments_pooled_in_one_call": Mutant(
        ATTENTION, "size = chunks[0][1]", "size = n", (POOLED_ONCE,)),
    "overflow_named_within_the_range": Mutant(
        POOLING, "segment = first + np.argwhere(~np.isfinite(out))[0, 0]",
        "segment = np.argwhere(~np.isfinite(out))[0, 0]",
        ("tests/test_attention.py::TestOverflowErrors::"
         "test_pooling_error_names_the_segment_in_the_whole_grid",)),
    # the pooling
    "max_without_neg_inf_fill": Mutant(
        POOLING, "cand = np.where(valid[r, : len(rows), None], rows, -np.inf)", "cand = rows",
        (POOL_DIFF,)),
    "rank_is_offset": Mutant(
        POOLING, "rank = np.cumsum(valid, axis=0) - 1",
        "rank = np.arange(len(valid))[:, None] + 0 * valid", (POOL_DIFF,)),
    "center_ignores_padding": Mutant(
        POOLING, "center = (valid & (rank == lens // 2)).argmax(axis=0)", "center = lens // 2",
        (POOL_DIFF,)),
    "zero_tail": Mutant(
        POOLING, "tail[: n - n_full * xi] = source[n_full * xi :]", "pass", (POOL_DIFF,)),
    "no_padding_zeroing": Mutant(
        POOLING, "grad_source[~np.asarray(pad_mask, dtype=bool)] = 0.0", "pass", (POOL_DIFF,)),
    "no_short_segment_division": Mutant(
        POOLING, "out /= lens[:, None]", "out /= grid.kappa", (POOL_DIFF,)),
    "no_context_gradient": Mutant(
        POOLING, "np.add(part, g_ctx[:m], out=part, where=center[:m, None] == r)", "pass",
        (POOL_DIFF,)),
    # the backward
    # the first level's D = rowsum(dO * O) and the second level's
    # D = rowsum(P * dP), each not divided by the rows' denominators
    "d_not_divided_by_denom": Mutant(
        ATTENTION, 'np.einsum("hrc,hrc->hr", du, out)', 'np.einsum("hrc,hrc->hr", up, out)',
        ("tests/test_attention.py::TestBackwardDForm",)),
    "second_level_d_not_divided_by_denom": Mutant(
        ATTENTION, "        d_row /= denom\n", "",
        ("tests/test_attention.py::TestBackwardDForm",)),
    "pad_mask_written_into_upstream": Mutant(
        ATTENTION, "d_y = upstream * batch.pad_mask[:, None]",
        "d_y = np.multiply(upstream, batch.pad_mask[:, None], out=upstream)", (PURITY,)),
    "d_v_accumulated_into_a_trace_array": Mutant(
        ATTENTION, "d_k, d_v = d_pooled", "d_k, d_v = d_pooled[0], st.source[:len(grid)]",
        (PURITY,)),
    # the streamed backward's carries across chunk edges, and the global
    # rows' block replayed against the chunk's first rows, not its own
    "first_level_halo_carry_dropped": Mutant(
        ATTENTION, "g[:held], g[c1 - c0:] = c[:held], c[held:]", "g[c1 - c0:] = c[held:]",
        (f"{BACKWARD_CHUNKS}[block-wide_rows]",)),
    "pooling_halo_carry_dropped": Mutant(
        ATTENTION, "g[:len(carry[i])] += carry[i]", "pass",
        (f"{BACKWARD_CHUNKS}[block-padded_globals]",)),
    "global_columns_of_the_wrong_rows": Mutant(
        ATTENTION, "own = slice(a - c0, b - c0)\n            q_part",
        "own = slice(0, b - a)\n            q_part", (f"{BACKWARD_CHUNKS}[block-wide_rows]",)),
    # memory: a second whole upstream held through the backward, and the
    # first level's input gradient in a zero-filled array, not d_y's buffer
    "upstream_copy_held": Mutant(
        ATTENTION, "    d_y = upstream * batch.pad_mask[:, None]\n",
        "    up = upstream.copy()\n    d_y = up * batch.pad_mask[:, None]\n", (STEP_MEMORY,)),
    "zero_filled_d_x": Mutant(
        ATTENTION, "    d_x = d_y\n", "    d_x = np.zeros_like(d_y)\n", (STEP_MEMORY,)),
    # the trace keeps no z, but the second level's backward takes D in the
    # dO * O form from z's view, which re-runs the whole level for each
    # block: gradients stay right; the source guard kills it without running
    "second_level_d_from_z": Mutant(
        ATTENTION, "uh[:, rows], None, bias,",
        "uh[:, rows], _heads(st.z, n_heads)[:, rows], bias,",
        ("tests/test_source.py::test_no_backward_reads_z",)),
    # a training forward adding z into y itself, not a copy: the trace's y
    # is the output
    "retained_forward_adds_z_into_y": Mutant(
        ATTENTION, "into=y.copy() if retain else y", "into=y", (FUZZ,)),
    # memory: the window of pooled segments as wide as the whole grid, seen
    # on a padded layer only where its window is narrower than its kept grid
    "window_holds_the_whole_grid": Mutant(
        ATTENTION,
        ("width = max(reach(int(band.bounds(b - 1)[1])) - int(band.bounds(a)[0])"
         " for a, b in chunks)"),
        "width = len(grid)", (PADDED_INFERENCE_MEMORY, INFERENCE_MEMORY)),
    # the config table
    "kappa_xi_swapped": Mutant(
        HARNESS, '"kappa": _Key(int, str, "layer.kappa"),\n    "xi": _Key(int, str, "layer.xi"),',
        '"kappa": _Key(int, str, "layer.xi"),\n    "xi": _Key(int, str, "layer.kappa"),',
        ("tests/test_harness.py::TestConfigParsing::test_each_key_sets_only_its_field[kappa]",)),
    # products left to BLAS's small-matrix kernel: short ranges' ldconv
    # logits, and short slices' projections
    "unpadded_logits": Mutant(
        CORE, "short = product_rows(len(b)) - len(a)", "short = 0",
        ("tests/test_pooling.py::TestPoolGridRows::test_ranges_pool_bitwise_as_the_whole_grid",)),
    "unpadded_projection": Mutant(
        CORE, "short = product_rows(len(b)) - len(a)", "short = 0",
        ("tests/test_core.py::TestProjectQkv::"
         "test_any_slice_or_gather_projects_bitwise_as_the_whole",)),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, tmp_path):
    mutant = MUTANTS[name]
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for tree in ("src", "tests"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    target = tmp_path / mutant.path
    text = target.read_text()
    assert text.count(mutant.snippet) == 1, f"{name}: snippet must occur once in {mutant.path}"
    target.write_text(text.replace(mutant.snippet, mutant.replacement))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}
    env.pop("PYTHONPATH", None)  # the copy's pyproject puts its own src/ on the path
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.node_ids],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    # exit code 1: tests ran and one failed; 0 is a surviving mutant, and
    # anything else (collection error, unknown node id) kills nothing
    assert run.returncode == 1, f"{name} not killed (exit {run.returncode}):\n{run.stdout[-2000:]}"
