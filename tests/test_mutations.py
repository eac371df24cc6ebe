"""Recorded mutants of the mask path, the unshifted softmax path, the pooling,
the chunked forward, the window of pooled segments, the streamed backward
driver, the global rows' queries both drivers project, the releases and the
two D forms, the forward's and the training step's memory and the config
table, each of which some named test must kill.

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
BOUNDED = "tests/test_attention.py::TestBoundedBlocks"
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
PADDED_STEP_MEMORY = ("tests/test_costmodel.py::TestPeakBytes::"
                      "test_training_backward_holds_one_level_of_gradients[padded_wide]")
RELEASED_ONCE = ("tests/test_attention.py::TestPooledWindow::"
                 "test_each_segment_gradient_released_once_from_at_most_a_chunk_of_rows")


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
    # the plain grid's banded blocks not hiding the extra rows, which then take
    # a windowed output besides their own; and the extra rows' counts never
    # written after the banded blocks, which leave them 0
    "banded_blocks_show_the_extra_rows": Mutant(
        ATTENTION, "        band = replace(band, row_ok=band.row_ok & ~band.extra)\n", "", (FUZZ,)),
    "extra_counts_unwritten": Mutant(
        ATTENTION, "        counts[extra] = extra_seen\n", "", (FUZZ,)),
    "global_bias_ignores_key_validity": Mutant(
        ATTENTION, "np.where(band.key_ok, 0.0, -np.inf)[None]", "np.zeros((1, n))",
        (f"{BLOCK_BIAS}::test_blocks_around_an_extra_row",)),
    "one_row_slices": Mutant(
        ATTENTION,
        "return max(band.step, block_rows(band.row_ok.shape[0], w1) // band.step * band.step)",
        "return 1",
        (f"{BLOCK_BIAS}::test_second_level_slices_follow_the_stride",)),
    # the unshifted path: empty rows' totals read before they are set to 1.0,
    # so every block with an empty row reruns shifted; no low bound, so a
    # floored block's e^FLOOR lanes are kept where they are not negligible; no
    # high bound; no output check; no shifted rerun; blocks that do not floor
    # shifting first, as the three-state floor had them; a floor on non-clean
    # blocks, whose rows that see no key turn nonzero; a replay that never
    # shifts; a replay that never floors
    "empty_totals_read_before_set": Mutant(
        ATTENTION,
        "total[:, empty] = 1.0  # empty rows stay exactly zero\n"
        "                    e = np.matmul(e, vh[:, cols])  # the block's output; the scores go\n"
        "                if shift or (_LOW <= total.min()",
        "low = total.min()\n                    total[:, empty] = 1.0\n"
        "                    e = np.matmul(e, vh[:, cols])\n"
        "                if shift or (_LOW <= low",
        (f"{BOUNDED}::test_default_scale_blocks_take_exp_unshifted[padded_wide]",)),
    "no_low_bound": Mutant(
        ATTENTION, "(_LOW <= total.min() and total.max()", "(total.max()",
        (f"{BOUNDED}::test_floored_block_below_the_low_bound_reruns_shifted",)),
    "no_high_bound": Mutant(
        ATTENTION, " and total.max() <= _HIGH", "",
        (f"{BOUNDED}::test_scores_past_the_bound_match_the_oracles",)),
    "no_output_check": Mutant(
        ATTENTION, "\n                             and np.isfinite(e).all()):", "):",
        (f"{BOUNDED}::test_values_near_the_float_limit_stay_finite[aligned]",)),
    "no_shifted_rerun": Mutant(
        ATTENTION, "for shift in (False, True):", "for shift in (False,):",
        (f"{BOUNDED}::test_scores_past_the_bound_match_the_oracles[45.0-710.0]",)),
    "unfloored_blocks_shift_first": Mutant(
        ATTENTION, "for shift in (False, True):",
        "for shift in (False, True) if floor else (True,):",
        (f"{BOUNDED}::test_default_scale_blocks_take_exp_unshifted[padded_wide]",)),
    "floor_on_unclean_blocks": Mutant(
        ATTENTION, "floor = bool(key is not None and seen.all()", "floor = bool(True",
        ("tests/test_attention.py::TestPaddedBlocks::test_padding_rows_are_positive_zeros",)),
    "replay_never_shifts": Mutant(
        ATTENTION, "_exp_scores(e, rowmax, floor)", "_exp_scores(e, 0.0, floor)",
        (f"{BOUNDED}::test_scores_past_the_bound_match_the_oracles",)),
    "replay_never_floors": Mutant(
        ATTENTION, "_exp_scores(e, rowmax, floor)", "_exp_scores(e, rowmax, None)",
        (f"{BOUNDED}::test_replayed_blocks_equal_the_forwards_bitwise",)),
    # the chunked forward
    # the gathered first-level keys: the union one row short on its left
    "halo_one_row_short": Mutant(
        ATTENTION, "rows = np.r_[c0:c1, glob]", "rows = np.r_[c0 + 1:c1, glob]",
        (f"{CHUNKS}::test_output_and_gradients_independent_of_chunk_size[block-wide_rows]",)),
    "online_softmax_without_rescaling": Mutant(
        ATTENTION, "scale = np.exp(e_max - top)", "scale = 1.0",
        (f"{CHUNKS}::test_output_and_gradients_independent_of_chunk_size[block-wide_rows]",)),
    # the last chunk a whole chunk long, past the last row
    "tail_chunk_past_the_end": Mutant(
        ATTENTION, "return [(a, min(n, a + size)) for a in range(0, n, size)]",
        "return [(a, a + size) for a in range(0, n, size)]",
        (f"{CHUNKS}::test_chunks_tile_the_rows_in_whole_blocks",)),
    # layer_forward(retain=False) added z into y: a trace keeping y as the
    # source would project q2 (and k2, v2) from y + z
    "z_added_before_q2_view": Mutant(
        ATTENTION, "None if src is into else src", "src",
        ("tests/test_attention.py::TestRowLayoutTrace::"
         "test_trace_views_equal_fresh_stages_bitwise[default-False]",)),
    # the rolling window of pooled segments: one segment short on the left,
    # every pooling call (the window's and the releases') without its halo
    # rows, the window without the segments that start before a chunk's end,
    # which a forward adding z into its source must pool ahead, the calls'
    # one end rule reading the rows of a padded tail, the calls all in one,
    # a range pooling the segments that start in its halo, and an overflow
    # named by its index in the pooled range
    "window_one_segment_short_on_the_left": Mutant(
        ATTENTION, "flat[:(h1 - c0) * d] = flat[(c0 - h0) * d:(h1 - h0) * d]",
        "flat[:(h1 - c0 - 1) * d] = flat[(c0 - h0 + 1) * d:(h1 - h0) * d]", (WINDOW_CARRY,)),
    "new_segments_pooled_without_halo": Mutant(
        ATTENTION, "last = min(n, stop + halo)", "last = stop", (WINDOW_CARRY,)),
    "no_segments_pooled_ahead": Mutant(
        ATTENTION, "ends = np.maximum(band.bounds(b - 1)[1], np.searchsorted(starts, b))",
        "ends = band.bounds(b - 1)[1]",
        ("tests/test_attention.py::TestRowLayoutTrace::"
         "test_inference_output_is_bitwise_the_retained_output[short_w2-64]",)),
    # (reading the padded tail adds pooling calls but makes no transient
    # larger: a call pools at most ``_chunk_size(xi)`` rows. On padded_wide-
    # shaped forwards (n = 8192) its calls read 16416 rows, halos included,
    # against 12316 at a 25% padded tail and 9852 at a 40% tail, and it moves
    # the peak by at most 0.01 MiB either way, so no memory test sees it; the
    # forward's spy kills it here, the backward's
    # ``release_rows_into_the_padded_tail``, on the same line)
    "new_rows_read_into_the_padded_tail": Mutant(
        ATTENTION,
        "end = int(starts[hi]) if hi < len(grid) else min(n, int(starts[-1]) + config.xi)",
        "end = int(starts[hi]) if hi < len(grid) else n", (POOLED_ONCE,)),
    "new_segments_pooled_in_one_call": Mutant(
        ATTENTION, "size = _chunk_size(config.xi)  # rows per pooling call",
        "size = n  # rows per pooling call", (POOLED_ONCE,)),
    # a range's slice of the grid keeping the segments that start in its halo rows
    "range_pools_its_halo_segments": Mutant(
        POOLING, "np.searchsorted(grid.segment_starts, (start, stop))",
        "np.searchsorted(grid.segment_starts, (start, stop + grid.kappa - grid.xi))",
        ("tests/test_pooling.py::TestPoolGridRows::test_ranges_pool_bitwise_as_the_whole_grid",)),
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
    # the second level's released value (and key) gradients added into its
    # source, y or the embeddings, both in the trace, not the source's gradient
    "d_v_accumulated_into_a_trace_array": Mutant(
        ATTENTION, "grads, d_src[start:stop],", "grads, source[start:stop],", (PURITY,)),
    # the driver's carries across chunk edges (the union rows the next chunk
    # reads, at either level, and the pooling's halo rows in the second
    # level's releases), the global rows' block replayed against the chunk's
    # first rows, not its own, and their query gradient not summed over the
    # chunks; the union released up to the chunk's own c1, not the next
    # chunk's c0, releasing segments a later chunk still reads; and the first
    # level's query release adding into the upstream rows, not overwriting them
    "first_level_halo_carry_dropped": Mutant(
        ATTENTION, "g[:held], g[c1 - c0:] = c[:held], c[held:]", "g[c1 - c0:] = c[held:]",
        (f"{BACKWARD_CHUNKS}[block-wide_rows]",)),
    "pooling_halo_carry_dropped": Mutant(
        ATTENTION, "g[:len(carry[i])] += carry[i]", "pass",
        (f"{BACKWARD_CHUNKS}[block-padded_globals]",)),
    "global_columns_of_the_wrong_rows": Mutant(
        ATTENTION, "own = slice(a - c0, b - c0)\n            q_part",
        "own = slice(0, b - a)\n            q_part", (f"{BACKWARD_CHUNKS}[block-wide_rows]",)),
    "global_query_gradient_not_summed": Mutant(
        ATTENTION, "extra_dq += q_part", "extra_dq = q_part",
        (f"{BACKWARD_CHUNKS}[block-wide_rows]",)),
    # each driver projects the global rows' queries from the level's
    # ``queries``: given the leading rows' indices in their place, in the
    # forward, and in the backward alone
    "global_queries_from_leading_rows": Mutant(
        ATTENTION, "extra_qh = _heads(queries(extra), n_heads)",
        "extra_qh = _heads(queries(slice(0, len(extra))), n_heads)", (FUZZ,)),
    "global_queries_from_leading_rows_backward": Mutant(
        ATTENTION, "extra_qh, extra_up, extra_out = _heads(queries(extra), n_heads)",
        "extra_qh, extra_up, extra_out = _heads(queries(slice(0, len(extra))), n_heads)", (FUZZ,)),
    "segment_released_while_a_later_chunk_reads_it": Mutant(
        ATTENTION, "finals = [c0 for c0, _ in unions[1:]]", "finals = [c1 for _, c1 in unions[:-1]]",
        (f"{BACKWARD_CHUNKS}[block-window_carry]",)),
    "query_release_adds_into_the_upstream": Mutant(
        ATTENTION, "            d_x[a:b] = 0.0\n", "", (FUZZ,)),
    # a second-level release reading rows of the padded tail past the last
    # segment's stride step: the pooling calls' end rule, as in
    # ``new_rows_read_into_the_padded_tail``, seen by the backward's spy
    "release_rows_into_the_padded_tail": Mutant(
        ATTENTION, "else min(n, int(starts[-1]) + config.xi)", "else n", (RELEASED_ONCE,)),
    # memory: a second whole upstream held through the backward, and
    # ``layer_backward``'s first-level input gradient in a zero-filled array,
    # not d_y's buffer
    "upstream_copy_held": Mutant(
        ATTENTION, "    d_y = upstream * batch.pad_mask[:, None]\n",
        "    up = upstream.copy()\n    d_y = up * batch.pad_mask[:, None]\n", (STEP_MEMORY,)),
    "zero_filled_d_x": Mutant(
        ATTENTION, "    d_x = d_y\n", "    d_x = np.zeros_like(d_y)\n", (STEP_MEMORY,)),
    # the trace keeps no z, but ``layer_backward`` runs the second level's
    # pass with D in the dO * O form from z's view, which re-runs the whole
    # level for each block: gradients stay right; the source guard kills it
    # without running
    "second_level_d_from_z": Mutant(
        ATTENTION, "d_y, None, st.rowmax", "d_y, st.z, st.rowmax",
        ("tests/test_source.py::test_no_backward_reads_z",)),
    # a training forward adding z into y itself, not a copy: the trace's y
    # is the output
    "retained_forward_adds_z_into_y": Mutant(
        ATTENTION, "into=y.copy() if retain else y", "into=y", (FUZZ,)),
    # memory: the second level's released gradients kept in whole (segments,
    # d) grids, and the rows carried into a chunk held through its blocks,
    # each seen where the second level sets a training step's peak
    "whole_grid_gradient_held": Mutant(
        ATTENTION, "        def release(lo, hi, d_k, d_v):\n            for ",
        ("        grids = [np.zeros((len(grid), d)) for _ in range(2)]\n\n"
         "        def release(lo, hi, d_k, d_v):\n"
         "            grids[0][lo:hi], grids[1][lo:hi] = d_k, d_v\n"
         "            d_k, d_v = grids[0][lo:], grids[1][lo:]\n"
         "            for "),
        (PADDED_STEP_MEMORY,)),
    "carry_held_through_the_chunk": Mutant(
        ATTENTION, "carry = c = None  # not held through the chunk", "pass", (PADDED_STEP_MEMORY,)),
    # memory: the window of pooled segments as wide as the whole grid, seen
    # on a padded layer only where its window is narrower than its kept grid
    "window_holds_the_whole_grid": Mutant(
        ATTENTION,
        "np.empty((int((ends - band.bounds(a)[0]).max()), d))", "np.empty((len(grid), d))",
        (PADDED_INFERENCE_MEMORY, INFERENCE_MEMORY)),
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
