"""Recorded mutants of the mask path, each of which some named test must kill.

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
FUZZ = "tests/test_layer_fuzz.py::test_layer_matches_oracles"
BLOCK_BIAS = "tests/test_attention.py::TestBlockBias"


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
        ATTENTION, "block = max(band.step, block_rows(n, w1) // band.step * band.step)",
        "block = 1",
        (f"{BLOCK_BIAS}::test_second_level_slices_follow_the_stride",)),
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
