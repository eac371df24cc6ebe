"""Tests of the benchmark itself: tiny smoke runs and the correctness checker.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from gates import Checks, check_request  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs, request  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run([
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--tiny",
    ])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name in result["metrics"]:
        assert any(line.startswith(f"{name} = ") for line in lines[:-1]), name


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    proc = _run(["--workload", "infer_long", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.fixture(scope="module")
def padded_request():
    w = WORKLOADS["padded_wide"].tiny()
    inputs = make_inputs(w, 5, Tracer(enabled=False))
    return inputs.batches[0], request(w, inputs, 0)


def _perturb_ulp(arr, pad):
    arr[int(np.argmax(pad))] = np.nextafter(arr[int(np.argmax(pad))], np.inf)


def _perturb_nan(arr, pad):
    arr[0, 0] = np.nan


def _perturb_padding_row(arr, pad):
    arr[int(np.argmin(pad))] = 1e-300


@pytest.mark.parametrize("perturb", [_perturb_ulp, _perturb_nan, _perturb_padding_row])
def test_perturbed_output_counts_as_failure(padded_request, perturb):
    batch, reference = padded_request
    assert not batch.pad_mask.all()
    checks = Checks()
    assert check_request(checks, "same", reference, batch, reference)
    bad = replace(reference, output=reference.output.copy())
    perturb(bad.output, batch.pad_mask)
    assert not check_request(checks, "perturbed", bad, batch, reference)
    assert (checks.attempted, checks.failed) == (2, 1)
    assert checks.error_rate == 0.5


def test_self_time_subtracts_replayed_children():
    tracer = Tracer()
    with tracer.request():
        with tracer.span("stage") as stage:
            pass
        with tracer.span("child", parent=stage, replay=True):
            pass
    stage_span, child = tracer.spans
    assert child.parent == stage_span.id and child.replay
    own = tracer.self_ms()
    assert own[stage_span.id] == pytest.approx(stage_span.ms - child.ms)
    assert tracer.median_ms("stage", self_time=True) == pytest.approx(own[stage_span.id])
