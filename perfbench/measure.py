"""The timed run (end-to-end metrics) and the traced run (per-layer metrics).

Load is one caller in a closed loop: one request in flight, the next sent
only after the previous one returns and has been checked.  Memory is measured
with tracemalloc in separate untimed passes, because tracing allocations
slows the timed requests.
"""

from __future__ import annotations

import gc
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from gates import Checks, check_request, count_gate, gradcheck_gate, oracle_gate
from poolattn import (
    AttentionTrace,
    PoolingOp,
    build_pooled_grid,
    estimate_peak_bytes,
    first_level_forward,
    layer_backward,
    layer_forward,
    pool_grid,
    pool_grid_backward,
    project_qkv,
    second_level_forward,
)
from poolattn.harness import batch_checksum
from spans import Tracer
from workloads import POOL_SIZE, Inputs, Result, Workload, make_inputs, request

# set-ups per run, their median is setup_s; set-up s warms up on pool input
# s % POOL_SIZE, and the first warm-up of each input is its reference
SETUPS = 5
# a tail percentile needs ten samples beyond it, so at least eleven requests
TAIL_BEYOND = 10
MIN_SAMPLES = TAIL_BEYOND + 1
# traced iterations are 2-5x a request; three give a median
MIN_TRACED = 3
MIB = 2.0**20


@dataclass
class Prepared:
    inputs: Inputs
    references: list[Result]
    setup_s: list[float]


def prepare(w: Workload, seed: int, tracer: Tracer, checks: Checks) -> Prepared:
    """Set up SETUPS times from scratch: generate inputs and parameters, warm up.

    Every set-up regenerates the same inputs (checked by digest), so the
    first warm-up output of each pool input serves as its reference.
    """
    times, refs, first_digest = [], [], None
    for s in range(SETUPS):
        k = s % POOL_SIZE
        gc.collect()
        with tracer.request():
            t0 = time.perf_counter()
            inputs = make_inputs(w, seed, tracer)
            warm = request(w, inputs, k)
            times.append(time.perf_counter() - t0)
        if s < POOL_SIZE:
            refs.append(warm)
        check_request(checks, f"warmup.{s}", warm, inputs.batches[k], refs[k])
        digest = _digest(inputs)
        first_digest = first_digest or digest
        checks.check("inputs.deterministic", digest == first_digest, f"set-up {s} differs")
        del warm
    return Prepared(inputs, refs, times)


def _digest(inputs: Inputs) -> str:
    """Checksum of every generated array: embeddings, masks, upstreams, parameters."""
    p = inputs.params
    arrays = [*p.first, *p.second, p.w_p_key, p.w_p_value, *inputs.upstreams]
    for b in inputs.batches:
        arrays += [b.embeddings, b.pad_mask]
    return batch_checksum(np.concatenate([np.ravel(a) for a in arrays if a is not None]))


def run_gates(
    w: Workload, seed: int, prep: Prepared, checks: Checks
) -> dict[str, tuple[float, str]]:
    visible, model = count_gate(w, prep.references[0], checks)
    return {
        "oracle.max_rel_err": (oracle_gate(w, seed, checks), "rel"),
        "harness.gradcheck_max_rel_err": (gradcheck_gate(w, seed, checks), "rel"),
        "attention.scores_visible": (visible, "count"),
        "costmodel.scores_model": (model, "count"),
    }


def timed_request(w: Workload, prep: Prepared, i: int, checks: Checks) -> int:
    """Send request ``i`` untraced, check it, and return its latency in ns."""
    k = i % POOL_SIZE
    t0 = time.perf_counter_ns()
    res = request(w, prep.inputs, k)
    elapsed = time.perf_counter_ns() - t0
    check_request(checks, f"request.{i}", res, prep.inputs.batches[k], prep.references[k])
    return elapsed


def tail_ms(latencies_ns: list[int]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies_ns)
    rank = len(ordered) - TAIL_BEYOND  # 1-based nearest rank
    if rank < 1:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {len(ordered)}")
    return ordered[rank - 1] / 1e6, 100.0 * rank / len(ordered)


def request_peak_bytes(w: Workload, inputs: Inputs, k: int) -> tuple[int, Result]:
    """tracemalloc peak of one request above what was live before it."""
    gc.collect()
    tracemalloc.start()
    try:
        res = request(w, inputs, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, res


def forward_memory(w: Workload, inputs: Inputs, retain: bool) -> tuple[int, int]:
    """(peak bytes of one forward, bytes its returned trace alone keeps alive)."""
    gc.collect()
    tracemalloc.start()
    try:
        # ``out`` stays referenced, so only arrays the trace alone holds count as held
        out, trace = layer_forward(inputs.batches[0], inputs.params, w.config, retain=retain)
        live, peak = tracemalloc.get_traced_memory()
        del trace
        gc.collect()
        held = live - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return peak, held


def timed_run(w: Workload, seed: int, seconds: float, checks: Checks) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off."""
    prep = prepare(w, seed, Tracer(enabled=False), checks)
    run_gates(w, seed, prep, checks)

    latencies, tokens, i = [], 0, 0
    start = time.perf_counter()
    while i < MIN_SAMPLES or time.perf_counter() - start < seconds:
        latencies.append(timed_request(w, prep, i, checks))
        tokens += prep.inputs.real_tokens(i % POOL_SIZE)
        i += 1
    wall = time.perf_counter() - start

    peak, res = request_peak_bytes(w, prep.inputs, 0)
    check_request(checks, "memory_pass", res, prep.inputs.batches[0], prep.references[0])
    tail, pct = tail_ms(latencies)
    metrics = {
        "latency_ms_p50": (statistics.median(latencies) / 1e6, "ms"),
        "latency_ms_tail": (tail, "ms"),
        "tokens_per_s": (tokens / wall, "tokens/s"),
        "peak_mb": (peak / MIB, "MiB"),
        "setup_s": (statistics.median(prep.setup_s), "s"),
    }
    info = {
        "samples": len(latencies),
        "tail_percentile": pct,
        "timed_wall_s": wall,
        "setup_s_all": prep.setup_s,
    }
    return metrics, info


def traced_request(
    w: Workload, prep: Prepared, i: int, tracer: Tracer, checks: Checks
) -> tuple[float, int]:
    """Run request ``i`` stage by stage under spans, then replay the stages'
    inner calls on the same inputs.  Returns (request span ms, degenerate rows).

    A forward-only workload also times ``layer_backward`` on a retained
    forward of the same input, outside the request span, so every workload
    reports the backward stages.
    """
    k = i % POOL_SIZE
    inputs, cfg = prep.inputs, w.config
    batch, params, upstream = inputs.batches[k], inputs.params, inputs.upstreams[k]
    with tracer.request():
        with tracer.span("request") as root:
            with tracer.span("attention.first_level") as s_first:
                y, first = first_level_forward(batch, params, cfg, retain=w.train)
            with tracer.span("attention.second_level") as s_second:
                z, second = second_level_forward(batch, y, params, cfg, retain=w.train)
            out = y + z
            grads = None
            if w.train:
                with tracer.span("attention.backward") as s_back:
                    grads = layer_backward(AttentionTrace(first, second, out), upstream)
        res = Result(out, grads, first.counts, second.counts, int(second.degenerate.sum()))
        check_request(checks, f"traced.{i}", res, batch, prep.references[k])

        pad_arg = None if batch.pad_mask.all() else batch.pad_mask
        with tracer.span("core.project_qkv", parent=s_first, replay=True):
            qkv1 = project_qkv(batch.embeddings, params.first)
        src = batch.embeddings if cfg.mix else y
        with tracer.span("core.project_qkv", parent=s_second, replay=True):
            qkv2 = project_qkv(src, params.second)
        with tracer.span("windowing.build_pooled_grid", parent=s_second, replay=True):
            grid = build_pooled_grid(batch.n, cfg.kappa, cfg.xi, pad_arg)
        op_k = PoolingOp(cfg.pooling_kind, params.w_p_key)
        op_v = PoolingOp(cfg.pooling_kind, params.w_p_value)
        with tracer.span("pooling.pool_grid", parent=s_second, replay=True):
            pooled_k = pool_grid(op_k, second.k2, grid, pad_arg)
        with tracer.span("pooling.pool_grid", parent=s_second, replay=True):
            pooled_v = pool_grid(op_v, second.v2, grid, pad_arg)
        same = (
            all(np.array_equal(a, b) for a, b in zip(qkv1, (first.q, first.k, first.v)))
            and all(np.array_equal(a, b) for a, b in zip(qkv2, (second.q2, second.k2, second.v2)))
            and np.array_equal(grid.centers, second.grid.centers)
            and np.array_equal(pooled_k, second.pooled_k)
            and np.array_equal(pooled_v, second.pooled_v)
        )
        checks.check(f"replay.{i}", same, "a replayed stage differs from the layer's own")
        k2, v2 = second.k2, second.v2
        del first, second, y, z, qkv1, qkv2, pooled_k, pooled_v

        if not w.train:
            _, trace = layer_forward(batch, params, cfg, retain=True)
            with tracer.span("attention.backward") as s_back:
                layer_backward(trace, upstream)
            del trace
        # the pooled-grid upstream is internal to layer_backward; the loop's cost
        # does not depend on its values, so a seeded slice stands in for it
        up_pooled = upstream[: len(grid)]
        with tracer.span("pooling.pool_grid_backward", parent=s_back, replay=True):
            pool_grid_backward(op_k, k2, grid, pad_arg, up_pooled)
        with tracer.span("pooling.pool_grid_backward", parent=s_back, replay=True):
            pool_grid_backward(op_v, v2, grid, pad_arg, up_pooled)
    return root.ms, res.degenerate_rows


def traced_run(
    w: Workload, seed: int, seconds: float, checks: Checks, tracer: Tracer
) -> tuple[dict, dict]:
    """Per-layer metrics from spans; untraced requests interleave to give the overhead."""
    prep = prepare(w, seed, tracer, checks)
    metrics = run_gates(w, seed, prep, checks)

    untraced, traced, degenerate, i = [], [], 0, 0
    start = time.perf_counter()
    while i < MIN_TRACED or time.perf_counter() - start < seconds:
        untraced.append(timed_request(w, prep, i, checks) / 1e6)
        ms, rows = traced_request(w, prep, i, tracer, checks)
        traced.append(ms)
        degenerate = max(degenerate, rows)
        i += 1

    fwd_peak, held = forward_memory(w, prep.inputs, retain=False)
    if w.train:
        _, held = forward_memory(w, prep.inputs, retain=True)
    c = w.config
    est = estimate_peak_bytes(
        "two_level", w.n, c.d_model, c.w1, c.w2, c.kappa, c.xi, n_global=w.n_global
    )

    def stage(name, self_time=False):
        return tracer.median_ms(name, self_time), "ms"

    metrics.update({
        "core.project_qkv.ms": stage("core.project_qkv"),
        "windowing.build_pooled_grid.ms": stage("windowing.build_pooled_grid"),
        "pooling.pool_grid.ms": stage("pooling.pool_grid"),
        "pooling.pool_grid_backward.ms": stage("pooling.pool_grid_backward"),
        "attention.first_level.ms": stage("attention.first_level"),
        "attention.first_level.self_ms": stage("attention.first_level", self_time=True),
        "attention.second_level.ms": stage("attention.second_level"),
        "attention.second_level.self_ms": stage("attention.second_level", self_time=True),
        "attention.backward.ms": stage("attention.backward"),
        "attention.backward.self_ms": stage("attention.backward", self_time=True),
        "attention.trace_mb": (held / MIB, "MiB"),
        "attention.degenerate_rows": (degenerate, "count"),
        "costmodel.est_peak_mb": (est / MIB, "MiB"),
        "costmodel.peak_model_ratio": (est / fwd_peak, "ratio"),
        "harness.synth_batch.ms": stage("harness.synth_batch"),
        "harness.init_params.ms": stage("harness.init_params"),
        "harness.tracing_overhead_ms": (
            statistics.median(traced) - statistics.median(untraced), "ms"
        ),
    })
    info = {
        "traced_requests": len(traced),
        "traced_request_ms_p50": statistics.median(traced),
        "untraced_latency_ms_p50": statistics.median(untraced),
        "forward_peak_mb": fwd_peak / MIB,
    }
    return metrics, info
