"""Verification and benchmark harness: config files, synthetic data, runners.

The PRNG is SplitMix64 driving a 53-bit uniform mapper, fixed exactly so that
golden fixtures are portable.  Config files are flat ``key = value`` text with
``#`` comments.  Each runner returns rows of its CLI table's row type, a
namedtuple whose fields are the CSV columns after ``schema``; ``write_csv``
writes the header from those fields and the schema version on every row.  A
check's verdict is only its row's ``status``.  Every runner is deterministic
given (config text, seed); benchmark wall times are the only nondeterministic
outputs.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import statistics
import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from poolattn.attention import (
    LayerGrads,
    first_level_forward,
    layer_backward,
    layer_forward,
    second_level_forward,
)
from poolattn.core import (
    POOLING_KINDS,
    LayerConfig,
    LayerParams,
    ProjectionTriple,
    SequenceBatch,
    project_qkv,
)
from poolattn.costmodel import (
    CostReport,
    cost_dense,
    cost_single_window,
    cost_two_level,
    estimate_peak_bytes,
)
from poolattn.oracle import (
    LITERAL_ORACLE_MAX_N,
    dense_first_level,
    dense_layer_reference,
    literal_pooling_attention,
    per_head_dense,
)

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # optional; OpenBLAS is pinned through ctypes without it
    threadpool_limits = None

SCHEMA_VERSION = 1

ORACLE_DIFF_THRESHOLD = 1e-10
GRADCHECK_THRESHOLD = 1e-6
GRADCHECK_STEP = 1e-5
GRADCHECK_MAX_N = 64
DEFAULT_DENSE_CAP = 2048
DEFAULT_MEM_GUARD = 2 << 30

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


# ---------------------------------------------------------------------------
# seeded randomness


def splitmix64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """`count` outputs of the SplitMix64 sequence for `seed`, starting at `offset`.

    Output i is mix64(seed + (i+1) * 0x9E3779B97F4A7C15) with the standard
    30/27/31 xor-shift-multiply finalizer, all arithmetic mod 2^64.
    """
    if count < 0 or offset < 0:
        raise ValueError("count and offset must be non-negative")
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + idx * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def unit_uniform(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Uniform float64 in [0, 1): the top 53 bits of each SplitMix64 output."""
    return (splitmix64(seed, count, offset) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def symmetric_uniform(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Uniform float64 in [-1, 1)."""
    return 2.0 * unit_uniform(seed, count, offset) - 1.0


def synth_batch(n: int, d: int, seed: int, global_count: int = 0) -> SequenceBatch:
    """Seeded synthetic batch: uniform [-1, 1) embeddings, globals at 0..g-1."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if not 0 <= global_count <= n:
        raise ValueError(f"global_count must be in [0, {n}]")
    emb = symmetric_uniform(seed, n * d).reshape(n, d)
    return SequenceBatch.of(emb, global_set=range(global_count))


def init_params(config: LayerConfig, seed: int) -> LayerParams:
    """Seeded parameters, every entry uniform in [-1/sqrt(d), 1/sqrt(d)).

    One SplitMix64 stream is consumed in a fixed field order (first triple,
    then the second triple unless shared, then the two pooling weight
    matrices), so identical (config, seed) pairs always yield identical
    parameters.
    """
    d = config.d_model
    scale = 1.0 / np.sqrt(d)
    offset = 0

    def draw(*shape):
        nonlocal offset
        count = int(np.prod(shape))
        block = scale * symmetric_uniform(seed, count, offset).reshape(shape)
        offset += count
        return block

    def draw_triple():
        return ProjectionTriple(
            draw(d, d), draw(d),
            draw(d, d), draw(d),
            draw(d, d), draw(d),
        )

    first = draw_triple()
    second = first if config.share_projections else draw_triple()
    wpk = wpv = None
    if config.needs_pool_weights:
        wpk = draw(config.kappa, d)
        wpv = draw(config.kappa, d)
    return LayerParams(first, second, wpk, wpv).validate(config)


def batch_checksum(arr: np.ndarray) -> str:
    """Portable sha256 hex digest of a float64 array (little-endian bytes)."""
    data = np.ascontiguousarray(arr, dtype="<f8")
    return hashlib.sha256(data.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# config files


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return raw.lower() == "true"


def _show_bool(value: bool) -> str:
    return "true" if value else "false"


def _parse_pooling(raw: str) -> str:
    if raw not in POOLING_KINDS:
        raise ValueError(f"expected one of {', '.join(POOLING_KINDS)}")
    return raw


def _parse_n_list(raw: str) -> tuple[int, ...]:
    values = tuple(int(part.strip()) for part in raw.split(",") if part.strip())
    if not values or any(v < 1 for v in values):
        raise ValueError("expected a comma-separated list of positive ints")
    return values


class _Key(NamedTuple):
    parse: Callable[[str], object]
    show: Callable[[object], str]
    field: str  # "layer.<LayerConfig field>" or a RunConfig field


# every config key, in canonical order: parsing, serializing and the
# unknown-key check all read this table
CONFIG_KEYS = {
    "d_model": _Key(int, str, "layer.d_model"),
    "n_heads": _Key(int, str, "layer.n_heads"),
    "w1": _Key(int, str, "layer.w1"),
    "w2": _Key(int, str, "layer.w2"),
    "kappa": _Key(int, str, "layer.kappa"),
    "xi": _Key(int, str, "layer.xi"),
    "pooling": _Key(_parse_pooling, str, "layer.pooling_kind"),
    "mix": _Key(
        lambda raw: "raw_embeddings" if _parse_bool(raw) else "first_level_output",
        lambda value: _show_bool(value == "raw_embeddings"),
        "layer.second_level_input",
    ),
    "share_projections": _Key(_parse_bool, _show_bool, "layer.share_projections"),
    "n_list": _Key(_parse_n_list, lambda values: ", ".join(map(str, values)), "n_list"),
    "seed": _Key(lambda raw: int(raw) & _MASK64, str, "seed"),
    "trials": _Key(int, str, "trials"),
}


@dataclass(frozen=True)
class RunConfig:
    """One harness run: the layer settings plus sweep/seed/trial controls."""

    layer: LayerConfig = LayerConfig()
    n_list: tuple[int, ...] = (4096, 8192, 16384)
    seed: int = 1
    trials: int = 7


def parse_config(text: str) -> RunConfig:
    """Parse a flat ``key = value`` config document, applying defaults.

    Unknown and duplicate keys are rejected with the offending line number;
    constraint violations (for example xi > kappa) surface the layer
    validation message.
    """
    layer_kwargs: dict[str, object] = {}
    run_kwargs: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        if key not in CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key '{key}'")
        owner, _, name = CONFIG_KEYS[key].field.rpartition(".")
        kwargs = layer_kwargs if owner else run_kwargs
        if name in kwargs:
            raise ValueError(f"line {lineno}: duplicate key '{key}'")
        try:
            kwargs[name] = CONFIG_KEYS[key].parse(value)
        except ValueError as err:
            raise ValueError(f"line {lineno}: bad value for '{key}': {err}") from None

    try:
        layer = LayerConfig(**layer_kwargs)
    except ValueError as err:
        raise ValueError(f"config invalid: {err}") from None
    rc = RunConfig(layer, **run_kwargs)
    if rc.trials < 1:
        raise ValueError("config invalid: trials must be >= 1")
    return rc


def serialize_config(rc: RunConfig) -> str:
    """Canonical config text; ``parse_config(serialize_config(rc)) == rc``."""
    lines = []
    for key, entry in CONFIG_KEYS.items():
        owner, _, name = entry.field.rpartition(".")
        lines.append(f"{key} = {entry.show(getattr(rc.layer if owner else rc, name))}")
    return "\n".join(lines) + "\n"


def load_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return parse_config(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# finite differences


def central_difference(f, x: np.ndarray) -> np.ndarray:
    """Gradient of scalar ``f`` at ``x`` by central differences of step GRADCHECK_STEP."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + GRADCHECK_STEP
        hi = f(x)
        flat[i] = orig - GRADCHECK_STEP
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * GRADCHECK_STEP)
    return grad


def max_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-3) -> float:
    """Max elementwise |a-b| / max(floor, |a|, |b|).

    The floor keeps near-zero entries from amplifying finite-difference noise
    (~1e-10 absolute for the 1e-5 step); entries below it are effectively
    compared absolutely at floor * tolerance.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def relative_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Max |a-b| normalized by the reference magnitude max|b| (abs if b is 0)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    return diff / scale if scale > 0.0 else diff


def _named_arrays(tree: LayerParams | LayerGrads) -> dict[str, np.ndarray]:
    """Every array of a LayerParams or LayerGrads by name, in field order.

    Triple entries are named ``first.w_q`` and so on; a ``second`` triple that
    aliases ``first`` (shared projections) and absent pooling weights are left out.
    """
    arrays: dict[str, np.ndarray] = {}
    for f in fields(tree):
        value = getattr(tree, f.name)
        if isinstance(value, ProjectionTriple):
            if f.name == "second" and value is tree.first:
                continue
            arrays.update((f"{f.name}.{k}", a) for k, a in value._asdict().items())
        elif value is not None:
            arrays[f.name] = value
    return arrays


def gradcheck_layer(
    config: LayerConfig,
    n: int,
    seed: int,
    global_count: int = 1,
) -> dict[str, float]:
    """Check every parameter gradient (and the input gradient) of one layer.

    Runs the analytic backward once, then compares each parameter and the
    embeddings against a central finite difference of the scalar loss
    sum(upstream * output).  Returns the max relative error per name.
    """
    if n > GRADCHECK_MAX_N:
        raise ValueError(f"gradcheck is limited to n <= {GRADCHECK_MAX_N}")
    batch = synth_batch(n, config.d_model, seed, global_count)
    params = init_params(config, seed + 1)
    upstream = symmetric_uniform(seed + 2, n * config.d_model).reshape(n, config.d_model)

    _, trace = layer_forward(batch, params, config)
    grads = _named_arrays(layer_backward(trace, upstream))

    # central_difference perturbs each entry in place and restores it exactly,
    # so the loss reads this call's own parameters and embeddings
    def loss(_) -> float:
        out, _ = layer_forward(batch, params, config, retain=False)
        return float(np.sum(upstream * out))

    targets = _named_arrays(params) | {"embeddings": batch.embeddings}
    return {
        name: max_rel_error(grads[name], central_difference(loss, target))
        for name, target in targets.items()
    }


# ---------------------------------------------------------------------------
# runners


# one row type per CLI table: its fields are the CSV columns after ``schema``
ForwardRow = namedtuple(
    "ForwardRow", "n d_model n_heads pooling checksum first_score_evals second_score_evals "
    "degenerate_rows",
)
# the cost columns are CostReport's, less the per-token counts
CostRow = namedtuple("CostRow", [f.name for f in fields(CostReport) if f.name != "per_token"])
# status is "pass" or "FAIL", or "info" (with no threshold) on informational rows
OracleDiffRow = namedtuple("OracleDiffRow", "check pooling variant n max_rel_err threshold status")
GradcheckRow = namedtuple(
    "GradcheckRow", "n pooling mix share_projections param max_rel_err threshold status"
)
BenchRecord = namedtuple(
    "BenchRecord", "pattern n trials median_ns per_token_ns score_evals est_peak_bytes"
)


def run_forward(rc: RunConfig) -> list[ForwardRow]:
    """Forward the configured layer over each n; report checksums and counters."""
    rows = []
    for n in rc.n_list:
        batch = synth_batch(n, rc.layer.d_model, rc.seed)
        params = init_params(rc.layer, rc.seed + 1)
        out, trace = layer_forward(batch, params, rc.layer, retain=False)
        rows.append(ForwardRow(
            n, rc.layer.d_model, rc.layer.n_heads, rc.layer.pooling_kind,
            batch_checksum(out), int(trace.first_counts.sum()),
            int(trace.second_counts.sum()), int(trace.degenerate_second.sum()),
        ))
    return rows


def run_cost(rc: RunConfig) -> list[CostRow]:
    """Analytic cost table: dense, single-window, and two-level per n."""
    layer = rc.layer
    rows = []
    for n in rc.n_list:
        reports = (
            cost_dense(n, d_model=layer.d_model),
            cost_single_window(n, layer.w1, d_model=layer.d_model),
            cost_two_level(
                n, layer.w1, layer.w2, layer.kappa, layer.xi, d_model=layer.d_model
            ),
        )
        rows += [CostRow(*(getattr(rep, name) for name in CostRow._fields)) for rep in reports]
    return rows


def _oracle_variants(layer: LayerConfig):
    yield "plain", replace(layer, second_level_input="first_level_output", share_projections=False)
    yield "mix", replace(layer, second_level_input="raw_embeddings", share_projections=False)
    yield "share", replace(layer, second_level_input="first_level_output", share_projections=True)


def run_oracle_diff(rc: RunConfig) -> list[OracleDiffRow]:
    """Compare the fast path against every applicable oracle.

    Per n and pooling kind (plain / mix / weight-sharing variants): the first
    level against masked dense attention, the shared-grid second level against
    the literal per-token oracle at full window, and the whole layer against a
    dense two-pass reference with identity pooling.  The shared-vs-literal gap
    at the configured (smaller) w2 is reported as an informational row.
    """
    for n in rc.n_list:
        if n > LITERAL_ORACLE_MAX_N:
            raise ValueError(f"oracle-diff is limited to n <= {LITERAL_ORACLE_MAX_N}")
    rows: list[OracleDiffRow] = []

    def record(check, pooling, variant, n, err):
        rows.append(OracleDiffRow(check, pooling, variant, n, err, ORACLE_DIFF_THRESHOLD,
                                  "pass" if err <= ORACLE_DIFF_THRESHOLD else "FAIL"))

    case = 0
    for n in rc.n_list:
        g = min(2, n - 1) if n > 1 else 0
        for kind in POOLING_KINDS:
            for variant, layer in _oracle_variants(replace(rc.layer, pooling_kind=kind)):
                case += 1
                seed = rc.seed + 977 * case
                batch = synth_batch(n, layer.d_model, seed, g)

                # first level vs masked dense attention
                params = init_params(layer, seed + 1)
                y, _ = first_level_forward(batch, params, layer)
                record("first_level_vs_masked_dense", kind, variant, n,
                       relative_diff(y, dense_first_level(batch, params, layer)))

                # shared-grid second level vs the literal per-token oracle at w2 = n
                wide = replace(layer, w1=min(layer.w1, n), w2=n)
                params_w = init_params(wide, seed + 1)
                y_w, _ = first_level_forward(batch, params_w, wide)
                z, _ = second_level_forward(batch, y_w, params_w, wide)
                record("second_level_vs_literal", kind, variant, n,
                       relative_diff(z, literal_pooling_attention(batch, y_w, params_w, wide)))

                # whole layer vs dense two-pass reference with identity pooling
                ident = replace(wide, kappa=1, xi=1, w1=n)
                params_i = init_params(ident, seed + 2)
                out, _ = layer_forward(batch, params_i, ident)
                record("layer_vs_dense", kind, variant, n,
                       relative_diff(out, dense_layer_reference(batch, params_i, ident)))

                # informational: shared grid vs literal at the configured w2
                if wide.w2 != layer.w2:
                    z_s, _ = second_level_forward(batch, y, params, layer)
                    z_l = literal_pooling_attention(batch, y, params, layer)
                    rows.append(OracleDiffRow("shared_vs_literal_gap", kind, variant, n,
                                              relative_diff(z_s, z_l), "", "info"))
    return rows


def run_gradcheck(rc: RunConfig) -> list[GradcheckRow]:
    """Finite-difference check of all parameters for every pooling kind."""
    for n in rc.n_list:
        if n > GRADCHECK_MAX_N:
            raise ValueError(f"gradcheck is limited to n <= {GRADCHECK_MAX_N}")
    rows: list[GradcheckRow] = []
    for n in rc.n_list:
        for kind in POOLING_KINDS:
            layer = replace(rc.layer, pooling_kind=kind)
            for name, err in gradcheck_layer(layer, n, rc.seed).items():
                rows.append(GradcheckRow(
                    n, kind, _show_bool(layer.mix), _show_bool(layer.share_projections), name,
                    err, GRADCHECK_THRESHOLD, "pass" if err <= GRADCHECK_THRESHOLD else "FAIL",
                ))
    return rows


def _interleaved_medians(points: list[tuple[tuple, object]], trials: int) -> dict[tuple, int]:
    """Median wall time per point, timing all points round-robin.

    Interleaving rounds keeps allocator and cache temperature comparable
    across sequence lengths, which sequential per-point timing does not.
    """
    for _, fn in points:
        fn()  # warmup, discarded
    samples: dict[tuple, list[int]] = {key: [] for key, _ in points}
    for _ in range(trials):
        for key, fn in points:
            t0 = time.perf_counter_ns()
            fn()
            samples[key].append(time.perf_counter_ns() - t0)
    return {key: int(statistics.median(times)) for key, times in samples.items()}


def _openblas_thread_calls():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no /proc: not Linux
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Pin BLAS to one thread inside the block; yields the thread count in effect.

    Uses threadpoolctl when installed, else OpenBLAS's own thread-count calls
    through ctypes, restoring the previous count on exit.  Yields None when
    the count cannot be read: no threadpoolctl and no OpenBLAS found.
    """
    calls = _openblas_thread_calls()
    if threadpool_limits is not None:
        with threadpool_limits(limits=1):
            # threadpoolctl pins every BLAS it knows, OpenBLAS or not
            yield calls[0]() if calls else 1
    elif calls is None:
        yield None
    else:
        get, put = calls
        before = get()
        put(1)
        try:
            yield get()
        finally:
            put(before)


def run_bench(
    rc: RunConfig,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> tuple[list[BenchRecord], list[str]]:
    """Median-of-trials forward timings: the two-level path over n_list plus a
    dense baseline up to ``dense_cap``.

    The dense baseline runs at every n <= ``dense_cap``; if there is none, at
    ``dense_cap`` // 4, // 2 and itself, so ``dense_cap`` must then be >= 4.
    Sequence lengths must be ascending; at least 3 timed trials per point (one
    extra warmup trial is discarded).  Points whose analytic peak-memory
    estimate exceeds ``DEFAULT_MEM_GUARD`` are skipped with a notice.  BLAS is pinned to
    one thread during timing (``_one_blas_thread``); if that fails, a notice
    names the thread count the timings ran with.
    """
    if list(rc.n_list) != sorted(set(rc.n_list)):
        raise ValueError("bench requires strictly ascending n values")
    if rc.trials < 3:
        raise ValueError("bench requires at least 3 trials")
    dense_ns = [n for n in rc.n_list if n <= dense_cap]
    if not dense_ns:
        if dense_cap < 4:
            raise ValueError(
                f"dense_cap must be >= 4 when no n in n_list is <= it, got dense_cap={dense_cap}"
            )
        dense_ns = [dense_cap // 4, dense_cap // 2, dense_cap]
    layer = rc.layer
    notices: list[str] = []
    points: list[tuple[tuple, object]] = []  # ((pattern, n, score_evals, est), pass)

    for pattern, ns in (("two_level", rc.n_list), ("dense", dense_ns)):
        for n in ns:
            est = estimate_peak_bytes(
                pattern, n, layer.d_model, layer.w1, layer.w2, layer.kappa, layer.xi,
                n_heads=layer.n_heads,
            )
            if est > DEFAULT_MEM_GUARD:
                notices.append(f"skipped {pattern} n={n}: estimated {est} bytes over guard")
                continue
            batch = synth_batch(n, layer.d_model, rc.seed)
            params = init_params(layer, rc.seed + 1)
            if pattern == "two_level":
                def run(batch=batch, params=params):
                    return layer_forward(batch, params, layer, retain=False)

                trace = run()[1]
                score_evals = int(trace.first_counts.sum() + trace.second_counts.sum())
            else:
                # projections included, as in the two-level pass
                def run(batch=batch, params=params, mask=np.ones((n, n), dtype=bool)):
                    return per_head_dense(*project_qkv(batch.embeddings, params.first), mask, layer)

                score_evals = n * n
            points.append(((pattern, n, score_evals, est), run))

    with _one_blas_thread() as threads:
        medians = _interleaved_medians(points, rc.trials)
    if points and threads != 1:
        notices.append(
            f"timed with {threads} BLAS threads: pinning to one failed" if threads
            else "timed with an unknown BLAS thread count: no threadpoolctl and no OpenBLAS found"
        )
    return [
        BenchRecord(pattern, n, rc.trials, median, median / n, score, est)
        for (pattern, n, score, est), median in medians.items()
    ], notices


def write_csv(path: str | Path, row_type: type, rows) -> None:
    """RFC-4180-style CSV (CRLF, quoted as needed) of ``row_type`` rows.

    The header is ``schema`` and the row type's fields; every row starts with
    SCHEMA_VERSION.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("schema", *row_type._fields))
        writer.writerows((SCHEMA_VERSION, *row) for row in rows)
