"""Benchmark of the poolattn two-level attention layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) as a single caller in a closed
loop, with BLAS pinned to one thread, and prints every metric by name with
its unit.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` times the requests and reports the end-to-end metrics;
``--trace 1`` runs the stages under spans and reports the per-layer metrics
and the tracing overhead.  Both run every correctness check; ``attempted``
and ``failed`` count them, and ``correct`` is true only if none failed.
Each run also writes its result (and, traced, its spans) under
``perfbench/results/``.  The layer is imported from ``src/`` next to this
directory; without it the script exits with status 2.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads", "openblas_get_num_threads",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="n=256 instead of the workload's n")
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the loaded library; None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def platform_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "poolattn" / "__init__.py").is_file():
        print(f"error: no poolattn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # OpenBLAS reads these once, when numpy first loads it
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    from gates import Checks
    from measure import timed_run, traced_run
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = w.tiny()

    platform = platform_info()
    checks = Checks()
    if platform["blas_threads"] is not None:
        checks.check("blas.pinned", platform["blas_threads"] == 1,
                     f"OpenBLAS runs {platform['blas_threads']} threads")
    tracer = Tracer()
    if args.trace:
        metrics, info = traced_run(w, args.seed, args.seconds, checks, tracer)
    else:
        metrics, info = timed_run(w, args.seed, args.seconds, checks)

    stem = f"{w.name}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": w.name, "n": w.n, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "platform": platform, "info": info,
        "error_rate": checks.error_rate, "failures": checks.failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(RESULTS / f"{stem}-spans.json")

    print(f"workload {w.name} n={w.n} seed={args.seed} trace={args.trace}")
    print("platform " + " ".join(f"{k}={v}" for k, v in platform.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for key, value in info.items():
        print(f"info {key} = {value}")
    print(f"error_rate = {checks.error_rate:.6g} ({checks.failed} failed of {checks.attempted})")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
