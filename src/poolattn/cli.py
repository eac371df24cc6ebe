"""Command-line entry point.

Exit codes: 0 success, 1 verification failure, 2 usage error (bad arguments,
malformed config, violated preconditions).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from poolattn import harness

# the commands that run, write their rows and print a summary the same way:
# runner, row type, and what a row counts
_RUNS = {
    "forward": (harness.run_forward, harness.ForwardRow, "rows"),
    "oracle-diff": (harness.run_oracle_diff, harness.OracleDiffRow, "checks"),
    "gradcheck": (harness.run_gradcheck, harness.GradcheckRow, "parameters"),
    "cost": (harness.run_cost, harness.CostRow, "rows"),
}
_COMMANDS = (*_RUNS, "bench")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolattn",
        description="Two-level pooled-attention verification and benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=Path, default=None,
                         help="flat key=value config file (defaults apply if omitted)")
        cmd.add_argument("--out", type=Path, default=None,
                         help=f"output CSV path (default: {name}.csv)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        if name == "bench":
            cmd.add_argument("--dense-cap", type=int, default=harness.DEFAULT_DENSE_CAP,
                             help="largest n for the dense baseline")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = args.out or Path(f"{args.command}.csv")
    try:
        rc = harness.load_config(args.config)
        if args.seed is not None:
            rc = replace(rc, seed=harness.CONFIG_KEYS["seed"].parse(args.seed))

        if args.command == "bench":
            records, notices = harness.run_bench(rc, dense_cap=args.dense_cap)
            for notice in notices:
                print(notice, file=sys.stderr)
            harness.write_csv(out, harness.BenchRecord, records)
            for rec in records:
                print(f"{rec.pattern:12s} n={rec.n:<6d} median={rec.median_ns / 1e6:10.3f} ms")
            print(f"bench: {len(records)} points -> {out}")
            return 0
        run, row_type, unit = _RUNS[args.command]
        rows = run(rc)
        harness.write_csv(out, row_type, rows)
        summary, failures = f"{args.command}: {len(rows)} {unit}", 0
        if "status" in row_type._fields:
            failures = sum(r.status == "FAIL" for r in rows)
            summary += f", {failures} failures"
        print(f"{summary} -> {out}")
        return 1 if failures else 0
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
