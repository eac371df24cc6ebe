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

_COMMANDS = ("forward", "oracle-diff", "gradcheck", "bench", "cost")


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
            rc = replace(rc, seed=args.seed & ((1 << 64) - 1))

        if args.command == "forward":
            rows = harness.run_forward(rc)
            harness.write_csv(out, harness.FORWARD_HEADER, rows)
            print(f"forward: {len(rows)} rows -> {out}")
            return 0
        if args.command == "cost":
            rows = harness.run_cost(rc)
            harness.write_csv(out, harness.COST_HEADER, rows)
            print(f"cost: {len(rows)} rows -> {out}")
            return 0
        if args.command == "oracle-diff":
            rows, ok = harness.run_oracle_diff(rc)
            harness.write_csv(out, harness.ORACLE_DIFF_HEADER, rows)
            failures = sum(1 for r in rows if r[-1] == "FAIL")
            print(f"oracle-diff: {len(rows)} checks, {failures} failures -> {out}")
            return 0 if ok else 1
        if args.command == "gradcheck":
            rows, ok = harness.run_gradcheck(rc)
            harness.write_csv(out, harness.GRADCHECK_HEADER, rows)
            failures = sum(1 for r in rows if r[-1] == "FAIL")
            print(f"gradcheck: {len(rows)} parameters, {failures} failures -> {out}")
            return 0 if ok else 1
        if args.command == "bench":
            records, notices = harness.run_bench(rc, dense_cap=args.dense_cap)
            for notice in notices:
                print(notice, file=sys.stderr)
            harness.write_csv(out, harness.BENCH_HEADER, [r.row() for r in records])
            for rec in records:
                print(f"{rec.pattern:12s} n={rec.n:<6d} median={rec.median_ns / 1e6:10.3f} ms")
            print(f"bench: {len(records)} points -> {out}")
            return 0
        raise AssertionError(args.command)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
