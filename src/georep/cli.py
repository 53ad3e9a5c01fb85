"""Command-line entry points.

    georep run <scenario.ini> [--out DIR] [--seed N] [--quiet]
    georep compare <a.csv> <b.csv>
    georep validate <scenario.ini>

Exit codes: 0 success, 2 malformed scenario or inputs, 3 livelock
(event budget exceeded).
"""

from __future__ import annotations

import argparse
import sys

from .engine import run_scenario
from .errors import LivelockError, ScenarioError
from .metrics import compare_runs, format_comparison
from .scenario import load_scenario

EXIT_OK = 0
EXIT_BAD_SCENARIO = 2
EXIT_LIVELOCK = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="georep",
        description="Bounded-divergence geo-replication simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario to quiescence and write its CSV")
    run.add_argument("scenario", help="scenario file path")
    run.add_argument("--out", default=".", help="output directory (default: cwd)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario's workload seed")
    run.add_argument("--quiet", action="store_true", help="suppress the summary printout")

    compare = sub.add_parser("compare", help="relate two run CSVs (B relative to A)")
    compare.add_argument("csv_a", help="baseline run CSV")
    compare.add_argument("csv_b", help="comparison run CSV")

    validate = sub.add_parser("validate", help="check a scenario file without running it")
    validate.add_argument("scenario", help="scenario file path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_validate(args)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SCENARIO
    except LivelockError as exc:
        print(f"livelock: {exc}", file=sys.stderr)
        return EXIT_LIVELOCK


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, seed_override=args.seed)
    result = run_scenario(scenario, args.out)
    if not args.quiet:
        s = result.summary
        print(f"scenario {s['scenario']}: {s['operations']} ops, "
              f"{s['shipped_updates']} updates shipped in {s['total_batches']} batches, "
              f"{s['total_bytes']} bytes, finished at t={s['final_ms']}ms")
        print(f"peak window bytes {s['peak_window_bytes']}, "
              f"max staleness {s['max_staleness_ms']}ms, "
              f"ingestion {s['ops_per_sec']} ops/sec")
        for cid, digest in s["digests"].items():
            print(f"cluster {cid} digest {digest}")
        print(f"wrote {result.csv_path} and {result.summary_path}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    comparison = compare_runs(args.csv_a, args.csv_b)
    print(format_comparison(comparison))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    print(f"ok: {scenario.name} ({len(scenario.clusters)} clusters, "
          f"{len(scenario.links)} links, {scenario.workload.total_updates} updates)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
