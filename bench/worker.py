"""Run one benchmark workload once, in this process, and print one JSON line.

    python3 bench/worker.py SCENARIO [--seed N] [--trace]

``run.py`` starts these one at a time, so that every measured run gets
a fresh interpreter and its peak RSS is its own.  The line printed
holds the host timings, the run's simulated fingerprint, the result of
each correctness check, and, with ``--trace``, the per-layer metrics.

Untraced: set-up (``load_scenario`` plus ``Simulation(...)``) is done
``SETUPS`` times and the median is reported; the last simulation built
is run.  Traced: set-up is done once, and everything runs under the span
wrappers of ``tracer.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import georep  # noqa: E402
from georep import Simulation, Trigger, write_csv  # noqa: E402

# Set-ups per untraced worker; their median is the worker's set-up time.
SETUPS = 21

def measure(scenario_path: Path, seed: int | None, trace: bool = False) -> dict:
    """Set up and run one simulation; return its measurements and checks."""
    clock = time.perf_counter
    if trace:
        from tracer import SpanRecorder, traced

        rec = SpanRecorder()
        with traced(rec):
            started = clock()
            sim = Simulation(georep.load_scenario(scenario_path, seed_override=seed))
            setup_times = [clock() - started]
            run_started = clock()
            result = sim.run()
            run_s = clock() - run_started
        wall_s = clock() - started
    else:
        setup_times = []
        for _ in range(SETUPS):
            started = clock()
            sim = Simulation(georep.load_scenario(scenario_path, seed_override=seed))
            setup_times.append(clock() - started)
        run_started = clock()
        result = sim.run()
        run_s = clock() - run_started
        wall_s = None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = result.summary
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        csv_path = Path(tmp) / "run.csv"
        write_csv(csv_path, result.rows)
        csv_sha256 = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    tallies = {key: summary[key] for key in ("applied", "stale_discarded",
                                             "duplicates", "echoes")}
    fingerprint = {
        "csv_sha256": csv_sha256,
        "digests": summary["digests"],
        "tallies": tallies,
        "counts": {key: summary[key] for key in (
            "operations", "shipped_updates", "total_batches", "total_bytes",
            "peak_window_bytes", "final_ms")},
    }
    delivered = Counter()
    for record in result.batches:
        delivered[str(record.batch.destination)] += len(record.batch.updates)
    checks = {
        "operations_match_workload": summary["operations"] == sim.scenario.workload.operations,
        "replica_digests_equal": len(set(summary["digests"].values())) == 1,
        "no_echoes": not any(tallies["echoes"].values()),
        "per_cluster_applies_match_deliveries": all(
            tallies["applied"][c] + tallies["stale_discarded"][c] + tallies["duplicates"][c]
            == delivered[c] for c in tallies["applied"]),
        "applies_account_for_shipped_updates":
            sum(delivered.values()) == summary["shipped_updates"],
        "every_batch_delivered": summary["total_batches"] == len(result.batches)
            and all(record.delivered_ms >= 0 for record in result.batches),
    }
    out = {
        "trace": trace,
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "wall_s": wall_s,
        "ops": summary["operations"],
        "rss_mb": rss_mb,
        "fingerprint": fingerprint,
        "checks": checks,
    }
    if trace:
        out["simulated"], out["layers"] = _traced_metrics(rec, summary, checks)
    return out


def _traced_metrics(rec, summary: dict, checks: dict) -> tuple[dict, dict]:
    """Reduce the spans and counters of a traced run to metrics, adding
    the checks that need the span counts."""
    from tracer import SPANS

    self_times, calls = rec.self_times(), rec.span_counts()
    counts = rec.counts
    layers: dict[str, float | int] = {}
    for *_, span, time_name, count_name in SPANS:
        layers[time_name] = self_times.get(span, 0.0)
        if count_name is not None:
            layers[count_name] = calls.get(span, 0)
    layers["workload.ops"] = counts["workload.generate.items"]
    layers["cache.drained_updates"] = counts["cache.drained_updates"]
    layers["cache.peak_pending"] = max(summary["pending_max_per_container"].values(),
                                       default=0)
    batches = sum(counts["shipping.batches." + t.name] for t in Trigger)
    for t in Trigger:
        layers["shipping.batches." + t.name] = counts["shipping.batches." + t.name]
    layers["shipping.batches"] = batches
    layers["shipping.updates"] = counts["shipping.updates"]
    layers["shipping.bytes"] = counts["shipping.bytes"]
    layers["shipping.updates_per_batch"] = counts["shipping.updates"] / batches if batches else 0.0
    layers["cluster.apply_remote_updates"] = counts["cluster.apply_remote_updates"]
    outcome = {}
    for key in ("applied", "stale_discarded", "duplicates"):
        outcome[key] = sum(summary[key].values())
        layers["cluster." + key] = outcome[key]
    attempts = sum(outcome.values())
    layers["cluster.useful_apply_ratio"] = outcome["applied"] / attempts if attempts else 0.0
    ages = sorted(rec.ages)
    layers["metrics.staleness_samples"] = len(ages)

    checks["every_submitted_batch_noted_at_delivery"] = (
        layers["simnet.submit_calls"] == layers["metrics.note_delivery_calls"]
        == summary["total_batches"])
    checks["remote_applies_match_deliveries"] = (
        layers["cluster.apply_remote_updates"] == len(ages) == attempts)

    simulated = {
        "peak_window_bytes": summary["peak_window_bytes"],
        "staleness_p50_ms": _nearest_rank(ages, 50),
        "staleness_p99_ms": _nearest_rank(ages, 99),
    }
    return simulated, layers


def _nearest_rank(ordered, pct: float) -> int:
    if not ordered:
        return 0
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", type=Path)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    out = measure(args.scenario, args.seed, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
