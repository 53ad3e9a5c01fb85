"""georep benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  georep is a batch simulator: each
workload scripts its arrivals in simulated time (an open loop in
simulated time) and the host runs them as fast as it can, so host
throughput is work completed per second at the workload's fixed size.

One process drives; it runs one worker process at a time (``worker.py``),
each setting up and running the workload once with the given seed:

* one traced worker first, whose span wrappers give the per-layer
  metrics, the exact counters and the simulated metrics;
* then untraced workers, which give the host metrics, until ``--seconds``
  have passed and at least three have run.  With ``--trace 1`` traced and
  untraced workers alternate, at least three of each.

Host metrics are medians over the untraced workers: peak RSS, and the
set-up and run times behind ``setup_s`` and ``ops_per_s``, each scaled
by how fast a calibration loop ran just before the worker started (see
``calibration_s``).
Per-layer times are medians over the traced workers.
Every worker's simulated fingerprint and
every traced worker's counters must be identical, or the run is marked
incorrect.  The metric names and units come from ``BENCHMARK.json``.
The last line printed is one JSON object: ``correct``, ``attempted`` and
``failed`` count correctness checks, and ``metrics`` holds the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
Every metric, both kinds, is also printed with its unit before it.
"""

from __future__ import annotations

import argparse
import heapq
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = BENCH / "workloads"

# Seconds the calibration loop takes on a reference host (an
# unloaded 2-vCPU Xeon VM, Python 3.11); host times are scaled to it.
REFERENCE_CAL_S = 0.2
MIN_RUNS = 3
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(scenario: Path, seed: int | None, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), str(scenario)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(scenario: Path, seed: int | None, seconds: float,
            trace: bool) -> tuple[list[dict], list[dict]]:
    """Run workers for about ``seconds``; return (traced, untraced).

    Once the minimum counts are met, a worker starts only if one of its
    kind, judged by the last one, would end before the time is up.
    """
    deadline = time.monotonic() + seconds
    runs: dict[bool, list[dict]] = {True: [], False: []}
    took = {True: 0.0, False: 0.0}
    kind = True
    while True:
        started = time.monotonic()
        cal_s = None if kind else calibration_s()
        runs[kind].append(run_worker(scenario, seed, kind) | {"cal_s": cal_s})
        took[kind] = time.monotonic() - started
        kind = trace and len(runs[True]) <= len(runs[False])
        done = len(runs[False]) >= MIN_RUNS and (not trace or len(runs[True]) >= MIN_RUNS)
        if done and time.monotonic() + took[kind] > deadline:
            return runs[True], runs[False]


def calibration_s() -> float:
    """Host seconds taken by a fixed loop of allocation, dict and heap work.

    Timed just before each untraced worker starts, it tells how fast the
    host is at that moment.  It runs in this driving process, not in the
    worker, so that nothing the simulator leaves in memory can change its
    speed, and its own memory is not in the worker's peak RSS.  On a
    shared host, speed drifts by tens of percent over minutes, and
    memory-bound code slows more than the rest, so the loop churns a
    working set of some tens of MB, as the workloads do.
    """
    started = time.perf_counter()
    rng = random.Random(12345)
    keys = [rng.getrandbits(40) for _ in range(100_000)]
    table, heap = {}, []
    for i, k in enumerate(keys):
        table[k % 50_021] = (i, k, b"x" * (k & 127))
        heapq.heappush(heap, (k & 0xFFFF, i))
        if len(heap) > 4096:
            heapq.heappop(heap)
    sum(table[k % 50_021][0] for k in keys)
    return time.perf_counter() - started


def summarize(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict, dict]:
    """Return (end-to-end metrics, per-layer metrics, check results)."""
    median = statistics.median
    first = traced[0]
    # Host speed drifts by tens of percent for minutes at a time on a
    # shared host, and no best-of-N gets past that.  A fixed calibration
    # loop is timed just before each untraced worker starts; the median of
    # the host times, each scaled by its worker's calibration, stays steady.
    def scaled(key: str) -> float:
        return median(w[key] * REFERENCE_CAL_S / w["cal_s"] for w in untraced)

    end_to_end = {
        "setup_s": scaled("setup_s"),
        "ops_per_s": first["ops"] / scaled("run_s"),
        "peak_rss_mb": median(w["rss_mb"] for w in untraced),
        **first["simulated"],
    }
    per_layer = {}
    for name, value in first["layers"].items():
        if name.endswith("_s"):
            per_layer[name] = median(w["layers"][name] for w in traced)
        else:
            per_layer[name] = value
    per_layer["trace.overhead"] = (median(w["run_s"] for w in traced)
                                   / median(w["run_s"] for w in untraced))

    checks = {}
    for i, worker in enumerate(traced + untraced):
        for name, ok in worker["checks"].items():
            checks[f"worker{i}.{name}"] = ok
        if i:
            checks[f"worker{i}.fingerprint_repeats"] = \
                worker["fingerprint"] == first["fingerprint"]
        if i and worker["trace"]:
            checks[f"worker{i}.counts_repeat"] = worker["simulated"] == first["simulated"] \
                and all(worker["layers"][name] == value
                        for name, value in first["layers"].items() if not name.endswith("_s"))
    return end_to_end, per_layer, checks


def select(declared: list[dict], measured: dict, kind: str) -> dict:
    """Metrics in BENCHMARK.json order, each with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in measured]
    extra = sorted(set(measured) - {m["name"] for m in declared})
    if missing or extra:
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv: list[str] | None = None) -> int:
    names = sorted(p.stem for p in WORKLOADS.glob("*.ini"))
    parser = argparse.ArgumentParser(description="georep benchmark")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the seed in the workload file)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "georep" / "__init__.py").is_file():
        print(f"georep sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    try:
        traced, untraced = collect(WORKLOADS / f"{args.workload}.ini", args.seed,
                                   args.seconds, bool(args.trace))
        end_to_end, per_layer, checks = summarize(traced, untraced)
        e2e = select(spec["end_to_end"], end_to_end, "end-to-end")
        layers = select(spec["per_layer"], per_layer, "per-layer")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failed = sorted(name for name, ok in checks.items() if not ok)
    print(f"workload {args.workload}, seed {args.seed if args.seed is not None else 'default'}: "
          f"{len(untraced)} untraced and {len(traced)} traced runs")
    print(f"host speed: median calibration loop "
          f"{statistics.median(w['cal_s'] for w in untraced):.4f} s against "
          f"{REFERENCE_CAL_S} s; unscaled ops/s "
          f"{traced[0]['ops'] / statistics.median(w['run_s'] for w in untraced):.1f}")
    for title, metrics in (("end-to-end", e2e), ("per-layer", layers)):
        print(f"-- {title}")
        for name, m in metrics.items():
            print(f"{name:36} {m['value']!r:>24} {m['unit']}")
    print(f"-- checks: {len(checks) - len(failed)} of {len(checks)} passed")
    for name in failed:
        print(f"FAILED {name}")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": layers if args.trace else e2e}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
