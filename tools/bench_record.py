"""Record one benchmark snapshot of a checkout as a ``BENCH_*.json`` file.

    python3 tools/bench_record.py --out BENCH_<n>.json [--root DIR]

For every workload in ``bench/workloads`` and for ``--trace`` 0 and 1,
this runs ``bench/run.py --workload W --seed 1 --trace T --seconds S``
in the checkout at ``--root`` (by default the one holding this file),
where S is ``run_seconds`` in that checkout's ``BENCHMARK.json``.
It stores the last line each run prints, its JSON result, verbatim,
with the host-speed calibration line the run prints second.

Then, for each workload at seed 1, it sets up the simulation as
``bench/worker.py`` does, ``Simulation(load_scenario(...))``, and runs
it three times in this process for counters that do not depend on the
host:

* ``calls``: function calls inside ``Simulation.run()`` under cProfile,
  Python and built-in alike, summed over the profiler's own entries.
  ``pstats`` would merge functions that share a file, line and name,
  such as the ``__init__`` of every dataclass, keeping one count of the
  merged ones, so its total shifts with what else the process imported.
  This sum is the same in every process and under every string-hash
  seed;
* ``instructions``: bytecode instructions executed inside one more
  ``Simulation.run()``, counted by a ``sys.settrace`` hook that sets
  ``frame.f_trace_opcodes``.  It tells dispatch from work: a formula
  that moves work from bytecode into C lowers it, where cProfile's
  ``calls`` can rise, since they count a builtin called from bytecode
  but miss one called from C.  Work done in C counts nothing.  Like
  ``calls``, it is the same in every process and under every
  string-hash seed, for one Python version;
* ``events``, ``batches``, ``shipped_updates`` and ``bytes``: events
  the event loop ran, and the run's batch traffic;
* ``tracemalloc_peak_bytes``: the traced peak while the third run
  goes, set-up excluded; it can move by a few KB with what the process
  ran and imported before.

The file also holds the host (``nproc`` and platform), the
Python version and ``git rev-parse HEAD`` of the checkout.  The
``bench/run.py`` runs come first, while this process is small: Linux
carries a process's peak RSS into the processes it starts, so a launcher
grown by the in-process runs would raise every worker's
``peak_rss_mb``.  A full record at 25 s takes about four minutes.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TRACE_MODES = (0, 1)


class RecordError(Exception):
    """A step of the record failed."""


def bench_run(root: Path, workload: str, trace: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its calibration line and its JSON result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--trace", str(trace), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RecordError(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return {"calibration": lines[1], "result": json.loads(lines[-1])}


def git_head(root: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RecordError(f"git rev-parse HEAD failed in {root}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def count_instructions(run: Callable[[], object]) -> int:
    """The bytecode instructions executed inside ``run()``."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        elif event == "call":
            frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return trace

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return count


def counters(scenario_path: Path) -> dict:
    """The host-independent counters of one workload at ``SEED``."""
    from georep import Simulation, load_scenario

    def build():
        return Simulation(load_scenario(scenario_path, seed_override=SEED))

    sim = build()
    profile = cProfile.Profile()
    summary = profile.runcall(sim.run).summary
    calls = sum(entry.callcount for entry in profile.getstats())
    instructions = count_instructions(build().run)
    sim = build()
    tracemalloc.start()
    try:
        sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"calls": calls, "instructions": instructions, "events": sim.net._events_run,
            "batches": summary["total_batches"],
            "shipped_updates": summary["shipped_updates"],
            "bytes": summary["total_bytes"], "tracemalloc_peak_bytes": peak}


def record(root: Path, seconds: float) -> dict:
    workloads = sorted(p.stem for p in (root / "bench" / "workloads").glob("*.ini"))
    out = {
        "git_head": git_head(root),
        "python": platform.python_version(),
        "host": {"nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()},
        "seed": SEED,
        "seconds": seconds,
        "workloads": {w: {"bench": {str(t): bench_run(root, w, t, seconds)
                                    for t in TRACE_MODES}}
                      for w in workloads},
    }
    sys.path.insert(0, str(root / "src"))
    for w in workloads:
        out["workloads"][w]["counters"] = counters(root / "bench" / "workloads" / f"{w}.ini")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="record a BENCH_*.json snapshot")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(spec["run_seconds"])
    try:
        snapshot = record(root, seconds)
    except RecordError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
