"""Record one benchmark snapshot of a checkout as a ``BENCH_*.json`` file.

    python3 tools/bench_record.py --out BENCH_<n>.json [--root DIR] [--seed N]
                                  [--against REV [--pairs N]]

For every workload in ``bench/workloads`` and for ``--trace`` 0 and 1,
this runs ``bench/run.py --workload W --seed N --trace T --seconds S``
in the checkout at ``--root`` (by default the one holding this file),
where N is ``--seed`` (1 by default) and S is ``run_seconds`` in that
checkout's ``BENCHMARK.json``.  It stores the last line each run prints,
its JSON result, verbatim, with the host-speed calibration line the run
prints second.

With ``--against REV``, it then times the checkout against revision REV
of its own repository, checked out with ``git worktree`` into a
temporary directory that is removed afterwards.  For each workload it
runs ``--pairs`` pairs (10 by default), the order of the two sides
swapped every pair.  A side is one fresh subprocess that sets the
workload up from this checkout's ``bench/workloads`` file against its own
tree's ``src`` and keeps the best of three ``Simulation.run()`` times.
A pair's ratio is the checkout's time over REV's, so below 1 is faster;
``paired`` records every ratio, their median and range, and how many
pairs the checkout won.  Host noise moves single pairs, so a claim cites
the median and the count won.  This is the one timing that sees work
done in C, which neither counter below can.

Then, for each workload at seed N, it sets up the simulation as
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
Python version and ``git rev-parse HEAD`` of the checkout, and with
``--against`` REV's commit id as ``against``.  The ``bench/run.py`` runs
come first and the paired runs next, while this process is small: Linux
carries a process's peak RSS into the processes it starts, so a launcher
grown by the in-process runs would raise every worker's
``peak_rss_mb``.  A full record at 25 s takes about four minutes, and
ten pairs of the four workloads about two more.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TRACE_MODES = (0, 1)
PAIRS = 10

# One side of a pair: the best of three ``Simulation.run()`` times of a
# workload, with ``src`` and the workload file given as arguments.
TIME_RUNS = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from georep import Simulation, load_scenario
best = float("inf")
for _ in range(3):
    sim = Simulation(load_scenario(sys.argv[2], seed_override=int(sys.argv[3])))
    started = time.perf_counter()
    sim.run()
    best = min(best, time.perf_counter() - started)
print(best)
"""


class RecordError(Exception):
    """A step of the record failed."""


def bench_run(root: Path, workload: str, trace: int, seconds: float, seed: int) -> dict:
    """One ``bench/run.py`` run: its calibration line and its JSON result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RecordError(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return {"calibration": lines[1], "result": json.loads(lines[-1])}


def git(root: Path, *args: str) -> str:
    """What one git command prints in the repository at ``root``."""
    proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RecordError(f"git {' '.join(args)} failed in {root}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def git_head(root: Path) -> str:
    return git(root, "rev-parse", "HEAD")


def resolve(root: Path, rev: str) -> str:
    """The commit id that ``rev`` names in ``root``'s repository."""
    return git(root, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")


@contextmanager
def worktree(root: Path, commit: str) -> Iterator[Path]:
    """A ``git worktree`` of ``commit`` in a temporary directory, removed,
    with its worktree entry, on exit."""
    with tempfile.TemporaryDirectory(prefix="bench-against-") as tmp:
        tree = Path(tmp) / "tree"
        git(root, "worktree", "add", "--detach", str(tree), commit)
        try:
            yield tree
        finally:
            git(root, "worktree", "remove", "--force", str(tree))


def time_side(tree: Path, scenario_path: Path, seed: int) -> float:
    """One side of a pair: the best of three run times of a workload
    against ``tree``'s sources, in a fresh subprocess."""
    cmd = [sys.executable, "-c", TIME_RUNS, str(tree / "src"), str(scenario_path), str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RecordError(f"timing {scenario_path.name} against {tree} exited with "
                          f"{proc.returncode}:\n{proc.stderr.strip()}")
    return float(proc.stdout)


def paired(root: Path, rev_tree: Path, scenario_path: Path, seed: int, pairs: int) -> dict:
    """``pairs`` per-pair ratios of ``root``'s run time over ``rev_tree``'s,
    the side that goes first swapped every pair."""
    ratios = []
    for i in range(pairs):
        if i % 2:
            ours = time_side(root, scenario_path, seed)
            theirs = time_side(rev_tree, scenario_path, seed)
        else:
            theirs = time_side(rev_tree, scenario_path, seed)
            ours = time_side(root, scenario_path, seed)
        ratios.append(round(ours / theirs, 4))
    # The mean of two 4-place ratios has at most 5 places; rounding
    # drops the float noise of the halving.
    return {"pairs": pairs, "median": round(statistics.median(ratios), 5), "min": min(ratios),
            "max": max(ratios), "won": sum(r < 1 for r in ratios), "ratios": ratios}


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


def counters(scenario_path: Path, seed: int) -> dict:
    """The host-independent counters of one workload at ``seed``."""
    from georep import Simulation, load_scenario

    def build():
        return Simulation(load_scenario(scenario_path, seed_override=seed))

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


def record(root: Path, seconds: float, seed: int, against: str | None, pairs: int) -> dict:
    workloads = sorted(p.stem for p in (root / "bench" / "workloads").glob("*.ini"))
    paths = {w: root / "bench" / "workloads" / f"{w}.ini" for w in workloads}
    # A mistyped REV fails before the long runs.
    commit = None if against is None else resolve(root, against)
    out = {
        "git_head": git_head(root),
        "python": platform.python_version(),
        "host": {"nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()},
        "seed": seed,
        "seconds": seconds,
        "workloads": {w: {"bench": {str(t): bench_run(root, w, t, seconds, seed)
                                    for t in TRACE_MODES}}
                      for w in workloads},
    }
    if commit is not None:
        out["against"] = commit
        with worktree(root, commit) as tree:
            for w in workloads:
                out["workloads"][w]["paired"] = paired(root, tree, paths[w], seed, pairs)
    sys.path.insert(0, str(root / "src"))
    for w in workloads:
        out["workloads"][w]["counters"] = counters(paths[w], seed)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="record a BENCH_*.json snapshot")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--seed", type=int, default=SEED,
                        help=f"workload seed (default: {SEED})")
    parser.add_argument("--against", metavar="REV",
                        help="also time the checkout against REV in alternating pairs")
    parser.add_argument("--pairs", type=int, default=PAIRS,
                        help=f"pairs per workload with --against (default: {PAIRS})")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(spec["run_seconds"])
    try:
        snapshot = record(root, seconds, args.seed, args.against, args.pairs)
    except RecordError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
