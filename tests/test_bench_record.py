"""``tools/bench_record.py`` against a canned ``bench/run.py`` and a fake
``git``: what it runs, and the file it writes; and, in a throwaway git
repository, its paired timing against a revision."""

import cProfile
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from georep import Simulation, load_scenario

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "bench_record.py"
HEAD = "0123456789abcdef0123456789abcdef01234567"

# Prints what bench/run.py prints, in shape: a heading, the calibration
# line second, metrics, and a JSON result last, here naming its own
# arguments.
CANNED_RUN = """\
import json, sys
print("workload canned")
print("host speed: median calibration loop 0.2000 s against 0.2 s; unscaled ops/s 1.0")
print("-- end-to-end")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"argv": sys.argv[1:]}}))
"""

# Answers only ``git rev-parse HEAD``.
FAKE_GIT = f"""\
#!/bin/sh
[ "$*" = "rev-parse HEAD" ] || exit 1
echo {HEAD}
"""

WORKLOAD = """\
[topology]
clusters = 1 2
links = 1>2

[bounds]
default = 0 10 0

[workload]
operations = {operations}
write_fraction = 1.0
distribution = uniform
keyspace = 50
value_bytes = 20
seed = 3
"""


@pytest.fixture
def checkout(tmp_path):
    """A checkout with two workloads, the canned run.py and the real
    sources, and a PATH that finds the fake git first."""
    root = tmp_path / "checkout"
    (root / "bench" / "workloads").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(CANNED_RUN, encoding="utf-8")
    for name, operations in (("a", 200), ("b", 300)):
        (root / "bench" / "workloads" / f"{name}.ini").write_text(
            WORKLOAD.format(operations=operations), encoding="utf-8")
    (root / "src").symlink_to(REPO / "src")
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 7}), encoding="utf-8")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    git = bin_dir / "git"
    git.write_text(FAKE_GIT, encoding="utf-8")
    git.chmod(0o755)
    env = dict(os.environ, PATH=os.pathsep.join([str(bin_dir), os.environ["PATH"]]))
    return root, env


def record(checkout, out, **env):
    root, base = checkout
    return subprocess.run([sys.executable, str(TOOL), "--out", str(out), "--root", str(root)],
                          env=dict(base, **env), capture_output=True, text=True, timeout=120)


def test_records_every_workload_and_trace_mode(checkout, tmp_path):
    out = tmp_path / "BENCH_1.json"
    proc = record(checkout, out)
    assert proc.returncode == 0, proc.stderr
    snapshot = json.loads(out.read_text(encoding="utf-8"))
    assert set(snapshot) == {"git_head", "python", "host", "seed", "seconds", "workloads"}
    assert snapshot["git_head"] == HEAD
    assert snapshot["python"] == ".".join(map(str, sys.version_info[:3]))
    assert set(snapshot["host"]) == {"nproc", "platform"}
    assert snapshot["seed"] == 1 and snapshot["seconds"] == 7.0
    assert sorted(snapshot["workloads"]) == ["a", "b"]
    for name, entry in snapshot["workloads"].items():
        assert sorted(entry["bench"]) == ["0", "1"]
        for trace, run in entry["bench"].items():
            assert run["calibration"].startswith("host speed: ")
            # The result line is kept verbatim.
            assert run["result"] == {"correct": True, "attempted": 1, "failed": 0, "metrics": {
                "argv": ["--workload", name, "--seed", "1", "--trace", trace,
                         "--seconds", "7.0"]}}


def test_counters_are_those_of_the_workload_at_seed_1(checkout, tmp_path):
    out = tmp_path / "BENCH_1.json"
    proc = record(checkout, out)
    assert proc.returncode == 0, proc.stderr
    snapshot = json.loads(out.read_text(encoding="utf-8"))
    root, _ = checkout
    for name in ("a", "b"):
        counters = snapshot["workloads"][name]["counters"]
        sim = Simulation(load_scenario(root / "bench" / "workloads" / f"{name}.ini",
                                       seed_override=1))
        profile = cProfile.Profile()
        summary = profile.runcall(sim.run).summary
        # This process has imported far more than the tool's, yet the
        # call count is the same.
        assert counters["calls"] == sum(entry.callcount for entry in profile.getstats())
        assert counters["events"] == sim.net._events_run
        assert (counters["batches"], counters["shipped_updates"], counters["bytes"]) == (
            summary["total_batches"], summary["shipped_updates"], summary["total_bytes"])
        assert counters["calls"] > counters["events"]
        assert counters["tracemalloc_peak_bytes"] > 0
    # One op ships one update; more ops make more calls.
    a, b = (snapshot["workloads"][name]["counters"] for name in ("a", "b"))
    assert (a["shipped_updates"], b["shipped_updates"]) == (200, 300)
    assert a["calls"] < b["calls"]


def test_instruction_counts_hold_across_processes_and_hash_seeds(checkout, tmp_path):
    counts = []
    for seed in ("0", "1"):
        out = tmp_path / f"BENCH_{seed}.json"
        proc = record(checkout, out, PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        workloads = json.loads(out.read_text(encoding="utf-8"))["workloads"]
        counts.append({name: entry["counters"]["instructions"]
                       for name, entry in workloads.items()})
    assert counts[0] == counts[1]
    # More ops run more bytecode.
    assert 0 < counts[0]["a"] < counts[0]["b"]


def test_a_failed_bench_run_writes_no_file(checkout, tmp_path):
    root, _ = checkout
    (root / "bench" / "run.py").write_text(
        'import sys\nprint("benchmark failed: canned", file=sys.stderr)\nsys.exit(1)\n',
        encoding="utf-8")
    out = tmp_path / "BENCH_1.json"
    proc = record(checkout, out)
    assert proc.returncode == 1
    assert "benchmark failed: canned" in proc.stderr
    assert not out.exists()


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), "-c", "user.name=bench", "-c",
                           "user.email=bench@example.invalid", *args],
                          capture_output=True, text=True, check=True).stdout


@pytest.fixture
def repo(tmp_path):
    """A git repository of one commit: the canned run.py, two workloads
    long enough to time, and a copy of the real sources."""
    root = tmp_path / "repo"
    (root / "bench" / "workloads").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(CANNED_RUN, encoding="utf-8")
    for name, operations in (("a", 1500), ("b", 2500)):
        (root / "bench" / "workloads" / f"{name}.ini").write_text(
            WORKLOAD.format(operations=operations), encoding="utf-8")
    shutil.copytree(REPO / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 7}), encoding="utf-8")
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "canned checkout")
    return root


def against(root, out, rev, pairs):
    return subprocess.run([sys.executable, str(TOOL), "--out", str(out), "--root", str(root),
                           "--against", rev, "--pairs", str(pairs)],
                          capture_output=True, text=True, timeout=300)


def test_head_against_itself_reads_a_median_near_one(repo, tmp_path):
    out = tmp_path / "BENCH_1.json"
    proc = against(repo, out, "HEAD", 5)
    assert proc.returncode == 0, proc.stderr
    snapshot = json.loads(out.read_text(encoding="utf-8"))
    assert snapshot["against"] == snapshot["git_head"] == git(repo, "rev-parse", "HEAD").strip()
    for name in ("a", "b"):
        entry = snapshot["workloads"][name]
        assert set(entry) == {"bench", "paired", "counters"}
        paired = entry["paired"]
        ratios = paired["ratios"]
        assert len(ratios) == paired["pairs"] == 5
        assert paired["median"] == round(statistics.median(ratios), 5)
        assert (paired["min"], paired["max"]) == (min(ratios), max(ratios))
        assert paired["won"] == sum(r < 1 for r in ratios)
        # The same tree on both sides: only host noise parts them.
        assert 0.75 < paired["median"] < 1.33, ratios
    # The worktree and its entry are gone.
    assert git(repo, "worktree", "list", "--porcelain").count("worktree ") == 1


def test_an_unknown_revision_fails_before_any_run_and_writes_no_file(repo, tmp_path):
    # A run.py that fails, so a run started first would be named instead.
    (repo / "bench" / "run.py").write_text("import sys\nsys.exit(1)\n", encoding="utf-8")
    out = tmp_path / "BENCH_1.json"
    proc = against(repo, out, "no-such-rev", 1)
    assert proc.returncode == 1
    assert "no-such-rev" in proc.stderr and "run.py" not in proc.stderr
    assert not out.exists()
    assert git(repo, "worktree", "list", "--porcelain").count("worktree ") == 1
