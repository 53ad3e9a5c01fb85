"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

The in-process tests run shrunken copies of the benchmark workloads; the
command tests run ``bench/run.py`` on the real ``burst`` workload, the
quickest, for about half a minute in all.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import georep  # noqa: E402
from georep import SimNet  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = sorted(p.stem for p in (BENCH / "workloads").glob("*.ini"))


def shrunken(name: str, tmp_path: Path) -> Path:
    """Copy of a benchmark workload with a few thousand ops."""
    text = (BENCH / "workloads" / f"{name}.ini").read_text(encoding="utf-8")
    text = re.sub(r"(?m)^operations = \d+", "operations = 3000", text)
    text = re.sub(r"(?m)^count = \d+", "count = 500", text)
    path = tmp_path / f"{name}.ini"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_leaves_fingerprint_unchanged(name, tmp_path):
    scenario = shrunken(name, tmp_path)
    schedule, load = SimNet.schedule, georep.load_scenario
    untraced = worker.measure(scenario, 7)
    traced = worker.measure(scenario, 7, trace=True)
    assert SimNet.schedule is schedule and georep.load_scenario is load, \
        "tracing wrappers were not removed"
    assert traced["fingerprint"] == untraced["fingerprint"]
    assert all(untraced["checks"].values()), untraced["checks"]
    assert all(traced["checks"].values()), traced["checks"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_sum_to_no_more_than_traced_wall_time(name, tmp_path):
    traced = worker.measure(shrunken(name, tmp_path), 7, trace=True)
    self_times = {k: v for k, v in traced["layers"].items() if k.endswith("_s")}
    assert min(self_times.values()) >= -1e-9
    assert 0 < sum(self_times.values()) <= traced["wall_s"]


def test_host_times_are_scaled_by_each_workers_calibration():
    def untraced(slowdown: float) -> dict:
        return {"trace": False, "setup_s": 0.001 * slowdown, "run_s": 0.5 * slowdown,
                "cal_s": run.REFERENCE_CAL_S * slowdown, "rss_mb": 50.0,
                "fingerprint": {}, "checks": {}}

    traced = {"trace": True, "ops": 1000, "run_s": 1.0, "fingerprint": {}, "checks": {},
              "simulated": {}, "layers": {}}
    end_to_end, _, checks = run.summarize([traced], [untraced(1.0), untraced(2.0),
                                                      untraced(1.5)])
    assert end_to_end["setup_s"] == pytest.approx(0.001)
    assert end_to_end["ops_per_s"] == pytest.approx(2000.0)
    assert all(checks.values())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_command_prints_every_metric_with_name_and_unit(trace):
    proc = run_bench("--workload", "burst", "--seed", "5", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in report), metric["name"]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert result["metrics"] == {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                             "unit": m["unit"]} for m in declared}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "burst", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
