"""Command-line interface: verbs, outputs, exit codes."""

import json

import pytest

from georep.cli import main


GOOD = """\
[topology]
clusters = 1 2
links = 1>2

[bounds]
default = 0 50 0

[workload]
operations = 200
write_fraction = 1.0
distribution = uniform
keyspace = 500
value_bytes = 30
seed = 21
"""

BAD_ORIGIN = GOOD + "origins = 1 3\n"

RUNAWAY = """\
[topology]
clusters = 1 2
links = 1>2

[network]
max_events = 40

[bounds]
default = 0 5 0

[workload]
operations = 400
write_fraction = 1.0
distribution = uniform
keyspace = 100
value_bytes = 10
seed = 5
"""


def write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestValidate:
    def test_good_scenario_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, GOOD, "good.ini")
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.startswith("ok: good")

    def test_bad_scenario_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, BAD_ORIGIN, "bad.ini")
        assert main(["validate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_bound_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, GOOD.replace("default = 0 50 0", "default = 0 0 nan"),
                     "nan.ini")
        assert main(["validate", str(path)]) == 2
        assert "drift limit must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["window_ms", "max_events"])
    def test_non_positive_network_setting_exits_two(self, tmp_path, capsys, key):
        path = write(tmp_path, GOOD + f"\n[network]\n{key} = 0\n", f"{key}.ini")
        assert main(["validate", str(path)]) == 2
        assert f"network.{key} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("coalesce", "false"),
                                            ("pending_percent.a:b", "10"),
                                            ("poll_interval_ms", "1000")])
    def test_dropped_bounds_key_exits_two(self, tmp_path, capsys, key, value):
        path = write(tmp_path, GOOD.replace(
            "default = 0 50 0", f"default = 0 50 0\na:b = 0 0 0\n{key} = {value}").replace(
            "seed = 21", "seed = 21\ncontainers = usertable:family a:b"),
            "dropped.ini")
        assert main(["validate", str(path)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_output_section_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, GOOD + "\n[output]\nsummary = renamed.json\n", "output.ini")
        assert main(["validate", str(path)]) == 2
        assert "unknown section [output]" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("default = 0 50 0", "default = 0 50 0\na:b = 0 5 0",
         "bounds.a:b: the workload writes no such container"),
        ("default = 0 50 0", "mode = plain\ndefault = 0 1 0",
         "bounds.default has no effect under bounds.mode = plain"),
        ("seed = 21", "seed = 21\n\n[blocks]\ncount = 5\npattern = ANY\ncontainers = a:b",
         "workload.operations has no effect with a [blocks] script"),
    ], ids=["unwritten-container", "plain-bounds", "op-key-under-blocks"])
    def test_ignored_key_exits_two(self, tmp_path, capsys, old, new, message):
        path = write(tmp_path, GOOD.replace(old, new), "ignored.ini")
        assert main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["latency_ms.2>1", "latency_ms.1>9", "latency_ms.oops"])
    def test_latency_override_of_no_declared_link_exits_two(self, tmp_path, capsys, key):
        path = write(tmp_path, GOOD + f"\n[network]\n{key} = 500\n", "latency.ini")
        assert main(["validate", str(path)]) == 2
        assert f"{key} does not name a declared link" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.ini")]) == 2
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_writes_outputs_into_out_dir(self, tmp_path, capsys):
        path = write(tmp_path, GOOD, "good.ini")
        out = tmp_path / "results"
        code = main(["run", str(path), "--out", str(out), "--quiet"])
        assert code == 0
        assert (out / "good.csv").exists()
        assert (out / "good.summary.json").exists()
        assert capsys.readouterr().out == ""

    def test_prints_summary_unless_quiet(self, tmp_path, capsys):
        path = write(tmp_path, GOOD, "good.ini")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "updates shipped" in out
        assert "digest" in out

    def test_seed_override_changes_digests(self, tmp_path):
        path = write(tmp_path, GOOD, "good.ini")
        for seed, out in (("21", "a"), ("99", "b")):
            main(["run", str(path), "--out", str(tmp_path / out),
                  "--seed", seed, "--quiet"])
        read = lambda d: json.loads(
            (tmp_path / d / "good.summary.json").read_text(encoding="utf-8"))
        assert read("a")["digests"] != read("b")["digests"]

    def test_out_naming_a_file_exits_two_before_running(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, GOOD, "good.ini")
        taken = write(tmp_path, "", "taken")
        monkeypatch.setattr("georep.engine.Simulation.run", lambda self: pytest.fail("ran"))
        assert main(["run", str(path), "--out", str(taken), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_livelock_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, RUNAWAY, "runaway.ini")
        assert main(["run", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 3
        assert "livelock:" in capsys.readouterr().err


class TestCompare:
    def test_identical_runs_have_unit_ratios(self, tmp_path, capsys):
        path = write(tmp_path, GOOD, "good.ini")
        main(["run", str(path), "--out", str(tmp_path / "a"), "--quiet"])
        main(["run", str(path), "--out", str(tmp_path / "b"), "--quiet"])
        code = main(["compare", str(tmp_path / "a" / "good.csv"),
                     str(tmp_path / "b" / "good.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "peak window bytes : A=14246 B=14246 ratio=1.0000" in out
        assert "total bytes       : A=14246 B=14246 ratio=1.0000" in out

    def test_runs_with_different_windows_exit_two(self, tmp_path, capsys):
        # Each run's window comes from the summary that run wrote
        # beside its CSV.
        for window in (1000, 100):
            path = write(tmp_path, GOOD + f"\n[network]\nwindow_ms = {window}\n",
                         f"w{window}.ini")
            assert main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        code = main(["compare", str(tmp_path / "w1000.csv"), str(tmp_path / "w100.csv")])
        assert code == 2
        assert "window mismatch" in capsys.readouterr().err

    def test_missing_csv_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, GOOD, "good.ini")
        main(["run", str(path), "--out", str(tmp_path / "a"), "--quiet"])
        code = main(["compare", str(tmp_path / "a" / "good.csv"),
                     str(tmp_path / "missing.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
