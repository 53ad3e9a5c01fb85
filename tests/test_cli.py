"""Command-line interface: verbs, outputs, exit codes."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import georep.engine
from georep.cli import main
from georep.metrics import CSV_COLUMNS
from georep.scenario import _KNOWN_KEYS


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

# GOOD's header with a [blocks] script whose containers line is left open.
SCRIPTED = GOOD.partition("[workload]")[0] + """\
[workload]
seed = 21

[blocks]
count = 5
pattern = ANY
"""

RUNAWAY = """\
[topology]
clusters = 1 2
links = 1>2

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

    @pytest.mark.parametrize("bounds, key", [
        ("default = 0 0 5", "default"),
        ("default = 0 50 0\na:b = 0 5 2.5", "a:b"),
    ], ids=["default", "container"])
    def test_drift_limit_exits_two(self, tmp_path, capsys, bounds, key):
        path = write(tmp_path, GOOD.replace("default = 0 50 0", bounds).replace(
            "seed = 21", "seed = 21\ncontainers = usertable:family a:b"), "drift.ini")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"bounds.{key}: a drift limit has no effect" in err

    def test_event_budget_key_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, GOOD + "\n[network]\nmax_events = 40\n", "budget.ini")
        assert main(["validate", str(path)]) == 2
        assert "unknown key 'max_events'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["window_ms"])
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

    @pytest.mark.parametrize("text, key", [
        (GOOD.replace("operations = 200", "operations = 0"), "workload.operations"),
        (GOOD.replace("write_fraction = 1.0", "write_fraction = 1.5"),
         "workload.write_fraction"),
        (GOOD + "containers = bad*2\n", "workload.containers"),
        (SCRIPTED + "containers = bad\n", "blocks.containers"),
        (SCRIPTED.replace("count = 5", "count = 0") + "containers = a:b\n", "blocks.count"),
        (GOOD + "\n[network]\nlatency_ms.1>2 = -5\n", "network.latency_ms.1>2"),
        (GOOD + "\n[network]\nlatency_ms = -5\nlatency_ms.1>2 = 10\n", "network.latency_ms"),
        (GOOD + "\n[network]\npartitions = 1>2 50 50\n", "network.partitions"),
    ], ids=["operations", "write-fraction", "workload-container", "blocks-container",
            "block-count", "latency-override", "overridden-default-latency",
            "empty-partition"])
    def test_a_field_check_names_its_key(self, tmp_path, capsys, text, key):
        path = write(tmp_path, text, "field.ini")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err


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

    def test_shipped_count_matches_the_recorded_run(self, tmp_path, capsys, bundled,
                                                    scenario_dir):
        # The CLI keeps no batch records, so its count cannot come from them.
        expected = bundled("ring-partition").summary["shipped_updates"]
        assert main(["run", str(scenario_dir / "ring-partition.ini"),
                     "--out", str(tmp_path)]) == 0
        assert f", {expected} updates shipped in " in capsys.readouterr().out
        summary = json.loads((tmp_path / "ring-partition.summary.json").read_text(encoding="utf-8"))
        assert summary["shipped_updates"] == expected

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

    def test_livelock_exits_three(self, tmp_path, capsys, monkeypatch):
        # 400 one-write instants and 80 deliveries overrun 40 + 400 events.
        monkeypatch.setattr(georep.engine, "DEFAULT_MAX_EVENTS", 40)
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


HEADER = ",".join(CSV_COLUMNS) + "\n"
ONE_ROW = HEADER + "0,1,2,100,1,100,0,5\n"


class TestMalformedInput:
    """An input file the CLI cannot use exits 2 with a one-line error."""

    def assert_rejected(self, capsys, argv, *fragments):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(str(fragment) in err for fragment in fragments)

    @pytest.mark.parametrize("body, message", [
        (b"0,1,2,100\n", "at line 2: Expected 8 arguments, got 4"),
        (b"0,1,2,1e3,1,100,0,5\n", "at line 2: invalid literal for int()"),
        (b"0,1,2,\xff,1,100,0,5\n", "metrics CSV is not UTF-8"),
        (b"0,1,2,1" + b"0" * 400 + b",1,100,0,5\n", "at line 2: not a 64-bit integer"),
        (b"0,1,2,-500,-3,100,0,5\n", "at line 2: negative cell"),
    ], ids=["short-row", "non-integer-cell", "not-utf8", "huge-cell", "negative-cell"])
    def test_malformed_csv(self, tmp_path, capsys, body, message):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text(ONE_ROW, encoding="utf-8")
        bad.write_bytes(HEADER.encode() + body)
        self.assert_rejected(capsys, ["compare", str(good), str(bad)], bad, message)

    @pytest.mark.parametrize("verb", [["validate"], ["run", "--quiet"]])
    def test_scenario_not_utf8(self, tmp_path, capsys, verb):
        path = tmp_path / "latin.ini"
        path.write_bytes(GOOD.replace("seed = 21", "seed = 21\n# caf\xe9").encode("latin-1"))
        self.assert_rejected(capsys, [verb[0], str(path), *verb[1:]], path,
                             "malformed scenario file")

    @pytest.mark.parametrize("text, fragments", [
        ("clusters = 1 2\n" + GOOD, ["line 1: a [section] header must come first"]),
        (GOOD.replace("seed = 21", "seed = 21\njunk\nmore junk"),
         ["line 15: neither a [section] header nor a key = value line"]),
        (GOOD + "[bounds]\n", ["[line 15]", "section 'bounds' already exists"]),
        (GOOD.replace("seed = 21", "seed = 21\nseed = 22"),
         ["[line 15]", "option 'seed' in section 'workload' already exists"]),
    ], ids=["no-section-header", "line-without-equals", "duplicate-section",
            "duplicate-option"])
    def test_scenario_parse_error(self, tmp_path, capsys, text, fragments):
        path = write(tmp_path, text, "broken.ini")
        self.assert_rejected(capsys, ["validate", str(path)],
                             "malformed scenario file:", path, *fragments)

    def test_scenario_count_beyond_64_bits(self, tmp_path, capsys):
        path = write(tmp_path, GOOD.replace("operations = 200", "operations = 1" + "0" * 400),
                     "huge.ini")
        self.assert_rejected(capsys, ["validate", str(path)],
                             "workload.operations: not a 64-bit integer")

    @pytest.mark.parametrize("summary", ["[]", "[" * 100_000], ids=["array", "deep-nesting"])
    def test_unusable_summary_means_no_summary(self, tmp_path, capsys, summary):
        for name in ("a", "b"):
            (tmp_path / f"{name}.csv").write_text(ONE_ROW, encoding="utf-8")
        (tmp_path / "b.summary.json").write_text(summary, encoding="utf-8")
        assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
        assert "ratio=1.0000" in capsys.readouterr().out

    def test_boolean_window_means_no_window(self, tmp_path, capsys):
        for name, window in (("a", "true"), ("b", "1000")):
            (tmp_path / f"{name}.csv").write_text(ONE_ROW, encoding="utf-8")
            (tmp_path / f"{name}.summary.json").write_text(f'{{"window_ms": {window}}}',
                                                           encoding="utf-8")
        assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
        out, err = capsys.readouterr()
        assert "ratio=1.0000" in out and "True" not in out + err


# Scenario text from the known sections and keys with arbitrary values;
# the plausible tokens let an example get past the first checks.
TOKENS = ["0", "1", "2", "-1", "100", "1.0", "0.5", "nan", "1e400", "1" + "0" * 400,
          "1>2", "2>1", "1 2", "a:b", "a:b*2", "usertable:family", "0 5 0", "1000 0 0",
          "IMMEDIATE ANY", "uniform", "zipfian", "plain", "bounded", "true", "", "*"]
values = st.one_of(st.sampled_from(TOKENS),
                   st.lists(st.sampled_from(TOKENS), max_size=4).map(" ".join),
                   st.text(st.characters(blacklist_categories=("Cs",)), max_size=20))


@st.composite
def scenario_texts(draw):
    # The required sections come first, so that most examples get past
    # the section checks to the values.
    sections = ["topology", "bounds", "workload"] + draw(st.lists(
        st.sampled_from(sorted(_KNOWN_KEYS)), unique=True))
    lines = []
    for section in dict.fromkeys(sections):
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(sorted(_KNOWN_KEYS[section])), unique=True)):
            lines.append(f"{key} = {draw(values)}")
    return "\n".join(lines) + "\n"


cells = st.one_of(st.integers().map(str), st.integers(0, 10).map(str),
                  st.sampled_from(["", "1e3", " 7", "x", "9" * 400]))
csv_rows = st.lists(st.one_of(st.lists(cells, min_size=8, max_size=8),
                              st.lists(cells, max_size=10)).map(",".join), max_size=4).map(
    lambda rows: "".join(row + "\n" for row in rows).encode())
csv_files = st.one_of(st.binary(), st.binary().map(HEADER.encode().__add__),
                      csv_rows.map(HEADER.encode().__add__))
summaries = st.one_of(st.none(), st.binary(),
                      st.sampled_from([b"[]", b"{}", b"null", b'{"window_ms": 100}']))


@given(text=scenario_texts(), raw=st.binary(max_size=40))
@settings(max_examples=300, deadline=None)
def test_validate_never_raises(text, raw):
    with tempfile.TemporaryDirectory() as tmp:
        for data in (text.encode("utf-8"), raw):
            path = Path(tmp) / "fuzz.ini"
            path.write_bytes(data)
            assert main(["validate", str(path)]) in (0, 2)


@given(csvs=st.tuples(csv_files, csv_files), summary=summaries)
@settings(max_examples=300, deadline=None)
def test_compare_never_raises(csvs, summary):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "a.csv", Path(tmp) / "b.csv"]
        for path, data in zip(paths, csvs):
            path.write_bytes(data)
        if summary is not None:
            (Path(tmp) / "b.summary.json").write_bytes(summary)
        assert main(["compare", *map(str, paths)]) in (0, 2)
