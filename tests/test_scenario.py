"""Scenario file parsing, validation and bound resolution."""

import dataclasses

import pytest

from georep.blocks import BlockMode
from georep.bounds import Bound, ContainerId
from georep.cli import main
from georep.errors import ScenarioError
from georep.scenario import _KNOWN_KEYS, _parse_bound_triple, load_scenario
from georep.workload import BlockScript, WorkloadSpec

from conftest import SCENARIO_DIR

MINIMAL = """\
[topology]
clusters = 1 2
links = 1>2

[bounds]
default = 0 100 0

[workload]
operations = 500
write_fraction = 1.0
distribution = uniform
keyspace = 100
value_bytes = 10
seed = 3
"""


# MINIMAL with a second written container, which a [bounds] triple
# may then name.
ORDERS = MINIMAL.replace("seed = 3", "seed = 3\ncontainers = usertable:family orders:acct")

# MINIMAL's clusters and bounds with a [blocks] script in place of its
# op stream: only seed, value_bytes and origins stay in [workload].
BLOCKS = """\
[topology]
clusters = 1 2
links = 1>2

[bounds]
default = 0 100 0

[workload]
value_bytes = 10
seed = 3

[blocks]
count = 2
puts_per_block = 1
pattern = IMMEDIATE
containers = a:f
"""


def write_scenario(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_minimal_scenario_loads(tmp_path):
    sc = load_scenario(write_scenario(tmp_path, MINIMAL))
    assert sc.name == "case"
    assert sc.clusters == (1, 2)
    assert list(sc.links) == [(1, 2)]
    assert sc.links[(1, 2)].latency_ms == 10  # default
    assert sc.mode == "bounded"
    assert sc.default_bound == Bound(pending=100)
    assert sc.workload.operations == 500
    assert sc.tick_ms == 100  # default


def test_all_bundled_scenarios_load(scenario_dir):
    paths = sorted(scenario_dir.glob("*.ini"))
    assert len(paths) >= 10
    for path in paths:
        sc = load_scenario(path)
        assert sc.clusters


def test_percentage_bound_resolves_against_workload_writes(scenario_dir):
    # 50k ops at 50/50 -> 25k updates; 0.5% -> 125, 2% -> 500.
    half = load_scenario(scenario_dir / "workload-a-bounded05pct.ini")
    two = load_scenario(scenario_dir / "workload-a-bounded2pct.ini")
    assert half.workload.total_updates == 25_000
    assert half.default_bound.pending == 125
    assert two.default_bound.pending == 500


def test_write_only_percentage_resolution(scenario_dir):
    sc = load_scenario(scenario_dir / "batch-size-2pct.ini")
    assert sc.workload.total_updates == 50_000
    assert sc.default_bound.pending == 1_000


def test_block_scenario_counts_scripted_puts(scenario_dir):
    sc = load_scenario(scenario_dir / "blocks-mixed.ini")
    script = sc.workload.block_script
    assert script is not None
    assert script.count == 1000
    assert script.puts_per_block == 4
    assert script.pattern[0] is BlockMode.IMMEDIATE
    assert sc.workload.total_updates == 4000


def test_per_container_bound_triple(tmp_path):
    text = ORDERS.replace(
        "default = 0 100 0",
        "default = 0 100 0\norders:acct = 1000 5 0")
    sc = load_scenario(write_scenario(tmp_path, text))
    assert sc.bounds[ContainerId("orders", "acct")] == Bound(1000, 5)
    # The drift slot reads as a float, though a scenario may not set it.
    assert _parse_bound_triple("1000 5 2.5", "orders:acct") == Bound(1000, 5, 2.5)


def test_workload_and_block_keys_are_the_spec_fields():
    workload_fields = {f.name for f in dataclasses.fields(WorkloadSpec)}
    assert set(_KNOWN_KEYS["workload"]) == workload_fields - {"block_script"}
    assert set(_KNOWN_KEYS["blocks"]) == {f.name for f in dataclasses.fields(BlockScript)}


def test_unset_workload_keys_take_the_field_defaults(tmp_path):
    text = MINIMAL.partition("[workload]")[0] + "[workload]\nseed = 7\n"
    assert load_scenario(write_scenario(tmp_path, text)).workload == WorkloadSpec(seed=7)


def test_unset_block_keys_take_the_field_defaults(tmp_path):
    text = BLOCKS.replace("puts_per_block = 1\n", "")
    script = load_scenario(write_scenario(tmp_path, text)).workload.block_script
    assert script.puts_per_block == 1
    assert script.spacing_ms == 1


def test_pending_percent_sets_default_pending(tmp_path):
    text = MINIMAL.replace("default = 0 100 0", "pending_percent = 10")
    sc = load_scenario(write_scenario(tmp_path, text))
    assert sc.default_bound.pending == 50  # 10% of 500 writes


def test_pending_percent_conflicts_with_default_pending(tmp_path):
    text = MINIMAL.replace("default = 0 100 0",
                           "default = 0 100 0\npending_percent = 10")
    with pytest.raises(ScenarioError):
        load_scenario(write_scenario(tmp_path, text))


def test_seed_override(tmp_path):
    path = write_scenario(tmp_path, MINIMAL)
    assert load_scenario(path).workload.seed == 3
    assert load_scenario(path, seed_override=777).workload.seed == 777


def test_latency_override_per_link(tmp_path):
    text = MINIMAL.replace(
        "links = 1>2",
        "links = 1>2 2>1") + "\n[network]\nlatency_ms = 10\nlatency_ms.2>1 = 50\n"
    sc = load_scenario(write_scenario(tmp_path, text))
    assert sc.links[(1, 2)].latency_ms == 10
    assert sc.links[(2, 1)].latency_ms == 50


def test_partitions_parse_sorted(tmp_path):
    text = MINIMAL + "\n[network]\npartitions =\n    1>2 5000 6000\n    1>2 1000 2000\n"
    sc = load_scenario(write_scenario(tmp_path, text))
    assert sc.links[(1, 2)].partitions == ((1000, 2000), (5000, 6000))


class TestRejections:
    def reject(self, tmp_path, text, match=None):
        with pytest.raises(ScenarioError, match=match):
            load_scenario(write_scenario(tmp_path, text))

    def test_unknown_section(self, tmp_path):
        self.reject(tmp_path, MINIMAL + "\n[mystery]\nx = 1\n", "unknown section")

    def test_unknown_key(self, tmp_path):
        self.reject(tmp_path, MINIMAL + "\n[network]\nlatencyms = 10\n", "unknown key")

    def test_event_budget_key_is_unknown(self, tmp_path):
        # The run derives its event budget from the workload.
        self.reject(tmp_path, MINIMAL + "\n[network]\nmax_events = 50\n",
                    r"unknown key 'max_events' in section \[network\]")

    def test_output_section_is_unknown(self, tmp_path):
        self.reject(tmp_path, MINIMAL + "\n[output]\ncsv = run.csv\n",
                    r"unknown section \[output\]")

    @pytest.mark.parametrize("key, value", [("coalesce", "false"),
                                            ("pending_percent.orders:acct", "2"),
                                            ("poll_interval_ms", "1000")])
    def test_dropped_bounds_key_is_unknown(self, tmp_path, key, value):
        text = ORDERS.replace("default = 0 100 0",
                              f"default = 0 100 0\norders:acct = 0 0 0\n{key} = {value}")
        self.reject(tmp_path, text, f"unknown key '{key}'")

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_tick(self, tmp_path, value):
        self.reject(tmp_path, MINIMAL.replace("default = 0 100 0",
                                              f"default = 0 100 0\ntick_ms = {value}"),
                    "bounds.tick_ms must be positive")

    def test_bound_for_a_container_the_workload_never_writes(self, tmp_path):
        # A typo in a container name would leave it on the default bound.
        self.reject(tmp_path, MINIMAL.replace("default = 0 100 0",
                                              "default = 0 100 0\nordrs:acct = 0 5 0"),
                    "bounds.ordrs:acct: the workload writes no such container")

    def test_bound_for_a_container_the_block_script_never_writes(self, tmp_path):
        # Under a script only the [blocks] containers are written.
        self.reject(tmp_path, BLOCKS.replace("default = 0 100 0",
                                             "default = 0 100 0\nusertable:family = 0 5 0"),
                    "bounds.usertable:family: the workload writes no such container")

    @pytest.mark.parametrize("bounds, message", [
        ("a:b = 0 5 0", "bounds.a:b: the workload writes no such container"),
        ("default = 0 5 0", "bounds.default has no effect under a workload that writes nothing"),
    ])
    def test_bound_under_a_workload_that_writes_nothing(self, tmp_path, bounds, message):
        text = MINIMAL.replace("default = 0 100 0", bounds).replace(
            "write_fraction = 1.0", "write_fraction = 0.0\ncontainers = usertable:family a:b")
        self.reject(tmp_path, text, message)

    @pytest.mark.parametrize("key, value", [
        ("operations", "999"), ("write_fraction", "0.1"), ("distribution", "uniform"),
        ("zipf_constant", "0.5"), ("keyspace", "7"), ("containers", "nothere:fam"),
        ("burst_ops", "50"), ("burst_spacing_ms", "3"), ("disjoint_keys", "true")])
    def test_op_stream_key_under_a_block_script(self, tmp_path, key, value):
        self.reject(tmp_path, BLOCKS.replace("seed = 3", f"seed = 3\n{key} = {value}"),
                    f"workload.{key} has no effect with a \\[blocks\\] script")

    @pytest.mark.parametrize("text", [MINIMAL, BLOCKS], ids=["op-stream", "block-script"])
    def test_value_bytes_above_the_u32_value_length(self, tmp_path, text):
        # Only parsed here: a value this large is never generated.
        self.reject(tmp_path, text.replace("value_bytes = 10", "value_bytes = 5000000000"),
                    "workload.value_bytes must fit the u32 value length")

    def test_largest_u32_value_bytes_loads(self, tmp_path):
        text = MINIMAL.replace("value_bytes = 10", f"value_bytes = {2**32 - 1}")
        assert load_scenario(write_scenario(tmp_path, text)).workload.value_bytes == 2**32 - 1

    def test_zipf_constant_under_uniform_keys(self, tmp_path):
        self.reject(tmp_path, MINIMAL.replace("seed = 3", "seed = 3\nzipf_constant = 5"),
                    "workload.zipf_constant has no effect under distribution = uniform")

    @pytest.mark.parametrize("key, value", [
        ("default", "0 1 0"), ("pending_percent", "2"), ("usertable:family", "5 0 0")])
    def test_bound_key_under_plain_mode(self, tmp_path, key, value):
        text = MINIMAL.replace("default = 0 100 0", f"mode = plain\n{key} = {value}")
        self.reject(tmp_path, text, f"bounds.{key} has no effect under bounds.mode = plain")

    @pytest.mark.parametrize("key", ["latency_ms.2>1", "latency_ms.1>9", "latency_ms.oops"],
                             ids=["reversed-link", "unknown-cluster", "garbage"])
    def test_latency_override_of_no_declared_link(self, tmp_path, key):
        self.reject(tmp_path, MINIMAL + f"\n[network]\n{key} = 500\n",
                    f"{key} does not name a declared link")

    def test_missing_required_section(self, tmp_path):
        self.reject(tmp_path, "[topology]\nclusters = 1\n", r"\[bounds\]")

    def test_unknown_cluster_in_link(self, tmp_path):
        self.reject(tmp_path, MINIMAL.replace("links = 1>2", "links = 1>9"),
                    "unknown cluster")

    def test_self_loop_link(self, tmp_path):
        self.reject(tmp_path, MINIMAL.replace("links = 1>2", "links = 1>1"),
                    "self-loop")

    def test_duplicate_clusters(self, tmp_path):
        self.reject(tmp_path, MINIMAL.replace("clusters = 1 2", "clusters = 1 1 2"),
                    "duplicate")

    def test_duplicate_links(self, tmp_path):
        self.reject(tmp_path, MINIMAL.replace("links = 1>2", "links = 1>2 1>2"),
                    "duplicate")

    def test_bad_link_syntax(self, tmp_path):
        self.reject(tmp_path, MINIMAL.replace("links = 1>2", "links = 1-2"))

    def test_unknown_mode(self, tmp_path):
        self.reject(tmp_path,
                    MINIMAL.replace("default = 0 100 0",
                                    "default = 0 100 0\nmode = warp"),
                    "bounds.mode")

    def test_origin_not_a_cluster(self, tmp_path):
        self.reject(tmp_path,
                    MINIMAL.replace("seed = 3", "seed = 3\norigins = 9"),
                    "not a declared cluster")

    def test_partition_on_undeclared_link(self, tmp_path):
        self.reject(tmp_path,
                    MINIMAL + "\n[network]\npartitions =\n    2>1 100 200\n",
                    "undeclared link")

    def test_malformed_bound_triple(self, tmp_path):
        self.reject(tmp_path, MINIMAL.replace("default = 0 100 0",
                                              "default = 0 100"),
                    "lag_ms pending drift")

    @pytest.mark.parametrize("drift", ["nan", "inf"])
    def test_non_finite_default_drift(self, tmp_path, drift):
        # Such a limit never trips but makes the bound non-immediate, so
        # it would hold every update until the final drain.
        self.reject(tmp_path, MINIMAL.replace("default = 0 100 0",
                                              f"default = 0 0 {drift}"),
                    "drift limit must be finite")

    @pytest.mark.parametrize("drift", ["nan", "inf"])
    def test_non_finite_container_drift(self, tmp_path, drift):
        self.reject(tmp_path, ORDERS.replace("default = 0 100 0",
                                             f"default = 0 100 0\norders:acct = 0 5 {drift}"),
                    "drift limit must be finite")

    @pytest.mark.parametrize("triple, key", [
        ("default = 0 0 5", "default"),
        ("default = 0 100 0\norders:acct = 1000 5 2.5", "orders:acct"),
    ], ids=["default", "container"])
    def test_drift_limit_has_no_effect(self, tmp_path, triple, key):
        # Workload values are random bytes: a drift limit would hold
        # every update until the final drain, or trip on noise.
        self.reject(tmp_path, ORDERS.replace("default = 0 100 0", triple),
                    f"bounds.{key}: a drift limit has no effect")

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_container_weight(self, tmp_path, weight):
        self.reject(tmp_path, MINIMAL.replace(
            "seed = 3", f"seed = 3\ncontainers = usertable:family*{weight} a:b*1"),
                    "weights must be positive and finite")

    def test_star_without_a_weight(self, tmp_path):
        # Only a bare name means weight 1; a '*' must be followed by one.
        self.reject(tmp_path, MINIMAL.replace(
            "seed = 3", "seed = 3\ncontainers = usertable:family*"),
                    "weight of usertable:family: not a number: ''")

    @pytest.mark.parametrize("key", ["window_ms"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_network_setting(self, tmp_path, key, value):
        # A zero window cannot bucket the CSV.
        self.reject(tmp_path, MINIMAL + f"\n[network]\n{key} = {value}\n",
                    f"network.{key} must be positive")

    def test_bad_integer(self, tmp_path):
        self.reject(tmp_path, MINIMAL.replace("operations = 500",
                                              "operations = many"),
                    "not an integer")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.ini")

    def test_unknown_block_mode(self, tmp_path):
        self.reject(tmp_path, BLOCKS.replace("pattern = IMMEDIATE", "pattern = EVENTUAL"),
                    "unknown block mode")


def test_validate_exits_two_on_a_bound_for_a_workload_that_writes_nothing(tmp_path, capsys):
    # Reads only: no container is written, so no bound can apply.
    path = write_scenario(tmp_path, """\
[topology]
clusters = 1 2
links = 1>2

[bounds]
a:b = 0 5 0

[workload]
operations = 100
write_fraction = 0.0
containers = usertable:family a:b
""", "ro.ini")
    assert main(["validate", str(path)]) == 2
    assert "the workload writes no such container" in capsys.readouterr().err
