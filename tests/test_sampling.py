"""Backlog notes: a running maximum per link, written to the ledger once
when its window closes, gives the same pending_max rows as writing every
link's backlog straight to the ledger after every client op, delivery
and tick."""

import dataclasses
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georep import engine
from georep.blocks import BlockMode
from georep.bounds import Bound, ContainerId
from georep.engine import Simulation
from georep.metrics import MetricsCollector
from georep.scenario import Scenario, load_scenario
from georep.simnet import LinkSpec
from georep.workload import BlockOp, BlockScript, ReadOp, WorkloadSpec, WriteOp, generate

from conftest import BENCH_WORKLOADS, SCENARIO_DIR


class EveryLinkSimulation(Simulation):
    """The reference rule: every link's backlog goes straight to the
    ledger after every op, delivery and tick, and before every write
    group; no running maximum is kept."""

    def _play(self, ops):
        at = None
        for at_ms, origin, op in ops:
            if at_ms != at:
                if at is not None:
                    self._arm_tick()
                self.net.advance(at_ms)
                at = at_ms
            node = self.clusters[origin]
            if isinstance(op, WriteOp):
                node.put(op.container, op.key, op.value)
                self._client_ops += 1
            elif isinstance(op, ReadOp):
                node.get(op.container, op.key)
                self._client_ops += 1
            else:
                self._note_backlogs()
                session = self.sessions[origin]
                session.start_block(op.mode)
                for write in op.writes:
                    session.put(write.container, write.key, write.value)
                session.end_block()
                self._client_ops += len(op.writes)
            self._note_backlogs()
        if at is not None:
            self._arm_tick()

    def _note_backlogs(self):
        now = self.net.now
        for node in self.clusters.values():
            for source in node.sources:
                self.metrics.sample_pending(source.link, source.cache.total_pending_count, now)


class NoWindowRuleSimulation(Simulation):
    """Skips the walk at a window's first note, so it misses a backlog
    that sits idle across a window boundary."""

    def _note_backlogs(self):
        if self.net.now // self.metrics.window_ms != self._window:
            self._close_window()
        else:
            super()._note_backlogs()


# Three clusters in a full mesh, every one an origin; the workload ends
# before t=1000.  1<->2 is cut until t=4000, so its batches retry then.
# ``idle:c`` never trips its count bound, so every link carries a backlog
# of it until the final drain.  The slow links into cluster 3 keep it
# idle in windows where clusters 1 and 2 act (t=4000 is one), and its
# backlog still counts there: every delivery notes every link, so here
# even a window's first note need not walk them all.
MESH = """\
[topology]
clusters = 1 2 3
links = 1>2 1>3 2>1 2>3 3>1 3>2

[network]
latency_ms = 10
latency_ms.1>3 = 1500
latency_ms.2>3 = 1500
window_ms = 1000
partitions =
    1>2 200 4000
    2>1 200 4000

[bounds]
default = 0 20 0
idle:c = 0 100000 0

[workload]
operations = 2400
write_fraction = 0.75
distribution = zipfian
keyspace = 500
value_bytes = 40
containers = usertable:family*3 idle:c*1
seed = 5
burst_ops = 3
burst_spacing_ms = 1
origins = 1 2 3
"""


# One write every ten ops on a 1>2 link whose count bound never trips:
# the backlog only grows, and every other 5 ms window holds reads only,
# so only the window rule records the backlog there.
READS = """\
[topology]
clusters = 1 2
links = 1>2

[network]
latency_ms = 10
window_ms = 5

[bounds]
default = 0 100000 0

[workload]
operations = 200
write_fraction = 0.1
distribution = uniform
keyspace = 50
value_bytes = 10
"""


# A 1>2 link whose count bound never trips; the op stream is scripted
# by the test.
HELD = """\
[topology]
clusters = 1 2
links = 1>2

[network]
latency_ms = 10
window_ms = 1000

[bounds]
default = 0 100 0

[workload]
operations = 4
write_fraction = 1.0
"""


def mesh(tmp_path):
    path = tmp_path / "mesh-partition.ini"
    path.write_text(MESH, encoding="utf-8")
    return load_scenario(path)


def rows(simulation_class, scenario):
    return simulation_class(scenario).run().rows


def bench_workload(name, ops=3000):
    """A benchmark workload cut to about ``ops`` client ops, or at full
    length when ``ops`` is None."""
    scenario = load_scenario(BENCH_WORKLOADS / f"{name}.ini")
    spec = scenario.workload
    if ops is None:
        return scenario
    if spec.block_script is None:
        spec = dataclasses.replace(spec, operations=ops)
    else:
        script = spec.block_script
        count = ops // script.puts_per_block
        spec = dataclasses.replace(spec, block_script=dataclasses.replace(script, count=count))
    return dataclasses.replace(scenario, workload=spec)


def sample_calls(simulation_class, scenario, monkeypatch):
    """The run's ``sample_pending`` calls, counted by (window, link)."""
    calls = Counter()
    sample = MetricsCollector.sample_pending

    def counted(metrics, link, count, now):
        calls[now // metrics.window_ms, link] += 1
        sample(metrics, link, count, now)

    with monkeypatch.context() as patch:
        patch.setattr(MetricsCollector, "sample_pending", counted)
        simulation_class(scenario).run()
    return calls


def test_the_reference_samples_every_write_and_the_engine_each_window_and_link_once(
        monkeypatch):
    # 3,000 writes on 1>2 at t=0; nothing else happens at t=0.  The
    # reference samples after each write; the engine writes the link's
    # maximum in window 0 once, and holds no backlog after it.
    scenario = bench_workload("burst")
    assert {at for at, _, _ in generate(scenario.workload)} == {0}
    reference = sample_calls(EveryLinkSimulation, scenario, monkeypatch)
    assert reference[0, (1, 2)] >= scenario.workload.total_updates == 3000
    assert sample_calls(Simulation, scenario, monkeypatch) == {(0, (1, 2)): 1}
    # Over many windows and links, still one sample each.
    assert set(sample_calls(Simulation, bench_workload("mesh"), monkeypatch).values()) == {1}


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.ini")))
def test_bundled_scenarios_match_every_link_sampling(scenario_dir, bundled, name):
    scenario = load_scenario(scenario_dir / f"{name}.ini")
    assert bundled(name).rows == rows(EveryLinkSimulation, scenario)


@pytest.mark.parametrize("name, ops", [
    pytest.param(name, ops, id=name if ops else f"{name}-full")
    for ops in (3000, None) for name in ("steady", "burst", "mesh", "blocks")])
def test_bench_workloads_match_every_link_sampling(name, ops):
    scenario = bench_workload(name, ops)
    expected = rows(EveryLinkSimulation, scenario)
    assert rows(Simulation, scenario) == expected
    assert any(r.pending_max > 0 for r in expected)


def test_partitioned_mesh_matches_every_link_sampling(tmp_path):
    scenario = mesh(tmp_path)
    expected = rows(EveryLinkSimulation, scenario)
    assert rows(Simulation, scenario) == expected
    assert any(r.pending_max > 0 and r.bytes == 0 and r.staleness_max_ms == 0
               for r in expected)


def test_read_only_windows_match_every_link_sampling(tmp_path):
    path = tmp_path / "reads.ini"
    path.write_text(READS, encoding="utf-8")
    scenario = load_scenario(path)
    expected = rows(EveryLinkSimulation, scenario)
    assert rows(Simulation, scenario) == expected
    # Windows [10, 15), [20, 25), ... hold reads only, yet carry a row.
    assert {r.window_start_ms for r in expected} >= set(range(10, 200, 10))


def test_idle_backlog_across_a_window_boundary_needs_the_window_rule(tmp_path):
    # The read-only windows carry a backlog that only a new window's full
    # walk records: without that rule they keep no row.
    path = tmp_path / "reads.ini"
    path.write_text(READS, encoding="utf-8")
    scenario = load_scenario(path)
    assert len(rows(NoWindowRuleSimulation, scenario)) == 21
    assert len(rows(EveryLinkSimulation, scenario)) == 40


def test_a_group_that_opens_a_window_samples_the_backlog_before_it(tmp_path, monkeypatch):
    # Three loose writes sit held in window 0.  An IMMEDIATE group on
    # their container opens window 1000 and ships them with it, so only
    # the sample taken before the group records them in that window.
    cid = ContainerId("usertable", "family")
    group = BlockOp(BlockMode.IMMEDIATE, (WriteOp(cid, "g", b"v"),))
    stream = [(0, 1, WriteOp(cid, f"k{i}", b"v")) for i in range(3)] + [(1000, 1, group)]
    monkeypatch.setattr(engine, "generate", lambda spec: iter(stream))
    path = tmp_path / "held.ini"
    path.write_text(HELD, encoding="utf-8")
    scenario = load_scenario(path)
    expected = rows(EveryLinkSimulation, scenario)
    assert rows(Simulation, scenario) == expected
    assert [(r.window_start_ms, r.pending_max) for r in expected] == [(0, 3), (1000, 3)]


CONTAINERS = (ContainerId("a", "f"), ContainerId("b", "f"))
BOUNDS = st.builds(Bound, st.sampled_from([0, 5, 20, 50]), st.sampled_from([0, 1, 3, 10]))


@st.composite
def scenarios(draw):
    """A small scenario: 2 or 3 clusters, any non-empty set of directed
    links with at most one outage each, random windows and ticks, and
    either a few loose ops over a few keys or a short [blocks] script."""
    # Three clusters, and each link with even odds, make relays common.
    clusters = tuple(range(1, draw(st.sampled_from([2, 3, 3])) + 1))
    pairs = [(src, dst) for src in clusters for dst in clusters if src != dst]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)).filter(any))
    links = {}
    for link in itertools.compress(pairs, present):
        outages = draw(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 200)), max_size=1))
        links[link] = LinkSpec(draw(st.integers(0, 30)),
                               tuple((start, start + length) for start, length in outages))
    mode = draw(st.sampled_from(["bounded", "plain"]))
    default, bounds = Bound(), {}
    if mode == "bounded":
        default = draw(BOUNDS)
        bounds = draw(st.dictionaries(st.just(CONTAINERS[0]), BOUNDS, max_size=1))
    origins = tuple(draw(st.lists(st.sampled_from(clusters), min_size=1, max_size=3)))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        workload = WorkloadSpec(
            operations=draw(st.integers(1, 60)), write_fraction=draw(st.floats(0, 1)),
            distribution="uniform", keyspace=draw(st.integers(1, 5)), value_bytes=8,
            containers=tuple((cid, 1.0) for cid in CONTAINERS), seed=seed,
            burst_ops=draw(st.integers(1, 5)), burst_spacing_ms=draw(st.integers(1, 10)),
            origins=origins)
    else:
        script = BlockScript(
            count=draw(st.integers(1, 12)), puts_per_block=draw(st.integers(1, 4)),
            pattern=tuple(draw(st.lists(st.sampled_from(BlockMode), min_size=1, max_size=2))),
            containers=tuple(draw(st.lists(st.sampled_from(CONTAINERS), min_size=1,
                                           max_size=2, unique=True))),
            spacing_ms=draw(st.integers(1, 10)))
        workload = WorkloadSpec(operations=script.total_updates, value_bytes=8, seed=seed,
                                origins=origins, block_script=script)
    return Scenario(name="drawn", clusters=clusters, links=links, mode=mode,
                    default_bound=default, bounds=bounds,
                    tick_ms=draw(st.sampled_from([1, 7, 25])),
                    window_ms=draw(st.sampled_from([1, 3, 10, 50])), workload=workload)


@given(scenarios())
@settings(max_examples=400, deadline=None)
def test_random_scenarios_match_every_link_sampling(scenario):
    assert rows(Simulation, scenario) == rows(EveryLinkSimulation, scenario)
