"""Backlog sampling: sampling only where a backlog can have changed gives
the same pending_max rows as sampling every link after every client op,
delivery and tick."""

import dataclasses
from collections import Counter

import pytest

from georep import engine
from georep.blocks import BlockMode
from georep.bounds import ContainerId
from georep.engine import Simulation
from georep.metrics import MetricsCollector
from georep.scenario import load_scenario
from georep.workload import BlockOp, ReadOp, WriteOp, generate

from conftest import BENCH_WORKLOADS, SCENARIO_DIR


class EveryLinkSimulation(Simulation):
    """The reference rule: every link after every op, delivery and tick,
    and before every write group."""

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
                self._sample_pending(None)
                session = self.sessions[origin]
                session.start_block(op.mode)
                for write in op.writes:
                    session.put(write.container, write.key, write.value)
                session.end_block()
                self._client_ops += len(op.writes)
            self._sample_pending(None)
        if at is not None:
            self._arm_tick()

    def _sample_pending(self, changed=None):
        super()._sample_pending(None)


class NoWindowRuleSimulation(Simulation):
    """Only the acting cluster's links, even on a new window's first
    sample; misses a backlog that sits idle across a window boundary."""

    def _sample_pending(self, changed=None):
        self._sampled_window = self.net.now // self.metrics.window_ms
        super()._sample_pending(changed)


# Three clusters in a full mesh, every one an origin; the workload ends
# before t=1000.  1<->2 is cut until t=4000, so its batches retry then.
# ``idle:c`` never trips its count bound, so every link carries a backlog
# of it until the final drain.  The slow links into cluster 3 keep it
# idle in windows where clusters 1 and 2 act (t=4000 is one), so only a
# new window's full walk records cluster 3's backlog there.
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
    """A benchmark workload cut to about ``ops`` client ops."""
    scenario = load_scenario(BENCH_WORKLOADS / f"{name}.ini")
    spec = scenario.workload
    if spec.block_script is None:
        spec = dataclasses.replace(spec, operations=ops)
    else:
        script = spec.block_script
        count = ops // script.puts_per_block
        spec = dataclasses.replace(spec, block_script=dataclasses.replace(script, count=count))
    return dataclasses.replace(scenario, workload=spec)


def sample_calls(simulation_class, scenario, monkeypatch):
    """The run's ``sample_pending`` calls, counted by instant."""
    calls = Counter()
    sample = MetricsCollector.sample_pending

    def counted(metrics, link, count, now):
        calls[now] += 1
        sample(metrics, link, count, now)

    with monkeypatch.context() as patch:
        patch.setattr(MetricsCollector, "sample_pending", counted)
        simulation_class(scenario).run()
    return calls


def test_the_reference_samples_every_write_and_the_engine_every_instant(monkeypatch):
    # 3,000 writes on 1>2 at t=0; nothing else happens at t=0.  The
    # reference samples after each write; the engine takes the window's
    # first sample after the first write, then one per link the instant
    # touched, when the instant closes.
    scenario = bench_workload("burst")
    assert {at for at, _, _ in generate(scenario.workload)} == {0}
    reference = sample_calls(EveryLinkSimulation, scenario, monkeypatch)
    engine_calls = sample_calls(Simulation, scenario, monkeypatch)
    assert reference[0] >= scenario.workload.total_updates == 3000
    assert engine_calls[0] == 1 + 1


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.ini")))
def test_bundled_scenarios_match_every_link_sampling(scenario_dir, bundled, name):
    scenario = load_scenario(scenario_dir / f"{name}.ini")
    assert bundled(name).rows == rows(EveryLinkSimulation, scenario)


@pytest.mark.parametrize("name", ["steady", "burst", "mesh", "blocks"])
def test_bench_workloads_match_every_link_sampling(name):
    scenario = bench_workload(name)
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
    # The mesh case really has a backlog that only a new window's full
    # walk records: without that rule its rows come out different.
    scenario = mesh(tmp_path)
    assert rows(NoWindowRuleSimulation, scenario) != rows(EveryLinkSimulation, scenario)


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
