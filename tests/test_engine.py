"""End-to-end simulation runs: conservation, convergence, determinism."""

import gc
import json
import weakref
from unittest import mock

import pytest

import georep.engine
from conftest import BENCH_WORKLOADS, SCENARIO_DIR, ship_log
from georep.cluster import ClusterNode
from georep.engine import Simulation
from georep.errors import LivelockError
from georep.metrics import read_csv
from georep.scenario import load_scenario
from georep.shipping import BATCH_HEADER_BYTES, Trigger
from georep.workload import generate


def write_and_load(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return load_scenario(path)


class TestBatchStructure:
    def test_count_batches_carry_exactly_the_bound(self, bundled):
        result = bundled("batch-size-2pct")
        count_batches = [r for r in result.batches
                         if r.batch.trigger is Trigger.COUNT]
        assert len(count_batches) == 50
        assert all(len(r.batch.updates) == 1000 for r in count_batches)
        # 50,000 writes divide evenly: nothing left for the final drain.
        assert result.summary["shipped_updates"] == 50_000

    def test_final_drain_carries_the_remainder(self, tmp_path):
        scenario = write_and_load(tmp_path, """\
[topology]
clusters = 1 2
links = 1>2

[bounds]
default = 0 100 0

[workload]
operations = 1003
write_fraction = 1.0
distribution = uniform
keyspace = 5000
value_bytes = 50
seed = 7
""")
        result = Simulation(scenario).run()
        by_trigger = {}
        for record in result.batches:
            by_trigger.setdefault(record.batch.trigger, []).append(record.batch)
        assert len(by_trigger[Trigger.COUNT]) == 10
        assert all(len(b.updates) == 100 for b in by_trigger[Trigger.COUNT])
        assert len(by_trigger[Trigger.FINAL_DRAIN]) == 1
        assert len(by_trigger[Trigger.FINAL_DRAIN][0].updates) == 3

    def test_straggler_flush_repeats_until_relays_drain(self, tmp_path):
        # The first flush pass ships 1>2; only its delivery fills cluster
        # 2's source for 3, so the flush must drain and deliver again.
        scenario = write_and_load(tmp_path, """\
[topology]
clusters = 1 2 3
links = 1>2 2>3

[bounds]
default = 0 1000 0

[workload]
operations = 10
write_fraction = 1.0
distribution = uniform
keyspace = 100
value_bytes = 20
seed = 4
""")
        result = Simulation(scenario).run()
        batches = [record.batch for record in result.batches]
        assert [(b.source, b.destination) for b in batches] == [(1, 2), (2, 3)]
        assert all(b.trigger is Trigger.FINAL_DRAIN and len(b.updates) == 10
                   for b in batches)
        assert len(set(result.summary["digests"].values())) == 1

    def test_plain_mode_batches_follow_the_poll_grid(self, tmp_path):
        # Steady 1 op/ms for 3 s, poll every 1000 ms: each update ships at
        # the first poll instant at or after its write time.
        scenario = write_and_load(tmp_path, """\
[topology]
clusters = 1 2
links = 1>2

[bounds]
mode = plain
tick_ms = 1000

[workload]
operations = 3000
write_fraction = 1.0
distribution = uniform
keyspace = 5000
value_bytes = 20
seed = 11
""")
        sim = Simulation(scenario)
        wall_times = ship_log(sim, lambda source, batch: [u.wall_ms for u in batch.updates])
        result = sim.run()
        assert all(r.batch.trigger is Trigger.TIME for r in result.batches)
        sizes = [len(r.batch.updates) for r in result.batches]
        assert sizes == [1001, 1000, 999]  # t=0..1000, 1001..2000, 2001..2999
        for record, walls in zip(result.batches, wall_times, strict=True):
            for wall_ms in walls:
                expected = max(1000, -(-wall_ms // 1000) * 1000)
                assert record.batch.created_ms == expected


class TestConvergence:
    def test_partitioned_ring_applies_everything_exactly_once(self, bundled):
        summary = bundled("ring-partition").summary
        assert summary["applied"]["1"] == 10_000
        assert summary["applied"]["2"] == 10_000
        assert summary["duplicates"]["1"] == 0
        assert summary["duplicates"]["2"] == 0
        assert summary["echoes"]["1"] == 0
        assert summary["echoes"]["2"] == 0
        assert summary["digests"]["1"] == summary["digests"]["2"]

    def test_partition_shapes_staleness(self, bundled):
        # Writes stuck behind the 5 s outage age until it lifts.
        result = bundled("ring-partition")
        assert result.summary["max_staleness_ms"] == 5020  # outage + latency

    def test_three_cluster_ring_converges(self, tmp_path):
        scenario = write_and_load(tmp_path, """\
[topology]
clusters = 1 2 3
links = 1>2 2>3 3>1

[bounds]
default = 0 0 0

[workload]
operations = 30
write_fraction = 1.0
distribution = uniform
keyspace = 1000
value_bytes = 20
seed = 13
origins = 1 2 3
disjoint_keys = true
""")
        summary = Simulation(scenario).run().summary
        assert len(set(summary["digests"].values())) == 1
        # Each write is applied at both non-origin clusters, exactly once.
        for cid in ("1", "2", "3"):
            assert summary["applied"][cid] == 20
            assert summary["duplicates"][cid] == 0
            assert summary["echoes"][cid] == 0

    def test_lag_scenario_converges_with_bounded_staleness(self, bundled):
        summary = bundled("staleness-lag").summary
        assert summary["digests"]["1"] == summary["digests"]["2"]
        assert summary["applied"]["2"] == 10_000
        assert summary["max_staleness_ms"] <= 1000 + 100 + 10


class TestAccounting:
    def test_csv_totals_equal_shipped_bytes(self, bundled):
        result = bundled("staleness-lag")
        assert sum(r.bytes for r in result.rows) == \
            sum(r.batch.total_bytes for r in result.batches)
        assert sum(r.batches for r in result.rows) == len(result.batches)

    def test_modes_move_identical_payload_bytes(self, bundled):
        # Same workload, different batching: totals differ only by the
        # per-batch header overhead.
        plain = bundled("workload-a-plain")
        bounded = bundled("workload-a-bounded05pct")
        def payload(result):
            return sum(r.batch.total_bytes - BATCH_HEADER_BYTES for r in result.batches)

        assert payload(plain) == payload(bounded)
        assert plain.summary["shipped_updates"] == bounded.summary["shipped_updates"] \
            == 25_000

    def test_every_batch_is_delivered(self, bundled):
        result = bundled("batch-size-05pct")
        assert all(r.delivered_ms >= r.batch.created_ms for r in result.batches)

    def test_summary_reflects_rows(self, bundled):
        result = bundled("staleness-lag")
        s = result.summary
        assert s["total_bytes"] == sum(r.bytes for r in result.rows)
        assert s["peak_window_bytes"] == max(r.bytes for r in result.rows)
        assert s["total_batches"] == sum(r.batches for r in result.rows)
        assert s["operations"] == 10_000
        assert s["shipped_updates"] == sum(len(r.batch.updates) for r in result.batches)


class TestDeterminism:
    def test_repeat_runs_are_identical(self, scenario_dir, bundled):
        a = bundled("staleness-lag")
        b = Simulation(load_scenario(scenario_dir / "staleness-lag.ini")).run()
        assert a.rows == b.rows
        assert a.summary["digests"] == b.summary["digests"]
        assert [r.batch.created_ms for r in a.batches] == \
            [r.batch.created_ms for r in b.batches]

    def test_seed_changes_the_traffic(self, scenario_dir, bundled):
        base = load_scenario(scenario_dir / "staleness-lag.ini")
        from dataclasses import replace
        reseeded = replace(base, workload=replace(base.workload, seed=999))
        assert bundled("staleness-lag").summary["digests"] != \
            Simulation(reseeded).run().summary["digests"]

    def test_a_second_run_raises(self, tmp_path):
        scenario = write_and_load(tmp_path, """\
[topology]
clusters = 1 2
links = 1>2

[bounds]
default = 0 5 0

[workload]
operations = 20
distribution = uniform
""")
        sim = Simulation(scenario)
        first = sim.run()
        final_ms = sim.net.now
        with pytest.raises(RuntimeError, match="a Simulation runs once"):
            sim.run()
        assert sim.net.now == final_ms
        assert len(sim.batches) == first.summary["total_batches"]


class TestRunScenario:
    def test_writes_csv_and_summary(self, bundled):
        result = bundled("staleness-lag")
        assert result.csv_path.exists()
        assert result.summary_path.exists()
        assert read_csv(result.csv_path) == result.rows
        summary = json.loads(result.summary_path.read_text(encoding="utf-8"))
        assert summary["scenario"] == "staleness-lag"
        assert summary["window_ms"] == 1000

    def test_ops_per_sec_is_host_side_only(self, bundled):
        result = bundled("staleness-lag")
        text = result.csv_path.read_text(encoding="utf-8")
        assert "ops" not in text
        assert result.summary["ops_per_sec"] > 0


ONE_INSTANT_OR_ONE_MS = """\
[topology]
clusters = 1 2
links = 1>2

[bounds]
default = 0 {pending} 0

[workload]
operations = 2000
write_fraction = 1.0
distribution = uniform
keyspace = 100
value_bytes = 10
burst_ops = {burst_ops}
seed = 7
"""


class TestDefaultEventBudget:
    """The budget is the default plus one event per client action, so
    the stream's instants never spend what the default leaves for the
    run's own events."""

    @pytest.fixture(autouse=True)
    def small_default(self, monkeypatch):
        monkeypatch.setattr(georep.engine, "DEFAULT_MAX_EVENTS", 100)

    def test_healthy_run_past_the_default_completes(self, tmp_path):
        # 2000 instants and 40 deliveries: past 100, within 100 + 2000.
        sim = Simulation(write_and_load(
            tmp_path, ONE_INSTANT_OR_ONE_MS.format(pending=50, burst_ops=1)))
        assert sim.net.max_events == 100 + 2000
        assert sim.run().summary["operations"] == 2000

    def test_the_runs_own_events_still_spend_the_default(self, tmp_path):
        # One batch per write: 2000 deliveries against the 100 left.
        scenario = write_and_load(tmp_path, ONE_INSTANT_OR_ONE_MS.format(pending=0, burst_ops=1))
        with pytest.raises(LivelockError):
            Simulation(scenario).run()


def test_no_op_is_generated_before_it_runs(tmp_path, monkeypatch):
    """An instant's ops are generated as they are applied: at each put,
    at most the op being applied has been pulled beyond those applied."""
    pulled = applied = 0
    ahead = []

    def counting_generate(spec):
        nonlocal pulled
        for item in generate(spec):
            pulled += 1
            yield item

    original_put = ClusterNode.put

    def counting_put(self, *args):
        nonlocal applied
        ahead.append(pulled - applied)
        result = original_put(self, *args)
        applied += 1
        return result

    monkeypatch.setattr(georep.engine, "generate", counting_generate)
    monkeypatch.setattr(ClusterNode, "put", counting_put)
    scenario = write_and_load(tmp_path, ONE_INSTANT_OR_ONE_MS.format(pending=50, burst_ops=2000))
    assert Simulation(scenario).run().summary["final_ms"] == 10
    assert len(ahead) == 2000
    assert max(ahead) <= 1, max(ahead)


TIMER_CASE = """\
[topology]
clusters = 1 2
links = 1>2

[bounds]
default = {default}
{bounds}

[workload]
operations = 50
write_fraction = 1.0
distribution = uniform
keyspace = 100
value_bytes = 10
containers = usertable:family c:f
seed = 9
"""


class TestTimerOwnership:
    """Only timed sources arm the shipping timer."""

    def simulate(self, tmp_path, default, bounds=""):
        """The simulation, its result, its tick count and the set of
        containers in each batch shipped."""
        sim = Simulation(write_and_load(tmp_path, TIMER_CASE.format(default=default,
                                                                    bounds=bounds)))
        containers = ship_log(sim, lambda source, batch: {u.container for u in batch.updates})
        with mock.patch.object(Simulation, "_tick_event", autospec=True,
                               side_effect=Simulation._tick_event) as tick:
            result = sim.run()
        return sim, result, tick.call_count, containers

    def test_no_timed_source_never_ticks(self, tmp_path):
        # The pending bound holds the tail back for the final drain, yet
        # no tick is ever scheduled for it.
        sim, result, ticks, _ = self.simulate(tmp_path, "0 7 0")
        assert not any(source.timed for source in sim._sources)
        assert ticks == 0
        assert result.batches[-1].batch.trigger is Trigger.FINAL_DRAIN

    def test_a_lag_on_one_container_alone_ships_from_a_tick(self, tmp_path):
        # Writes end by t=49; c:f's held-back tail leaves on the t=300
        # tick, the first grid point at or past its 300 ms lag.
        sim, result, ticks, containers = self.simulate(tmp_path, "0 0 0", "c:f = 300 0 0")
        assert all(source.timed for source in sim._sources)
        assert ticks > 0
        timed = [(r.batch, cids) for r, cids in zip(result.batches, containers, strict=True)
                 if r.batch.trigger is Trigger.TIME]
        assert timed and all(b.created_ms == 300 for b, _ in timed)
        assert set().union(*(cids for _, cids in timed)) == {"c:f"}
        assert not any(r.batch.trigger is Trigger.FINAL_DRAIN for r in result.batches)


class TestCollectorPause:
    """A run pauses the cyclic garbage collector, which is safe because
    a run makes no reference cycles, and restores its state after."""

    @pytest.fixture
    def collector(self):
        """Restore the collector's state the test found."""
        collecting = gc.isenabled()
        yield
        (gc.enable if collecting else gc.disable)()

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.ini"))
                             + sorted(BENCH_WORKLOADS.glob("*.ini")),
                             ids=lambda path: f"{path.parent.name}/{path.stem}")
    def test_a_paused_run_leaves_no_cyclic_garbage(self, collector, path):
        sim = Simulation(load_scenario(path))
        gc.collect()
        # Paused throughout, so no automatic pass can hide a cycle.
        gc.disable()
        sim.run()
        assert gc.collect() == 0

    @pytest.mark.parametrize("path", sorted(BENCH_WORKLOADS.glob("*.ini")),
                             ids=lambda path: path.stem)
    def test_a_dropped_simulation_is_freed_by_reference_counting(self, collector, path):
        scenario = load_scenario(path)
        gc.collect()
        gc.disable()
        sim = Simulation(scenario)
        freed = weakref.ref(sim)
        del sim
        assert freed() is None
        assert gc.collect() == 0
        # The sources' weak ship handle still reaches a live simulation.
        summary = Simulation(scenario).run().summary
        assert summary["shipped_updates"] > 0
        assert gc.collect() == 0

    def test_the_collector_is_back_on_after_a_run(self, collector, tmp_path):
        gc.enable()
        Simulation(write_and_load(tmp_path, TIMER_CASE.format(default="0 7 0", bounds=""))).run()
        assert gc.isenabled()

    def test_the_collector_is_back_on_after_a_livelock(self, collector, tmp_path, monkeypatch):
        monkeypatch.setattr(georep.engine, "DEFAULT_MAX_EVENTS", 10)
        sim = Simulation(write_and_load(
            tmp_path, ONE_INSTANT_OR_ONE_MS.format(pending=0, burst_ops=1)))
        gc.enable()
        with pytest.raises(LivelockError):
            sim.run()
        assert gc.isenabled()

    def test_a_collector_paused_by_the_caller_stays_paused(self, collector, tmp_path):
        gc.disable()
        Simulation(write_and_load(tmp_path, TIMER_CASE.format(default="0 7 0", bounds=""))).run()
        assert not gc.isenabled()
