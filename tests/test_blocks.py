"""Client sessions and atomically replicated write groups."""

import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import pytest

from conftest import held_back, ship_log
from georep.blocks import BlockMode, ClientSession
from georep.bounds import Bound, ContainerId, Group
from georep.cluster import ClusterNode
from georep.engine import Simulation
from georep.errors import ProtocolError
from georep.scenario import load_scenario
from georep.shipping import Trigger

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

ORDERS = ContainerId("orders", "acct")
PAYMENTS = ContainerId("payments", "acct")


def session_with(bounds=None, default_bound=Bound(), shipped=None):
    shipped = [] if shipped is None else shipped
    node = ClusterNode(1, [2], bounds=bounds, default_bound=default_bound,
                       on_ship=shipped.append)
    return ClientSession(node), node


class TestLifecycle:
    def test_start_returns_fresh_id_and_marks_open(self):
        # A block's identity is its Group; it lists no containers until
        # it closes.
        session, _ = session_with()
        group = session.start_block(BlockMode.IMMEDIATE)
        assert type(group) is Group and group.containers == ()
        with pytest.raises(ProtocolError, match="already open"):
            session.start_block(BlockMode.ANY)

    def test_any_mode_opens_too(self):
        session, _ = session_with()
        assert type(session.start_block(BlockMode.ANY)) is Group
        with pytest.raises(ProtocolError, match="already open"):
            session.start_block(BlockMode.ANY)

    def test_nested_start_rejected(self):
        session, _ = session_with()
        session.start_block(BlockMode.ANY)
        with pytest.raises(ProtocolError):
            session.start_block(BlockMode.IMMEDIATE)

    def test_end_without_open_block_rejected(self):
        session, _ = session_with()
        with pytest.raises(ProtocolError):
            session.end_block()

    def test_block_ids_differ_across_blocks(self):
        session, _ = session_with()
        first = session.start_block(BlockMode.ANY)
        session.end_block()
        second = session.start_block(BlockMode.ANY)
        assert second is not first

    def test_groups_are_distinct_across_a_clusters_sessions(self):
        _, node = session_with()
        sessions = [ClientSession(node), ClientSession(node)]
        groups = []
        for _ in range(5):
            for session in sessions:
                groups.append(session.start_block(BlockMode.ANY))
                session.end_block()
        assert len({id(g) for g in groups}) == 10

    def test_close_sets_the_containers_before_any_peer_sees_a_member(self):
        # The containers are listed once each, in first-write order.
        seen = []
        node = ClusterNode(1, [2], default_bound=Bound(),
                           on_ship=lambda batch: seen.append(batch.updates[0].block.containers))
        session = ClientSession(node)
        group = session.start_block(BlockMode.IMMEDIATE)
        for cid in (PAYMENTS, ORDERS, PAYMENTS):
            session.put(cid, "k", b"v")
        assert group.containers == () and seen == []
        session.end_block()
        assert seen == [(PAYMENTS, ORDERS)]
        assert group.containers == (PAYMENTS, ORDERS)


class TestPutSemantics:
    def test_put_outside_block_with_immediate_bound_ships_now(self):
        shipped = []
        session, _ = session_with(default_bound=Bound(), shipped=shipped)
        session.put(ORDERS, "k", b"v")
        assert len(shipped) == 1
        assert len(shipped[0].updates) == 1

    def test_put_inside_block_is_locally_visible_before_close(self):
        # Blocks defer replication, never local visibility.
        shipped = []
        session, node = session_with(default_bound=Bound(), shipped=shipped)
        session.start_block(BlockMode.IMMEDIATE)
        session.put(ORDERS, "k", b"v")
        assert node.get(ORDERS, "k") == b"v"
        assert shipped == []

    def test_put_inside_block_carries_block_id(self):
        session, node = session_with(default_bound=Bound(pending=100))
        group = session.start_block(BlockMode.ANY)
        session.put(ORDERS, "k", b"v")
        assert node.store[ORDERS]["k"].block is group


class TestImmediateBlocks:
    def test_whole_block_ships_as_one_batch_at_close(self):
        shipped = []
        session, _ = session_with(default_bound=Bound(pending=10**6),
                                  shipped=shipped)
        session.start_block(BlockMode.IMMEDIATE)
        session.put(ORDERS, "a", b"1")
        session.put(PAYMENTS, "b", b"2")
        assert shipped == []
        session.end_block()
        assert len(shipped) == 1
        assert len(shipped[0].updates) == 2
        assert shipped[0].trigger is Trigger.IMMEDIATE_BLOCK

    def test_all_involved_counters_reset_at_close(self):
        shipped = []
        session, node = session_with(default_bound=Bound(pending=10**6),
                                     shipped=shipped)
        session.put(ORDERS, "warm1", b"x")
        session.put(PAYMENTS, "warm2", b"x")
        session.start_block(BlockMode.IMMEDIATE)
        session.put(ORDERS, "a", b"1")
        session.put(PAYMENTS, "b", b"2")
        session.end_block()
        source = node.sources[2]
        assert held_back(source.cache, ORDERS) == 0
        assert held_back(source.cache, PAYMENTS) == 0


class TestAnyBlocks:
    def test_block_held_until_a_member_bound_trips(self):
        shipped = []
        session, _ = session_with(
            bounds={ORDERS: Bound(pending=3), PAYMENTS: Bound(pending=5)},
            default_bound=Bound(pending=10**6), shipped=shipped)
        session.start_block(BlockMode.ANY)
        session.put(ORDERS, "a", b"1")
        session.put(PAYMENTS, "b", b"2")
        session.end_block()
        assert shipped == []  # most stringent bound (3) not reached yet

    def test_most_stringent_bound_ships_the_whole_block(self):
        # Spread 3 arrivals onto the pending bound of 3: block leaves whole.
        shipped = []
        session, _ = session_with(
            bounds={ORDERS: Bound(pending=3), PAYMENTS: Bound(pending=5)},
            default_bound=Bound(pending=10**6), shipped=shipped)
        session.start_block(BlockMode.ANY)
        for i in range(3):
            session.put(ORDERS, f"a{i}", b"1")
        session.put(PAYMENTS, "b", b"2")
        session.end_block()
        assert len(shipped) == 1
        assert len(shipped[0].updates) == 4
        assert shipped[0].trigger is Trigger.ANY_BLOCK

    def test_non_member_arrival_can_release_a_closed_block(self):
        # The bound belongs to the container, not the block: a later loose
        # write on a member container trips it and carries the block along.
        shipped = []
        session, _ = session_with(bounds={ORDERS: Bound(pending=3)},
                                  default_bound=Bound(pending=10**6),
                                  shipped=shipped)
        session.start_block(BlockMode.ANY)
        session.put(ORDERS, "a", b"1")
        session.put(ORDERS, "b", b"2")
        session.end_block()
        assert shipped == []
        session.put(ORDERS, "loose", b"3")  # third arrival on ORDERS
        assert len(shipped) == 1
        assert len(shipped[0].updates) == 3
        blocks = {u.block for u in shipped[0].updates}
        assert len(blocks) == 2  # the group plus the loose trigger write

    def test_member_on_immediate_container_ships_at_close(self):
        shipped = []
        session, _ = session_with(bounds={ORDERS: Bound()},
                                  default_bound=Bound(pending=10**6),
                                  shipped=shipped)
        session.start_block(BlockMode.ANY)
        session.put(ORDERS, "a", b"1")
        session.put(PAYMENTS, "b", b"2")
        session.end_block()
        assert len(shipped) == 1
        assert len(shipped[0].updates) == 2

    def test_empty_block_ships_nothing(self):
        shipped = []
        session, _ = session_with(default_bound=Bound(), shipped=shipped)
        session.start_block(BlockMode.IMMEDIATE)
        session.end_block()
        assert shipped == []
        with pytest.raises(ProtocolError, match="no block open"):
            session.end_block()


def test_writes_after_block_follow_the_plain_path():
    shipped = []
    session, _ = session_with(default_bound=Bound(), shipped=shipped)
    session.start_block(BlockMode.ANY)
    session.put(ORDERS, "a", b"1")
    session.end_block()
    shipped.clear()
    session.put(ORDERS, "later", b"2")
    assert len(shipped) == 1
    assert shipped[0].updates[0].block is None


# A 1>2>3 chain whose groups write three containers under three kinds of
# bound.  Cluster 2 relays the groups, and its ticks of the lag-bounded
# c:f pull the members a group left in a:f and b:f.
CHAIN = """\
[topology]
clusters = 1 2 3
links = 1>2 2>3

[network]
latency_ms = 10

[bounds]
default = 0 0 0
a:f = 0 100 0
b:f = 0 100 0
c:f = 20 0 0
tick_ms = 10

[workload]
seed = 7
value_bytes = 20

[blocks]
count = 300
puts_per_block = 4
pattern = IMMEDIATE ANY ANY
containers = a:f b:f c:f
"""

# Prints one line per batch: link, trigger, times and its updates.
PRINT_BATCHES = """\
import sys
from conftest import ship_log
from georep import Simulation, load_scenario
sim = Simulation(load_scenario(sys.argv[1]))
shipped = ship_log(sim, lambda source, batch: [(u.origin, u.seq, u.container)
                                              for u in batch.updates])
for record, updates in zip(sim.run().batches, shipped, strict=True):
    b = record.batch
    print(b.source, b.destination, b.trigger.name, b.created_ms, record.delivered_ms,
          b.total_bytes, updates)
"""


def test_a_block_chain_ships_the_same_batches_in_two_processes(tmp_path):
    # Groups hash by identity, which follows memory addresses; no run
    # may depend on it, nor on the string hash seed.
    path = tmp_path / "chain.ini"
    path.write_text(CHAIN, encoding="utf-8")
    runs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", PRINT_BATCHES, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    cuts = {tuple(line.split()[:3]) for line in runs[0].splitlines()}
    assert cuts >= {("1", "2", "IMMEDIATE_BLOCK"), ("2", "3", "ANY_BLOCK"), ("2", "3", "TIME")}


def test_records_keep_the_header_and_ids_of_every_shipped_batch(tmp_path):
    # Cluster 2 relays cluster 1's groups, so records of both links hold
    # origin 1's ids.
    path = tmp_path / "chain.ini"
    path.write_text(CHAIN, encoding="utf-8")
    sim = Simulation(load_scenario(path))
    header = attrgetter("source", "destination", "created_ms", "trigger", "total_bytes")
    shipped = ship_log(sim, lambda source, batch: (
        header(batch), [(u.origin, u.seq) for u in batch.updates]))
    result = sim.run()
    assert [(header(r.batch), list(r.batch.updates)) for r in result.batches] == shipped
    assert {r.batch.source for r in result.batches} == {1, 2}
    assert sum(len(r.batch.updates) for r in result.batches) \
        == result.summary["shipped_updates"]


# 20 two-put groups of one mode on a 1>2>3 chain, one group per ms.
RELAYED = """\
[topology]
clusters = 1 2 3
links = 1>2 2>3

[network]
latency_ms = 10

[bounds]
{bounds}

[workload]
seed = 3
value_bytes = 20

[blocks]
count = 20
puts_per_block = 2
pattern = {pattern}
containers = a:f b:f
"""

LAGGED = "default = 5000 0 0"
BOUNDS = pytest.mark.parametrize("bounds", [LAGGED, "mode = plain"], ids=["lag", "plain"])


def relayed_batches(tmp_path, pattern, bounds=LAGGED):
    """Each batch RELAYED ships, in shipping order, as ``(destination,
    trigger, created_ms, delivered_ms, members)``; ``members`` holds
    each update's ``(key, block)``."""
    path = tmp_path / "relayed.ini"
    path.write_text(RELAYED.format(bounds=bounds, pattern=pattern), encoding="utf-8")
    sim = Simulation(load_scenario(path))
    members = ship_log(sim, lambda source, batch: tuple((u.key, u.block) for u in batch.updates))
    return [(r.batch.destination, r.batch.trigger, r.batch.created_ms, r.delivered_ms, m)
            for r, m in zip(sim.run().batches, members, strict=True)]


class TestRelayedGroups:
    """A group ships by its origin's rule at every hop, and whole."""

    @BOUNDS
    def test_an_immediate_group_ships_on_arrival_at_a_relay(self, tmp_path, bounds):
        # Each group reaches cluster 3 alone, in a batch cut the instant
        # it reached cluster 2; no relay bound or poll holds it.
        batches = relayed_batches(tmp_path, "IMMEDIATE", bounds)
        reached_2 = {m: delivered for dst, _, _, delivered, m in batches if dst == 2}
        at_3 = [(trigger, created, m) for dst, trigger, created, _, m in batches if dst == 3]
        assert len(reached_2) == len(at_3) == 20
        assert all(trigger is Trigger.IMMEDIATE_BLOCK and created == reached_2[m]
                   for trigger, created, m in at_3)

    def test_an_any_group_waits_under_each_relays_bound(self, tmp_path):
        # All 20 groups reach cluster 2 in one TIME batch.  The first one
        # offered onward finds cluster 2's lag clock, running from t=0,
        # expired and ships at once; that restarts the clock, so the
        # other 19 wait for the first tick after 10,010 ms.
        batches = relayed_batches(tmp_path, "ANY")
        assert [(dst, trigger, created, len(m)) for dst, trigger, created, _, m in batches] == [
            (2, Trigger.TIME, 5000, 40), (3, Trigger.ANY_BLOCK, 5010, 2),
            (3, Trigger.TIME, 10100, 38)]

    @BOUNDS
    @pytest.mark.parametrize("pattern", ["IMMEDIATE", "ANY"])
    def test_every_group_reaches_the_last_hop_in_one_batch(self, tmp_path, pattern, bounds):
        # The index of the batch that carries each member to cluster 3.
        carried: dict[Group, list[int]] = {}
        for index, (dst, _, _, _, members) in enumerate(relayed_batches(tmp_path, pattern,
                                                                        bounds)):
            if dst == 3:
                for _, block in members:
                    carried.setdefault(block, []).append(index)
        assert len(carried) == 20
        assert all(len(batches) == 2 and batches[0] == batches[1]
                   for batches in carried.values())
