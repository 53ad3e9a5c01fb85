"""Exactly-once by sequence windows: per-origin floors plus early seqs.

``SeqWindow`` is checked against a plain set of ``(origin, seq)`` pairs,
then in place: in the pending caches, in remote apply, and across whole
runs, where every window must end as one floor per origin whatever the
run length.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georep.bounds import Bound, ContainerId, SeqWindow, Update
from georep.cache import PendingCache
from georep.cluster import ApplyReport, ClusterNode
from georep.engine import Simulation
from georep.errors import ProtocolError
from georep.scenario import load_scenario
from georep.shipping import Batch, ReplicationSource, Trigger

from conftest import make_update

CID = ContainerId("usertable", "family")

origins = st.integers(1, 4)
# Single identities, ascending runs from any start, and shuffled blocks of
# consecutive seqs; repeats come from overlapping draws.
singles = st.tuples(origins, st.integers(1, 40)).map(lambda ident: [ident])
runs = st.tuples(origins, st.integers(1, 40), st.integers(1, 60)).map(
    lambda r: [(r[0], seq) for seq in range(r[1], r[1] + r[2])])
shuffled = st.tuples(origins, st.integers(1, 30)).flatmap(
    lambda r: st.permutations([(r[0], seq) for seq in range(1, r[1] + 1)]))
streams = st.lists(st.one_of(singles, runs, shuffled), max_size=20).map(
    lambda chunks: [ident for chunk in chunks for ident in chunk])


def assert_shape(window: SeqWindow, seen: set[tuple[int, int]]) -> None:
    """The window holds exactly ``seen``: 1..floor plus the early seqs,
    with floor + 1 missing and no empty early set kept."""
    for origin in {o for o, _ in seen}:
        mine = {seq for o, seq in seen if o == origin}
        floor = window.floors.get(origin, 0)
        assert set(range(1, floor + 1)) <= mine
        assert floor + 1 not in mine
        assert window.early.get(origin, set()) == {seq for seq in mine if seq > floor}
    assert set(window.floors) | set(window.early) <= {o for o, _ in seen}
    assert all(window.early.values())


@given(streams)
@settings(max_examples=300, deadline=None)
def test_window_matches_a_set_of_identities(stream):
    window, seen = SeqWindow(), set()
    for origin, seq in stream:
        assert window.add(origin, seq) is ((origin, seq) not in seen)
        seen.add((origin, seq))
    assert_shape(window, seen)


def test_a_filled_gap_takes_in_the_early_seqs_above_it():
    window = SeqWindow()
    for seq in (1, 3, 4, 6):
        window.add(2, seq)
    assert (window.floors, window.early) == ({2: 1}, {2: {3, 4, 6}})
    window.add(2, 2)
    assert (window.floors, window.early) == ({2: 4}, {2: {6}})
    window.add(2, 5)
    assert (window.floors, window.early) == ({2: 6}, {})


# -- seqs below 1 -----------------------------------------------------


@pytest.mark.parametrize("seq", [0, -3])
def test_seq_below_one_raises_in_the_window(seq):
    window = SeqWindow()
    with pytest.raises(ProtocolError, match="below 1"):
        window.add(1, seq)
    window.add(1, 1)
    with pytest.raises(ProtocolError, match="below 1"):
        window.add(1, seq)


@pytest.mark.parametrize("seq", [0, -3])
def test_seq_below_one_raises_in_enqueue(seq):
    cache = PendingCache(origin=1)
    with pytest.raises(ProtocolError, match="below 1"):
        cache.enqueue(make_update(origin=1, seq=seq))
    assert cache.total_pending_count == 0


@pytest.mark.parametrize("seq", [0, -3])
def test_seq_below_one_raises_in_apply_remote(seq):
    node = ClusterNode(2, [], on_ship=[].append)
    batch = Batch.build([make_update(origin=1, seq=seq)], 1, 2, 0, Trigger.COUNT)
    with pytest.raises(ProtocolError, match="below 1"):
        node.apply_remote(batch)
    assert node.store == {}


def snapshot(node):
    """Copies of a cluster's store, apply window and pending caches."""
    return (
        {cid: dict(cells) for cid, cells in node.store.items()},
        dict(node._applied.floors), dict(node._applied.early),
        {peer: ({cid: (list(state.queue), state.peak, state.last_ship_ms,
                       dict(state.shipped_value))
                 for cid, state in source.cache.containers.items()},
                source.cache.total_pending_count, dict(source.cache._seen.floors))
         for peer, source in node.sources.items()},
    )


def test_a_batch_with_a_seq_below_one_changes_nothing():
    # Cluster 2 relays to 3, has applied (1, 1) and holds its own write
    # pending for 3; a batch [(1, 2), (1, 0)] must leave all of it as is.
    node = ClusterNode(2, [1, 3], default_bound=Bound(pending=100), on_ship=[].append)
    node.apply_remote(Batch.build([make_update(key="a", origin=1, seq=1)], 1, 2, 0,
                                  Trigger.COUNT))
    node.put(CID, "mine", b"v")
    before = snapshot(node)
    bad = Batch.build([make_update(key="b", origin=1, seq=2),
                       make_update(key="a", origin=1, seq=0)], 1, 2, 5, Trigger.COUNT)
    with pytest.raises(ProtocolError, match=r"update \(1, 0\) has a sequence number below 1"):
        node.apply_remote(bad)
    assert snapshot(node) == before


# -- whole runs: windows stay one floor per origin ---------------------

CHAIN = """\
[topology]
clusters = 1 2 3
links = 1>2 2>3

[network]
latency_ms = 10
window_ms = 1000

[bounds]
default = 200 25 0
tick_ms = 50

[workload]
operations = {ops}
write_fraction = 1.0
distribution = zipfian
keyspace = 300
value_bytes = 20
seed = 3
origins = 1
"""

# Every cluster writes overlapping keys, so relays meet stale and
# duplicate updates; 1<->2 is cut for a while, so batches wait.
MESH = """\
[topology]
clusters = 1 2 3
links = 1>2 1>3 2>1 2>3 3>1 3>2

[network]
latency_ms = 10
latency_ms.1>3 = 40
latency_ms.2>3 = 25
window_ms = 1000
partitions =
    1>2 100 600
    2>1 100 600

[bounds]
default = 150 30 0
tick_ms = 50

[workload]
operations = {ops}
write_fraction = 0.8
distribution = zipfian
keyspace = 200
value_bytes = 20
seed = 9
origins = 1 2 3
"""


def run(tmp_path, text, ops, name="run"):
    path = tmp_path / f"{name}-{ops}.ini"
    path.write_text(text.format(ops=ops), encoding="utf-8")
    sim = Simulation(load_scenario(path))
    return sim, sim.run()


@pytest.mark.parametrize("text, writers, upstream", [
    (CHAIN, {1}, {1: [], 2: [1], 3: [1]}),
    (MESH, {1, 2, 3}, {1: [2, 3], 2: [1, 3], 3: [1, 2]}),
], ids=["chain", "mesh"])
def test_windows_end_as_one_floor_per_origin_at_any_length(tmp_path, text, writers,
                                                           upstream):
    for ops in (400, 1600):
        sim, result = run(tmp_path, text, ops)
        assert len(set(result.summary["digests"].values())) == 1
        # Only the mesh delivers some updates twice, by two paths.
        assert any(result.summary["duplicates"].values()) == (len(writers) > 1)
        writes = {cid: node.last_seq for cid, node in sim.clusters.items()}
        assert {cid for cid, n in writes.items() if n} == writers
        for cid, node in sim.clusters.items():
            assert node._applied.floors == {o: writes[o] for o in upstream[cid]}
            assert node._applied.early == {}
            # A source sees every seq of its own cluster's writes and
            # tracks no foreign origin, relaying or not.
            own = {cid: writes[cid]} if writes[cid] else {}
            for source in node.sources.values():
                assert source.cache._seen.floors == own
                assert source.cache._seen.early == {}


@pytest.mark.parametrize("text", [CHAIN, MESH], ids=["chain", "mesh"])
def test_no_source_is_offered_a_foreign_update_twice(tmp_path, monkeypatch, text):
    # Why the caches need not track foreign seqs: a foreign update
    # reaches a source only by relaying, once, when remote apply first
    # sees it.
    offered: dict[int, list[tuple[int, int]]] = {}

    def recording(method):
        def record(source, updates, *args):
            foreign = [updates] if isinstance(updates, Update) else updates
            offered.setdefault(id(source), []).extend(
                (u.origin, u.seq) for u in foreign if u.origin != source.source)
            return method(source, updates, *args)
        return record

    for name in ("offer", "offer_group", "ship_group_now"):
        monkeypatch.setattr(ReplicationSource, name,
                            recording(getattr(ReplicationSource, name)))
    sim, result = run(tmp_path, text, 1600)
    assert len(set(result.summary["digests"].values())) == 1
    assert sum(map(len, offered.values())) > 1000
    for identities in offered.values():
        assert len(identities) == len(set(identities))


# -- a gap below the early seqs; redelivery is still caught ----------


def test_redelivery_above_a_gap_counts_as_duplicates():
    # Seq 1 never arrives, as when a relay discarded it as stale.
    batch = Batch.build([make_update(key="a", origin=1, seq=2),
                         make_update(key="b", origin=1, seq=3)], 1, 2, 0, Trigger.COUNT)
    receiver = ClusterNode(2, [], on_ship=[].append)
    receiver.apply_remote(batch)
    assert receiver.tally == ApplyReport(applied=2)
    assert (receiver._applied.floors, receiver._applied.early) == ({}, {1: {2, 3}})
    receiver.apply_remote(batch)
    assert receiver.tally == ApplyReport(applied=2, duplicates=2)
