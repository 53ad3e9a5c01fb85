"""Exactly-once by sequence windows: per-origin floors plus early seqs.

``SeqWindow`` is checked against a plain set of ``(origin, seq)`` pairs,
then in place: in remote apply, and across whole runs, where every
apply window must end as one floor per origin whatever the run length
and no replication source is ever offered one update twice.  A source
offered an update twice ships it twice, and the receiver's window
catches the repeat.  Seq runs, batches of one origin's consecutive seqs,
are checked and recorded as ranges, and must leave what the per-update
path leaves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georep.bounds import Bound, ContainerId, SeqWindow, Update
from georep.cluster import ApplyReport, ClusterNode
from georep.engine import BatchRecord, Simulation, UpdateId
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
                source.cache.total_pending_count)
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


# -- a source trusts its caller; the receiver enforces exactly-once ----


def test_an_update_offered_twice_ships_twice_and_is_stored_once():
    shipped = []
    source = ReplicationSource(1, 2, on_ship=shipped.append)
    update = make_update(key="a", origin=1, seq=1)
    source.offer(update, 0)
    source.offer(update, 0)
    assert [batch.updates for batch in shipped] == [(update,), (update,)]
    node = ClusterNode(2, [], on_ship=[].append)
    for batch in shipped:
        node.apply_remote(batch)
    assert node.tally == ApplyReport(applied=1, duplicates=1)
    assert node.store == {CID: {"a": update}}


@pytest.mark.parametrize("seq", [0, -3])
def test_a_seq_below_one_is_shipped_and_rejected_at_the_receiver(seq):
    shipped = []
    source = ReplicationSource(1, 2, on_ship=shipped.append)
    bad = make_update(origin=1, seq=seq)
    source.offer(bad, 0)
    assert [batch.updates for batch in shipped] == [(bad,)]
    node = ClusterNode(2, [3], on_ship=[].append)
    with pytest.raises(ProtocolError, match="below 1"):
        node.apply_remote(shipped[0])
    assert snapshot(node) == ({}, {}, {}, {3: ({}, 0)})
    assert node.tally == ApplyReport()


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


# A chain of scripted write groups, one IMMEDIATE then two ANY: both
# kinds of group batch leave cluster 1 and are relayed by cluster 2.
BLOCKS = """\
[topology]
clusters = 1 2 3
links = 1>2 2>3

[network]
latency_ms = 10
window_ms = 1000

[bounds]
default = 0 0 0
orders:acct = 0 2 0
payments:acct = 0 40 0
ledger:acct = 150 0 0
tick_ms = 50

[workload]
seed = 3
value_bytes = 20
origins = 1

[blocks]
count = {ops}
puts_per_block = 4
pattern = IMMEDIATE ANY ANY
containers = orders:acct payments:acct ledger:acct
spacing_ms = 1
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


@pytest.mark.parametrize("text", [CHAIN, MESH, BLOCKS], ids=["chain", "mesh", "blocks"])
def test_no_source_is_offered_an_update_twice(tmp_path, monkeypatch, text):
    # Where exactly-once holds before apply: every update, the source's
    # own cluster's or relayed, reaches a source once.  Only the
    # outermost offer counts, as ``offer_group`` hands an IMMEDIATE
    # group on to ``ship_group_now``.
    offered: dict[int, list[tuple[int, int]]] = {}
    inside: set[int] = set()

    def recording(method):
        def record(source, updates, *args):
            if id(source) in inside:
                return method(source, updates, *args)
            members = [updates] if isinstance(updates, Update) else updates
            offered.setdefault(id(source), []).extend((u.origin, u.seq) for u in members)
            inside.add(id(source))
            try:
                return method(source, updates, *args)
            finally:
                inside.discard(id(source))
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


# -- seq runs: one origin's consecutive seqs, checked as a range --------


def run_batch(origin, first, count, source=1, destination=2):
    return Batch.build([make_update(key=f"k{seq}", origin=origin, seq=seq)
                        for seq in range(first, first + count)], source, destination, 0,
                       Trigger.COUNT)


@pytest.mark.parametrize("idents, run", [
    ([(1, 4), (1, 5), (1, 6)], (1, 4)),
    ([(3, 9)], (3, 9)),
    ([], None),
    ([(1, 4), (1, 6)], None),
    ([(1, 5), (1, 4)], None),
    ([(1, 4), (1, 4)], None),
    ([(1, 4), (2, 5)], None),
], ids=["run", "single", "empty", "gap", "descending", "repeat", "two-origins"])
def test_build_marks_one_origins_consecutive_seqs_as_a_run(idents, run):
    updates = [make_update(origin=origin, seq=seq) for origin, seq in idents]
    assert Batch.build(updates, 1, 2, 0, Trigger.COUNT).run == run


def test_a_run_extends_the_floor():
    window = SeqWindow()
    assert window.add_run(1, 1, 5)
    assert window.add_run(1, 6, 3)
    assert window.add_run(2, 1, 1)
    assert (window.floors, window.early) == ({1: 8, 2: 1}, {})


def test_a_run_after_a_gap_falls_back_to_per_seq_adds():
    window = SeqWindow()
    window.add(1, 1)
    assert not window.add_run(1, 3, 2)
    assert (window.floors, window.early) == ({1: 1}, {})
    node = ClusterNode(2, [], on_ship=[].append)
    node.apply_remote(run_batch(1, 1, 1))
    node.apply_remote(run_batch(1, 3, 2))
    assert (node._applied.floors, node._applied.early) == ({1: 1}, {1: {3, 4}})
    assert node.tally == ApplyReport(applied=3)


def test_a_run_for_an_origin_holding_early_seqs_falls_back_to_per_seq_adds():
    window = SeqWindow()
    window.add(1, 1)
    window.add(1, 5)
    assert not window.add_run(1, 2, 3)
    assert (window.floors, window.early) == ({1: 1}, {1: {5}})
    node = ClusterNode(2, [], on_ship=[].append)
    for first, count in ((1, 1), (5, 1), (2, 3)):
        node.apply_remote(run_batch(1, first, count))
    # The per-seq adds take in the early seq the run reached.
    assert (node._applied.floors, node._applied.early) == ({1: 5}, {})
    assert node.tally == ApplyReport(applied=5)


def test_a_repeated_run_counts_every_update_as_a_duplicate():
    node = ClusterNode(2, [], on_ship=[].append)
    batch = run_batch(1, 1, 4)
    node.apply_remote(batch)
    node.apply_remote(batch)
    assert node.tally == ApplyReport(applied=4, duplicates=4)
    assert (node._applied.floors, node._applied.early) == ({1: 4}, {})


def test_a_run_of_the_nodes_own_seqs_counts_each_echo():
    node = ClusterNode(2, [], on_ship=[].append)
    node.apply_remote(run_batch(2, 1, 3, source=1))
    assert node.tally == ApplyReport(applied=3, echoes=3)
    assert (node._applied.floors, node._applied.early) == ({2: 3}, {})


@pytest.mark.parametrize("first", [0, -2])
def test_a_run_holding_a_seq_below_one_raises_before_anything_is_stored(first):
    window = SeqWindow()
    with pytest.raises(ProtocolError, match="below 1"):
        window.add_run(1, first, 4)
    assert (window.floors, window.early) == ({}, {})
    node = ClusterNode(2, [3], on_ship=[].append)
    batch = run_batch(1, first, 4)
    assert batch.run == (1, first)
    with pytest.raises(ProtocolError, match=rf"update \(1, {first}\) has a sequence"):
        node.apply_remote(batch)
    assert snapshot(node) == ({}, {}, {}, {3: ({}, 0)})
    assert node.tally == ApplyReport()


@pytest.mark.parametrize("idents", [
    [(1, 7), (1, 8), (1, 9)],
    [(1, 7), (1, 9), (2, 9), (1, 7)],
    [],
], ids=["run", "pairs", "empty"])
def test_a_record_gives_back_the_ids_of_its_batch(idents):
    batch = Batch.build([make_update(origin=o, seq=s) for o, s in idents], 1, 2, 0,
                        Trigger.COUNT)
    record = BatchRecord(batch)
    assert record.updates == tuple(UpdateId(o, s) for o, s in idents)
    assert all(type(ident) is UpdateId for ident in record.updates)
    # A run is kept as one triple, any other batch as its pairs.
    assert (type(record._ids) is tuple) == (batch.run is not None)


OTHER = ContainerId("other", "fam")


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_runs_apply_as_the_per_update_path_does(data):
    # Cluster 2 hears origins 1 and 3 (and its own echoes) from senders 1
    # and 3, and relays each fresh update to the other peer at once.  One
    # node applies every batch as built; the other the same batch with
    # its run cleared, so always by the per-update path.
    made: dict[tuple[int, int], Update] = {}

    def update(origin, seq):
        if (origin, seq) not in made:
            made[origin, seq] = Update(
                data.draw(st.sampled_from([CID, OTHER])), data.draw(st.sampled_from("abc")),
                b"v%d" % seq, data.draw(st.integers(0, 6)), origin, seq)
        return made[origin, seq]

    shipped = {"run": [], "per-update": []}
    nodes = {name: ClusterNode(2, [1, 3], on_ship=log.append) for name, log in shipped.items()}
    seqs = st.integers(1, 30)
    for _ in range(data.draw(st.integers(1, 8))):
        origin = data.draw(st.sampled_from([1, 3, 2]))
        kind = data.draw(st.sampled_from(["next", "run", "mixed"]))
        if kind == "mixed":
            idents = data.draw(st.lists(st.tuples(st.sampled_from([origin, 1, 3]), seqs),
                                        max_size=12))
        else:
            first = (nodes["run"]._applied.floors.get(origin, 0) + 1 if kind == "next"
                     else data.draw(seqs))
            idents = [(origin, seq) for seq in range(first, first + data.draw(st.integers(1, 8)))]
        sender = data.draw(st.sampled_from([1, 3]))
        batch = Batch.build([update(*ident) for ident in idents], sender, 2, 0, Trigger.COUNT)
        nodes["run"].apply_remote(batch)
        nodes["per-update"].apply_remote(batch._replace(run=None))
    by_run, by_update = nodes["run"], nodes["per-update"]
    assert by_run.tally == by_update.tally
    assert by_run.store.keys() == by_update.store.keys()
    for cid, cells in by_run.store.items():
        assert cells.keys() == by_update.store[cid].keys()
        assert all(cell is by_update.store[cid][key] for key, cell in cells.items())
    assert (by_run._applied.floors, by_run._applied.early) == (
        by_update._applied.floors, by_update._applied.early)
    relayed = {name: [(b.destination, [id(u) for u in b.updates]) for b in log]
               for name, log in shipped.items()}
    assert relayed["run"] == relayed["per-update"]
