"""Exactly-once by last-writer-wins: a copy that does not beat its cell
is never stored.

Remote apply keeps no record of the identities it has seen; a copy of
the update a cell holds counts as a duplicate, and an older copy as
stale.  A differential oracle runs whole scenarios against a node that
also keeps a plain set of ``(origin, seq)`` pairs and counts a repeated
identity as a duplicate before last-writer-wins: both must give the same
outputs.  Across whole runs no replication source is ever offered one
update twice; a source offered an update twice ships it twice, and the
receiver stores it once.  Seq runs, batches of one origin's consecutive
seqs, are checked for a seq below 1 by their first seq.
"""

import pytest
from hypothesis import given, settings

import georep.engine
from georep.bounds import Bound, ContainerId, Update
from georep.cluster import ApplyReport, ClusterNode
from georep.engine import BatchRecord, Simulation, UpdateId
from georep.errors import ProtocolError
from georep.scenario import load_scenario
from georep.shipping import Batch, ReplicationSource, Trigger

from conftest import make_update
from test_sampling import bench_workload, scenarios

CID = ContainerId("usertable", "family")

# -- seqs below 1 -----------------------------------------------------


@pytest.mark.parametrize("seq", [0, -3])
def test_seq_below_one_raises_in_apply_remote(seq):
    node = ClusterNode(2, [], on_ship=[].append)
    batch = Batch.build([make_update(origin=1, seq=seq)], 1, 2, 0, Trigger.COUNT)
    with pytest.raises(ProtocolError, match="below 1"):
        node.apply_remote(batch)
    assert node.store == {}


def snapshot(node):
    """Copies of a cluster's store and pending caches."""
    return (
        {cid: dict(cells) for cid, cells in node.store.items()},
        {source.peer: ({cid: (list(state.queue), state.peak, state.last_ship_ms,
                              dict(state.shipped_value))
                        for cid, state in source.cache.containers.items()},
                       source.cache.total_pending_count)
         for source in node.sources},
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
    assert snapshot(node) == ({}, {3: ({}, 0)})
    assert node.tally == ApplyReport()


# -- whole runs -------------------------------------------------------

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


def run(tmp_path, text, ops):
    path = tmp_path / f"run-{ops}.ini"
    path.write_text(text.format(ops=ops), encoding="utf-8")
    return Simulation(load_scenario(path)).run()


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
    result = run(tmp_path, text, 1600)
    assert len(set(result.summary["digests"].values())) == 1
    assert sum(map(len, offered.values())) > 1000
    for identities in offered.values():
        assert len(identities) == len(set(identities))


# -- a seq that never arrives; redelivery is still caught ------------


def test_redelivery_above_a_gap_counts_as_duplicates():
    # Seq 1 never arrives, as when a relay discarded it as stale.
    batch = Batch.build([make_update(key="a", origin=1, seq=2),
                         make_update(key="b", origin=1, seq=3)], 1, 2, 0, Trigger.COUNT)
    receiver = ClusterNode(2, [], on_ship=[].append)
    receiver.apply_remote(batch)
    assert receiver.tally == ApplyReport(applied=2)
    receiver.apply_remote(batch)
    assert receiver.tally == ApplyReport(applied=2, duplicates=2)


# -- seq runs: one origin's consecutive seqs --------------------------


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


def test_a_repeated_run_counts_every_update_as_a_duplicate():
    node = ClusterNode(2, [], on_ship=[].append)
    batch = run_batch(1, 1, 4)
    node.apply_remote(batch)
    node.apply_remote(batch)
    assert node.tally == ApplyReport(applied=4, duplicates=4)


def test_a_run_of_the_nodes_own_seqs_counts_each_echo():
    node = ClusterNode(2, [], on_ship=[].append)
    node.apply_remote(run_batch(2, 1, 3, source=1))
    assert node.tally == ApplyReport(applied=3, echoes=3)


@pytest.mark.parametrize("first", [0, -2])
def test_a_run_holding_a_seq_below_one_raises_before_anything_is_stored(first):
    node = ClusterNode(2, [3], on_ship=[].append)
    batch = run_batch(1, first, 4)
    assert batch.run == (1, first)
    with pytest.raises(ProtocolError, match=rf"update \(1, {first}\) has a sequence"):
        node.apply_remote(batch)
    assert snapshot(node) == ({}, {3: ({}, 0)})
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


# -- the differential oracle: LWW against a set of seen identities -----


class SetNode(ClusterNode):
    """The reference rule: a plain set of every ``(origin, seq)`` seen
    in a remote batch.  A repeated identity is a duplicate before
    last-writer-wins; the relay rule and the echo count are the node's."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = set()

    def apply_remote(self, batch):
        tally, fresh, stale_members = self.tally, [], []
        for u in batch.updates:
            tally.echoes += u.origin == self.cluster_id
            if (u.origin, u.seq) in self.seen:
                tally.duplicates += 1
                continue
            self.seen.add((u.origin, u.seq))
            cells = self.store.setdefault(u.container, {})
            cell = cells.get(u.key)
            if cell is None or u.version > cell.version:
                cells[u.key] = u
                fresh.append(u)
            else:
                tally.stale_discarded += 1
                if u.block is not None:
                    stale_members.append(u)
        if fresh:
            blocks = {u.block for u in fresh}
            self.offer(fresh + [u for u in stale_members if u.block in blocks], batch.source)
        tally.applied += len(fresh)


def outcome(scenario, node_class):
    """A run's rows, batch records and summary with ``node_class`` as
    every cluster."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(georep.engine, "ClusterNode", node_class)
        result = Simulation(scenario).run()
    records = [(r.source, r.destination, r.created_ms, r.trigger, r.total_bytes,
                r.delivered_ms, r.updates) for r in result.batches]
    return result.rows, records, result.summary


def assert_matches_the_set_rule(scenario):
    rows, records, summary = outcome(scenario, ClusterNode)
    ref_rows, ref_records, ref = outcome(scenario, SetNode)
    assert rows == ref_rows
    assert records == ref_records
    for field in ("digests", "applied", "echoes"):
        assert summary[field] == ref[field]
    # Only a repeat of an update since overwritten moves, from
    # duplicate to stale.
    for cid, dups in summary["duplicates"].items():
        assert dups + summary["stale_discarded"][cid] == (
            ref["duplicates"][cid] + ref["stale_discarded"][cid])
        assert dups <= ref["duplicates"][cid]


@given(scenarios())
@settings(max_examples=400, deadline=None)
def test_random_scenarios_match_the_set_rule(scenario):
    assert_matches_the_set_rule(scenario)


@pytest.mark.parametrize("name", ["steady", "burst", "mesh", "blocks"])
def test_bench_workloads_match_the_set_rule(name):
    assert_matches_the_set_rule(bench_workload(name, None))
