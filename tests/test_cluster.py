"""Replica clusters: local writes, remote apply under LWW, digests."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georep.bounds import Bound, ContainerId, Update
from georep.cluster import EMPTY_DIGEST, ApplyReport, ClusterNode
from georep.errors import ProtocolError
from georep.shipping import Batch, Trigger

from conftest import make_group

CID = ContainerId("usertable", "family")
OTHER = ContainerId("other", "fam")


def make_node(cluster_id=1, peers=(), clock=None, shipped=None, **kwargs):
    fn = (lambda: clock[0]) if clock is not None else (lambda: 0)
    shipped = [] if shipped is None else shipped
    return ClusterNode(cluster_id, list(peers), now_fn=fn, on_ship=shipped.append, **kwargs)


def remote_batch(updates, source, destination, created_ms=0):
    return Batch.build(updates, source, destination, created_ms, Trigger.COUNT)


def foreign(key, value, wall_ms, origin, seq, container=CID):
    return Update(container=container, key=key, value=value, wall_ms=wall_ms,
                  origin=origin, seq=seq)


def test_a_node_needs_an_on_ship():
    with pytest.raises(TypeError, match="on_ship"):
        ClusterNode(1, [2])


class TestLocalWrites:
    def test_put_stores_value_with_write_time_and_origin(self):
        clock = [5]
        node = make_node(clock=clock)
        node.put(CID, "k", b"v")
        cell = node.store[CID]["k"]
        assert (cell.value, cell.wall_ms, cell.origin) == (b"v", 5, 1)

    def test_store_holds_the_wal_entry_itself(self):
        node = make_node()
        node.put(CID, "k", b"v")
        update = node.local_put(CID, "k", b"w", block=make_group(CID))
        assert node.store[CID]["k"] is update

    def test_later_local_write_wins(self):
        clock = [5]
        node = make_node(clock=clock)
        node.put(CID, "k", b"old")
        clock[0] = 7
        node.put(CID, "k", b"new")
        assert node.get(CID, "k") == b"new"

    def test_wal_sequences_are_contiguous_from_one(self):
        node = make_node()
        updates = [node.put(CID, f"k{i}", b"v") for i in range(3)]
        group = make_group(CID)
        updates += [node.local_put(CID, f"b{i}", b"v", block=group) for i in range(2)]
        assert [u.seq for u in updates] == [1, 2, 3, 4, 5]
        assert node.last_seq == 5

    def test_get_missing_key_is_none(self):
        assert make_node().get(CID, "nope") is None


class TestRemoteApply:
    def test_newer_timestamp_overwrites(self):
        node = make_node(cluster_id=3)
        node.apply_remote(remote_batch([foreign("k", b"vA", 5, 1, 1)], 1, 3))
        node.apply_remote(remote_batch([foreign("k", b"vB", 7, 2, 1)], 2, 3))
        assert node.tally == ApplyReport(applied=2)
        assert node.get(CID, "k") == b"vB"

    def test_older_timestamp_discarded_and_counted(self):
        node = make_node(cluster_id=3)
        node.apply_remote(remote_batch([foreign("k", b"vB", 7, 2, 1)], 2, 3))
        node.apply_remote(remote_batch([foreign("k", b"vA", 5, 1, 1)], 1, 3))
        assert node.tally == ApplyReport(applied=1, stale_discarded=1)
        assert node.get(CID, "k") == b"vB"

    def test_equal_timestamps_break_toward_larger_origin(self):
        node = make_node(cluster_id=3)
        node.apply_remote(remote_batch([foreign("k", b"from1", 5, 1, 1)], 1, 3))
        node.apply_remote(remote_batch([foreign("k", b"from2", 5, 2, 1)], 2, 3))
        assert node.get(CID, "k") == b"from2"
        # And in the other arrival order the same value wins.
        other = make_node(cluster_id=3)
        other.apply_remote(remote_batch([foreign("k", b"from2", 5, 2, 1)], 2, 3))
        other.apply_remote(remote_batch([foreign("k", b"from1", 5, 1, 1)], 1, 3))
        assert other.tally == ApplyReport(applied=1, stale_discarded=1)
        assert other.get(CID, "k") == b"from2"

    def test_same_origin_same_millisecond_keeps_program_order(self):
        # Sequence numbers order one origin's writes within a millisecond.
        node = make_node(cluster_id=3)
        node.apply_remote(remote_batch([foreign("k", b"second", 5, 1, 2)], 1, 3))
        node.apply_remote(remote_batch([foreign("k", b"first", 5, 1, 1)], 1, 3))
        assert node.tally == ApplyReport(applied=1, stale_discarded=1)
        assert node.get(CID, "k") == b"second"

    def test_redelivery_is_idempotent(self):
        node = make_node(cluster_id=3)
        batch = remote_batch([foreign("k", b"v", 5, 1, 1)], 1, 3)
        node.apply_remote(batch)
        before = node.digest()
        node.apply_remote(batch)
        assert node.tally == ApplyReport(applied=1, duplicates=1)
        assert node.digest() == before

    def test_echo_counts_as_stale_and_the_tally_sums_reports(self):
        node = make_node(cluster_id=3)
        own = node.put(CID, "k", b"mine")
        node.apply_remote(remote_batch([foreign("j", b"v", 5, 1, 1)], 1, 3))
        assert node.tally == ApplyReport(applied=1)
        assert node.apply_remote(remote_batch([own, foreign("j", b"v", 5, 1, 1)], 1, 3)) is None
        assert node.get(CID, "k") == b"mine"
        assert node.tally == ApplyReport(1, 1, 1, 1)

    def test_wrong_destination_rejected(self):
        node = make_node(cluster_id=3)
        with pytest.raises(ProtocolError):
            node.apply_remote(remote_batch([foreign("k", b"v", 5, 1, 1)], 1, 9))

    def test_version_never_decreases(self):
        node = make_node(cluster_id=3)
        versions = []
        for wall_ms, origin, seq in [(5, 1, 1), (3, 2, 1), (5, 2, 1), (9, 1, 2)]:
            node.apply_remote(remote_batch(
                [foreign("k", b"v", wall_ms, origin, seq)], origin, 3))
            versions.append(node.store[CID]["k"].version)
        assert versions == sorted(versions)

    def test_mixed_batch_matches_the_per_update_rule(self):
        # Containers run CID, OTHER, CID; members are fresh, stale or
        # duplicate, one duplicate repeating an update of the same batch.
        earlier = [foreign("k", b"old", 5, 1, 1), foreign("x", b"old", 5, 1, 2, OTHER)]
        repeated = foreign("n", b"new", 1, 2, 3)
        batch = [
            foreign("k", b"newer", 7, 2, 1),          # fresh: beats (5, 1, 1)
            foreign("n", b"first", 1, 2, 2),          # fresh: empty cell
            foreign("x", b"older", 3, 2, 4, OTHER),   # stale: loses to (5, 1, 2)
            foreign("y", b"fresh", 3, 2, 5, OTHER),   # fresh: empty cell
            foreign("k", b"old", 5, 1, 1),            # duplicate of earlier
            repeated,                                 # fresh: beats (1, 2, 2)
            foreign("k", b"lost", 6, 4, 1),           # stale: loses to (7, 2, 1)
            repeated,                                 # duplicate within the batch
        ]
        node = make_node(cluster_id=3)
        node.apply_remote(remote_batch(earlier, 1, 3))
        node.apply_remote(remote_batch(batch, 2, 3))

        # The per-update rule: skip seen identities, otherwise the
        # greater version takes the cell.
        cells, seen, tally = {}, set(), {"applied": 0, "stale": 0, "dup": 0}
        for u in earlier + batch:
            if (u.origin, u.seq) in seen:
                tally["dup"] += 1
                continue
            seen.add((u.origin, u.seq))
            cell = cells.get((u.container, u.key))
            if cell is None or u.version > cell.version:
                cells[(u.container, u.key)] = u
                tally["applied"] += 1
            else:
                tally["stale"] += 1
        assert (node.tally.applied, node.tally.stale_discarded, node.tally.duplicates) == \
            (tally["applied"], tally["stale"], tally["dup"]) == (6, 2, 2)
        stored = {(cid, key): cell for cid, by_key in node.store.items()
                  for key, cell in by_key.items()}
        assert stored.keys() == cells.keys()
        assert all(stored[at] is cells[at] for at in cells)
        assert node.store[CID]["k"] is batch[0]
        assert node.store[CID]["n"] is repeated


class TestDigest:
    def test_empty_store_constant(self):
        assert make_node().digest() == EMPTY_DIGEST
        assert EMPTY_DIGEST == "0" * 64

    def test_insertion_order_does_not_matter(self):
        cells = [("k1", b"a", 1), ("k2", b"b", 2), ("k3", b"c", 3)]
        x = make_node(cluster_id=7)
        y = make_node(cluster_id=7)
        for key, value, ms in cells:
            x.store.setdefault(CID, {})[key] = foreign(key, value, ms, 7, 1)
        for key, value, ms in reversed(cells):
            y.store.setdefault(CID, {})[key] = foreign(key, value, ms, 7, 1)
        assert x.digest() == y.digest()

    def test_single_cell_difference_detected(self):
        x = make_node()
        y = make_node()
        x.store.setdefault(CID, {})["k"] = foreign("k", b"a", 1, 1, 1)
        y.store.setdefault(CID, {})["k"] = foreign("k", b"b", 1, 1, 1)
        assert x.digest() != y.digest()

    @settings(max_examples=200, deadline=None)
    @given(cells=st.dictionaries(
        st.tuples(st.sampled_from([CID, OTHER]), st.text(max_size=3)),
        st.tuples(st.sampled_from(["shared", "twins", "differ", "x_only", "y_only"]),
                  st.binary(max_size=6), st.integers(0, 10**6), st.integers(1, 5)),
        max_size=12),
        empty_x=st.sets(st.sampled_from([CID, OTHER, ContainerId("empty", "fam")])),
        empty_y=st.sets(st.sampled_from([CID, OTHER, ContainerId("empty", "fam")])))
    def test_delta_digest_matches_full_digest(self, cells, empty_x, empty_y):
        x, y = make_node(cluster_id=1), make_node(cluster_id=2)
        for cid in empty_x:
            x.store[cid] = {}
        for cid in empty_y:
            y.store[cid] = {}
        for seq, ((cid, key), (placement, value, ms, origin)) in enumerate(cells.items()):
            cell = foreign(key, value, ms, origin, seq, container=cid)
            if placement in ("shared", "twins", "differ", "x_only"):
                x.store.setdefault(cid, {})[key] = cell
            if placement == "shared":
                y.store.setdefault(cid, {})[key] = cell
            elif placement == "twins":
                y.store.setdefault(cid, {})[key] = foreign(key, value, ms, origin, seq, cid)
            elif placement == "differ":
                y.store.setdefault(cid, {})[key] = foreign(key, value + b"!", ms, origin, seq, cid)
            elif placement == "y_only":
                y.store.setdefault(cid, {})[key] = cell
        assert x.digest() == reference_digest(x.store)
        assert y.digest(x, x.digest()) == y.digest() == reference_digest(y.store)
        assert x.digest(y, y.digest()) == x.digest()


def reference_digest(store):
    """The digest formula, written out independently of the cluster code."""
    acc = 0
    for cid, cells in store.items():
        label = str(cid).encode("utf-8")
        for key, cell in cells.items():
            record = b"|".join((
                label, key.encode("utf-8"),
                str(cell.wall_ms).encode(), str(cell.origin).encode(), cell.value,
            ))
            acc ^= int.from_bytes(hashlib.sha256(record).digest(), "big")
    return f"{acc:064x}"


class TestRelay:
    def test_applied_updates_forwarded_to_other_peers_only(self):
        shipped = []
        node = make_node(cluster_id=2, peers=[1, 3], shipped=shipped,
                         default_bound=Bound())
        node.apply_remote(remote_batch([foreign("k", b"v", 5, 1, 1)], 1, 2))
        assert len(shipped) == 1
        assert shipped[0].destination == 3

    def test_stale_updates_are_not_relayed(self):
        shipped = []
        node = make_node(cluster_id=2, peers=[3], shipped=shipped,
                         default_bound=Bound())
        node.apply_remote(remote_batch([foreign("k", b"new", 9, 1, 1)], 1, 2))
        shipped.clear()
        node.apply_remote(remote_batch([foreign("k", b"old", 2, 4, 1)], 4, 2))
        assert shipped == []

    def test_relay_preserves_original_origin(self):
        shipped = []
        node = make_node(cluster_id=2, peers=[3], shipped=shipped,
                         default_bound=Bound())
        node.apply_remote(remote_batch([foreign("k", b"v", 5, 1, 1)], 1, 2))
        assert shipped[0].updates[0].origin == 1

    def test_relay_never_points_back_at_the_origin_peer(self):
        # Anti-echo: a peer that is also the update's origin gets nothing.
        shipped = []
        node = make_node(cluster_id=2, peers=[1, 3], shipped=shipped,
                         default_bound=Bound())
        node.apply_remote(remote_batch([foreign("k", b"v", 5, 3, 1)], 1, 2))
        assert shipped == []  # only other peer is 3 == origin

    def test_grouped_updates_relay_as_groups(self):
        shipped = []
        node = make_node(cluster_id=2, peers=[3], shipped=shipped,
                         default_bound=Bound())
        group = make_group(CID)
        members = [
            Update(container=CID, key="a", value=b"1", wall_ms=5, origin=1,
                   seq=1, block=group),
            Update(container=CID, key="b", value=b"2", wall_ms=5, origin=1,
                   seq=2, block=group),
        ]
        node.apply_remote(remote_batch(members, 1, 2))
        assert len(shipped) == 1
        assert len(shipped[0].updates) == 2
        assert shipped[0].trigger is Trigger.ANY_BLOCK

    def test_groups_of_two_origins_relay_as_two_whole_groups(self):
        """Origins 1 and 2 each wrote their first group, across both
        containers; a per-origin number would call both block 1.  Cluster
        3 relays them in one batch from 2, and each goes on to 4 whole
        and alone."""
        shipped = []
        node = make_node(cluster_id=3, peers=[2, 4], shipped=shipped,
                         default_bound=Bound())
        first, second = make_group(CID, OTHER), make_group(OTHER, CID)
        members = [
            Update(CID, "a", b"1", 5, 1, 1, block=first),
            Update(OTHER, "b", b"2", 6, 2, 1, block=second),
            Update(OTHER, "c", b"3", 5, 1, 2, block=first),
            Update(CID, "d", b"4", 6, 2, 2, block=second),
        ]
        node.apply_remote(remote_batch(members, 2, 3))
        assert [(b.destination, b.trigger) for b in shipped] == [(4, Trigger.ANY_BLOCK)] * 2
        # Groups go in arrival order; a group's batch takes its
        # containers in text order.
        assert [[u.key for u in b.updates] for b in shipped] == [["c", "a"], ["b", "d"]]
        assert [{u.block for u in b.updates} for b in shipped] == [{first}, {second}]


    def test_onward_hop_waits_under_the_relays_bound(self):
        """Each write leaves cluster 1 alone under its immediate bound, but
        cluster 2 holds ``c:f`` under pending=3, so the relayed updates
        leave it as one batch of three.  Each keeps its origin's wall_ms,
        from which staleness counts."""
        cf = ContainerId("c", "f")
        clock, shipped = [0], []
        n1 = make_node(cluster_id=1, peers=[2], clock=clock, shipped=shipped,
                       bounds={cf: Bound()})
        n2 = make_node(cluster_id=2, peers=[3], clock=clock, shipped=shipped,
                       bounds={cf: Bound(pending=3)})
        for t in range(3):
            clock[0] = t
            n1.put(cf, f"k{t}", b"v")
        assert [(b.source, b.destination, len(b.updates)) for b in shipped] == [(1, 2, 1)] * 3
        clock[0] = 40
        for batch in shipped[:]:
            n2.apply_remote(batch)
        onward = [b for b in shipped if b.source == 2]
        assert len(onward) == 1
        assert (onward[0].destination, onward[0].trigger) == (3, Trigger.COUNT)
        assert [(u.origin, u.wall_ms) for u in onward[0].updates] == [(1, 0), (1, 1), (1, 2)]


def test_three_cluster_chain_converges():
    """Relay a write down a 1>2>3 chain by hand; all stores agree."""
    shipped = []
    n1 = make_node(cluster_id=1, peers=[2], shipped=shipped, default_bound=Bound())
    n2 = make_node(cluster_id=2, peers=[3], shipped=shipped, default_bound=Bound())
    n3 = make_node(cluster_id=3, peers=[], shipped=shipped, default_bound=Bound())
    nodes = {1: n1, 2: n2, 3: n3}
    n1.put(CID, "k", b"v")
    while shipped:
        batch = shipped.pop(0)
        nodes[batch.destination].apply_remote(batch)
    assert n1.digest() == n2.digest() == n3.digest() != EMPTY_DIGEST
