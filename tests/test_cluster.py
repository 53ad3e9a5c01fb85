"""Replica clusters: local writes, remote apply under LWW, digests."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georep.blocks import BlockMode, ClientSession
from georep.bounds import Bound, ContainerId, Group, Update
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

    def test_an_echo_is_classified_like_any_copy_and_the_tally_sums_reports(self):
        # The echo is the update its cell holds, so it is a duplicate,
        # as the redelivered copy of (1, 1) is.
        node = make_node(cluster_id=3)
        own = node.put(CID, "k", b"mine")
        node.apply_remote(remote_batch([foreign("j", b"v", 5, 1, 1)], 1, 3))
        assert node.tally == ApplyReport(applied=1)
        assert node.apply_remote(remote_batch([own, foreign("j", b"v", 5, 1, 1)], 1, 3)) is None
        assert node.get(CID, "k") == b"mine"
        assert node.tally == ApplyReport(applied=1, stale_discarded=0, duplicates=2, echoes=1)

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
            foreign("k", b"old", 5, 1, 1),            # stale: a repeat of earlier,
                                                      # loses to (7, 2, 1)
            repeated,                                 # fresh: beats (1, 2, 2)
            foreign("k", b"lost", 6, 4, 1),           # stale: loses to (7, 2, 1)
            repeated,                                 # duplicate within the batch
        ]
        node = make_node(cluster_id=3)
        node.apply_remote(remote_batch(earlier, 1, 3))
        node.apply_remote(remote_batch(batch, 2, 3))

        # The per-update rule: the greater version takes the cell, the
        # cell's own identity is a duplicate, and anything older is stale.
        cells, tally = {}, {"applied": 0, "stale": 0, "dup": 0}
        for u in earlier + batch:
            cell = cells.get((u.container, u.key))
            if cell is None or u.version > cell.version:
                cells[(u.container, u.key)] = u
                tally["applied"] += 1
            elif (u.origin, u.seq) == (cell.origin, cell.seq):
                tally["dup"] += 1
            else:
                tally["stale"] += 1
        assert (node.tally.applied, node.tally.stale_discarded, node.tally.duplicates) == \
            (tally["applied"], tally["stale"], tally["dup"]) == (6, 3, 1)
        stored = {(cid, key): cell for cid, by_key in node.store.items()
                  for key, cell in by_key.items()}
        assert stored.keys() == cells.keys()
        assert all(stored[at] is cells[at] for at in cells)
        assert node.store[CID]["k"] is batch[0]
        assert node.store[CID]["n"] is repeated

    def test_ties_are_classified_as_the_version_and_the_identity_do(self):
        # Every pair of a cell and a copy over two wall clocks, two
        # origins and two seqs: equal clocks tie-break on the origin,
        # then on the seq.
        versions = [(w, o, s) for w in (5, 6) for o in (1, 2) for s in (1, 2)]
        for held in versions:
            for copy in versions:
                node = make_node(cluster_id=3)
                cell, update = foreign("k", b"held", *held), foreign("k", b"copy", *copy)
                node.apply_remote(remote_batch([cell], 1, 3))
                node.apply_remote(remote_batch([update], 2, 3))
                if update.version > cell.version:
                    want = ApplyReport(applied=2)
                elif (update.origin, update.seq) == (cell.origin, cell.seq):
                    want = ApplyReport(applied=1, duplicates=1)
                else:
                    want = ApplyReport(applied=1, stale_discarded=1)
                assert node.tally == want, (held, copy)
                kept = update if want.applied == 2 else cell
                assert node.store[CID]["k"] is kept, (held, copy)


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

    @pytest.mark.parametrize("case", ["equal twins", "one cell differs",
                                      "one side only", "both empty"])
    def test_a_relative_digest_equals_a_full_digest(self, case):
        x, y = make_node(cluster_id=1), make_node(cluster_id=2)
        cells = [foreign(key, b"v" + key.encode(), seq, 1, seq)
                 for seq, key in enumerate("abc", start=1)]
        if case != "both empty":
            x.store[CID] = {u.key: u for u in cells}
            # Equal, not identical, updates under every key.
            y.store[CID] = {u.key: foreign(u.key, u.value, u.wall_ms, u.origin, u.seq)
                            for u in cells}
            assert y.store[CID] == x.store[CID]
            assert all(y.store[CID][u.key] is not u for u in cells)
        if case == "one cell differs":
            y.store[CID]["b"] = foreign("b", b"other", 9, 2, 1)
        elif case == "one side only":
            x.store[OTHER] = {"z": foreign("z", b"only", 4, 1, 4, container=OTHER)}
        for node, base in ((x, y), (y, x)):
            assert node.digest(base, base.digest()) == node.digest() == \
                reference_digest(node.store)


class TestConvergedDigest:
    class Unwalked(dict):
        """A store whose cells must not be walked."""

        def items(self):
            raise AssertionError("walked the base store")

    def pair(self):
        x, y = make_node(cluster_id=1), make_node(cluster_id=2)
        for seq, (cid, key) in enumerate([(CID, "a"), (CID, "b"), (OTHER, "c")], start=1):
            cell = foreign(key, b"v", seq, 1, seq, container=cid)
            x.store.setdefault(cid, {})[key] = y.store.setdefault(cid, {})[key] = cell
        return x, y

    def test_a_converged_replica_walks_only_its_own_store(self):
        x, y = self.pair()
        x_digest = x.digest()
        x.store = self.Unwalked(x.store)
        assert y.digest(x, x_digest) == x_digest == reference_digest(y.store)

    def test_an_extra_base_cell_is_walked_and_counted(self):
        x, y = self.pair()
        x.store[OTHER]["d"] = foreign("d", b"w", 9, 1, 9, container=OTHER)
        assert y.digest(x, x.digest()) == y.digest() == reference_digest(y.store)


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

    def test_groups_of_two_origins_relay_whole_in_one_batch(self):
        """Origins 1 and 2 each wrote their first group, across both
        containers; a per-origin number would call both block 1.  Cluster
        3 relays them in one batch from 2, and both go on to 4 whole, in
        one group offer and one batch."""
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
        [onward] = shipped
        assert (onward.destination, onward.trigger) == (4, Trigger.ANY_BLOCK)
        # The batch takes its containers in text order, and each
        # container's members in arrival order.
        assert [u.key for u in onward.updates] == ["b", "c", "a", "d"]
        assert [u.block for u in onward.updates] == [second, first, first, second]


    def test_an_immediate_group_takes_an_any_group_of_its_batch_along(self):
        """One delivered batch holds an ANY group in lag-bounded ``CID``
        and an IMMEDIATE group in ``OTHER``.  The relay offers both in
        one group offer, so the ANY group does not wait out ``CID``'s lag:
        both leave at once, in one IMMEDIATE_BLOCK batch."""
        clock, shipped = [10], []
        node = make_node(cluster_id=2, peers=[3], clock=clock, shipped=shipped,
                         bounds={CID: Bound(lag_ms=5000), OTHER: Bound(lag_ms=5000)})
        lazy, urgent = Group((CID,)), Group((OTHER,), immediate=True)
        node.apply_remote(remote_batch([Update(CID, "a", b"1", 0, 1, 1, block=lazy),
                                        Update(OTHER, "b", b"2", 0, 1, 2, block=urgent)], 1, 2))
        [onward] = shipped
        assert (onward.destination, onward.trigger, onward.created_ms) == (
            3, Trigger.IMMEDIATE_BLOCK, 10)
        assert [(u.key, u.block) for u in onward.updates] == [("b", urgent), ("a", lazy)]

    def test_a_relay_sends_a_groups_stale_members_on_with_it(self):
        """On a 1>2>3 chain, cluster 1 commits the IMMEDIATE block
        {a:x/k, b:y/l} at t=0, and cluster 2 writes a:x/k at t=5, which
        waits under a:x's lag.  At cluster 2 the block's k is stale: it
        is not applied, but it goes on to 3 with l, so cluster 3 never
        holds l without a k of at least the block's version."""
        ax, by = ContainerId("a", "x"), ContainerId("b", "y")
        clock, shipped = [0], []
        bounds = {ax: Bound(lag_ms=5000), by: Bound()}
        n1, n2, n3 = (make_node(cluster_id=c, peers=p, clock=clock, shipped=shipped,
                                bounds=bounds) for c, p in ((1, [2]), (2, [3]), (3, [])))
        session = ClientSession(n1)
        session.start_block(BlockMode.IMMEDIATE)
        session.put(ax, "k", b"1")
        session.put(by, "l", b"1")
        session.end_block()
        clock[0] = 5
        n2.put(ax, "k", b"2")
        clock[0] = 10
        [block] = shipped
        n2.apply_remote(block)
        assert (n2.tally.applied, n2.tally.stale_discarded) == (1, 1)
        [onward] = shipped[1:]
        assert onward.trigger is Trigger.IMMEDIATE_BLOCK
        assert [(u.key, u.origin, u.wall_ms) for u in onward.updates] == [
            ("k", 2, 5), ("k", 1, 0), ("l", 1, 0)]
        clock[0] = 20
        n3.apply_remote(onward)
        assert {key: cell.origin for cells in n3.store.values()
                for key, cell in cells.items()} == {"k": 2, "l": 1}
        assert n3.store[ax]["k"] is n2.store[ax]["k"]


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
