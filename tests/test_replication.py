"""Per-peer shipping: bound triggers, ticks, drains, batch accounting."""

from unittest import mock

import pytest

from georep.bounds import Bound, ContainerId, ContainerState
from georep.shipping import BATCH_HEADER_BYTES, ReplicationSource, Trigger

from conftest import make_group, make_update

A = ContainerId("a", "fam")
B = ContainerId("b", "fam")
C = ContainerId("c", "fam")


def source_with(bound, **kwargs):
    return ReplicationSource(source=1, peer=2, default_bound=bound, **kwargs)


class TestOffer:
    def test_count_bound_ships_on_the_nth_update(self):
        src = source_with(Bound(pending=3))
        results = [src.offer(make_update(key=f"k{i}"), now=i) for i in range(3)]
        assert results[:2] == [None, None]
        batch = results[2]
        assert batch is not None
        assert len(batch.updates) == 3
        assert batch.trigger is Trigger.COUNT

    def test_peer_origin_dropped(self):
        src = source_with(Bound())
        assert src.offer(make_update(origin=2), now=0) is None
        assert src.cache.total_pending_count == 0

    def test_immediate_bound_ships_every_update_alone(self):
        src = source_with(Bound())
        for i in range(4):
            batch = src.offer(make_update(key=f"k{i}"), now=i)
            assert batch is not None
            assert len(batch.updates) == 1
            assert batch.trigger is Trigger.COUNT

    def test_drift_bound_ships_with_delta_trigger(self):
        src = source_with(Bound(drift=10))
        assert src.offer(make_update(key="k", value=b"100"), now=0) is None
        # No shipped history yet, so drain by hand to set the baseline.
        drained = src.final_drain(now=0)
        assert len(drained) == 1
        batch = src.offer(make_update(key="k", value=b"111"), now=1)
        assert batch is not None
        assert batch.trigger is Trigger.DELTA

    def test_count_beats_drift_when_both_trip(self):
        src = source_with(Bound(pending=2, drift=10))
        src.offer(make_update(key="k", value=b"0"), now=0)
        src.final_drain(now=0)  # baseline value 0 shipped
        src.offer(make_update(key="k", value=b"5"), now=1)  # below drift
        batch = src.offer(make_update(key="k", value=b"99"), now=2)
        assert batch is not None
        assert batch.trigger is Trigger.COUNT

    def test_time_beats_drift_when_both_trip(self):
        src = source_with(Bound(lag_ms=100, drift=5))
        src.offer(make_update(key="k", value=b"0"), now=0)
        src.final_drain(now=10)  # baseline value 0 shipped at t = 10
        batch = src.offer(make_update(key="k", value=b"50"), now=110)
        assert batch is not None
        assert batch.trigger is Trigger.TIME

    def test_count_beats_time_when_both_trip(self):
        src = source_with(Bound(lag_ms=100, pending=2))
        assert src.offer(make_update(key="k1"), now=0) is None
        batch = src.offer(make_update(key="k2"), now=150)
        assert batch is not None
        assert batch.trigger is Trigger.COUNT
        assert len(batch.updates) == 2

    def test_counter_resets_with_every_shipment(self):
        src = source_with(Bound(pending=3))
        for i in range(7):
            src.offer(make_update(container=A, key=f"k{i}"), now=i)
        assert src.cache.pending_count(A) == 7 % 3

    def test_plain_mode_never_ships_on_offer(self):
        src = source_with(Bound(), mode="plain")
        for i in range(10):
            assert src.offer(make_update(key=f"k{i}"), now=i) is None
        assert src.cache.total_pending_count == 10

    def test_batch_total_bytes_accounts_header(self):
        src = source_with(Bound(pending=2))
        # A non-ASCII key counts in UTF-8 bytes here as in size_bytes.
        u1, u2 = make_update(key="k1"), make_update(key="ké", value=b"xyz")
        src.offer(u1, now=0)
        batch = src.offer(u2, now=1)
        assert batch.total_bytes == BATCH_HEADER_BYTES + u1.size_bytes + u2.size_bytes


class TestTick:
    def test_lag_expired_container_ships_on_tick(self):
        src = source_with(Bound(lag_ms=1000))
        src.offer(make_update(key="k1"), now=100)
        src.offer(make_update(key="k2"), now=200)
        assert src.tick(now=900) == []
        batches = src.tick(now=1200)
        assert len(batches) == 1
        assert len(batches[0].updates) == 2
        assert batches[0].trigger is Trigger.TIME

    def test_nothing_pending_ships_nothing(self):
        src = source_with(Bound(lag_ms=100))
        assert src.tick(now=10**6) == []

    def test_overdue_containers_drain_in_name_order(self):
        src = source_with(Bound(lag_ms=100))
        src.offer(make_update(container=B, key="kb"), now=0)
        src.offer(make_update(container=A, key="ka"), now=0)
        batches = src.tick(now=500)
        assert [b.updates[0].container for b in batches] == [A, B]

    def test_overdue_containers_drain_in_text_order(self):
        # Tuple order puts ("a", "z") first; the text "a-b:c" sorts
        # before "a:z", since "-" sorts before ":".
        az, abc = ContainerId("a", "z"), ContainerId("a-b", "c")
        src = source_with(Bound(lag_ms=100))
        src.offer(make_update(container=az, key="k1"), now=0)
        src.offer(make_update(container=abc, key="k2"), now=0)
        batches = src.tick(now=100)
        assert [b.trigger for b in batches] == [Trigger.TIME, Trigger.TIME]
        assert [b.updates[0].container for b in batches] == [abc, az]

    def test_plain_mode_tick_ships_everything(self):
        src = source_with(Bound(), mode="plain")
        src.offer(make_update(container=A, key="x"), now=0)
        src.offer(make_update(container=B, key="y"), now=0)
        batches = src.tick(now=1000)
        assert len(batches) == 2
        assert all(b.trigger is Trigger.TIME for b in batches)
        assert src.cache.total_pending_count == 0

    def test_plain_tick_ships_a_block_across_two_containers_once(self):
        # Draining A pulls B's member and empties B's queue before the
        # loop reaches B, which must then ship nothing.
        src = source_with(Bound(), mode="plain")
        group = make_group(A, B)
        members = [make_update(container=cid, key=f"m{cid}", block=group) for cid in (A, B)]
        assert src.offer_group(members, now=0) is None
        batches = src.tick(now=100)
        assert [[u.key for u in b.updates] for b in batches] == [[f"m{A}", f"m{B}"]]


class TestFinalDrain:
    def test_stragglers_ship_as_one_batch(self):
        src = source_with(Bound(pending=100))
        for i in range(7):
            src.offer(make_update(key=f"k{i}"), now=i)
        batches = src.final_drain(now=50)
        assert len(batches) == 1
        assert len(batches[0].updates) == 7
        assert batches[0].trigger is Trigger.FINAL_DRAIN

    def test_empty_cache_yields_nothing(self):
        assert source_with(Bound(pending=5)).final_drain(now=0) == []

    def test_pending_group_ships_whole(self):
        # Draining A pulls B's members, so B ships no second, empty batch.
        src = source_with(Bound(pending=100))
        group = make_group(A, B)
        members = [make_update(container=[A, B][i % 2], key=f"m{i}", block=group)
                   for i in range(4)]
        assert src.offer_group(members, now=0) is None
        batches = src.final_drain(now=10)
        assert [sorted(u.key for u in b.updates) for b in batches] == [["m0", "m1", "m2", "m3"]]


class TestGroups:
    def test_group_below_bounds_held(self):
        src = source_with(Bound(pending=10))
        group = make_group(A)
        members = [make_update(container=A, key=f"m{i}", block=group) for i in range(3)]
        assert src.offer_group(members, now=0) is None
        assert src.cache.total_pending_count == 3

    def test_group_ships_when_a_member_trips(self):
        src = source_with(Bound(pending=3))
        group = make_group(A)
        members = [make_update(container=A, key=f"m{i}", block=group) for i in range(3)]
        batch = src.offer_group(members, now=0)
        assert batch is not None
        assert len(batch.updates) == 3
        assert batch.trigger is Trigger.ANY_BLOCK

    def test_group_counts_before_deciding(self):
        # Every member is enqueued and counted before any shipping choice,
        # so the batch holds the whole group even if an early member trips.
        src = source_with(Bound(pending=2))
        group = make_group(A)
        members = [make_update(container=A, key=f"m{i}", block=group) for i in range(5)]
        batch = src.offer_group(members, now=0)
        assert batch is not None
        assert len(batch.updates) == 5

    def test_group_evaluates_members_after_the_first_trip(self):
        src = source_with(Bound(pending=2))
        src.offer(make_update(container=A, key="warm"), now=0)
        group = make_group(A, B, C)
        members = [make_update(container=A, key="x", block=group),
                   make_update(container=B, key="y", block=group),
                   make_update(container=C, key="z", block=group)]
        with mock.patch.object(ContainerState, "should_ship", autospec=True,
                               side_effect=ContainerState.should_ship) as rule:
            batch = src.offer_group(members, now=5)
        # A's member trips first; B's and C's are still evaluated.
        assert [call.args[1].key for call in rule.call_args_list] == ["x", "y", "z"]
        assert batch.trigger is Trigger.ANY_BLOCK
        assert len(batch.updates) == 4

    def test_immediate_group_ships_at_once(self):
        src = source_with(Bound(pending=10**6))
        group = make_group(A, B)
        members = [make_update(container=A, key="x", block=group),
                   make_update(container=B, key="y", block=group)]
        batch = src.ship_group_now(members, now=5)
        assert batch is not None
        assert batch.trigger is Trigger.IMMEDIATE_BLOCK
        assert len(batch.updates) == 2

    def test_group_shipment_resets_all_involved_counters(self):
        src = source_with(Bound(pending=10))
        src.offer(make_update(container=A, key="warm"), now=0)
        group = make_group(A, B)
        members = [make_update(container=A, key="x", block=group),
                   make_update(container=B, key="y", block=group)]
        src.ship_group_now(members, now=5)
        assert src.cache.pending_count(A) == 0
        assert src.cache.pending_count(B) == 0

    def test_group_from_peer_origin_fully_dropped(self):
        src = source_with(Bound(pending=1))
        members = [make_update(container=A, key="x", block=make_group(A), origin=2)]
        assert src.offer_group(members, now=0) is None
        assert src.cache.total_pending_count == 0


# Each helper drives one entry point and returns every batch it returned.
def offer_each(src):
    return [b for i in range(8)
            if (b := src.offer(make_update(container=[A, B][i % 2], key=f"k{i}"), now=i))]


def offer_groups(src):
    batches = []
    for now in (1, 2, 3):
        group = make_group(A, B)
        members = [make_update(container=cid, key=f"g{now}{cid}", block=group) for cid in (A, B)]
        if batch := src.offer_group(members, now=now):
            batches.append(batch)
    return batches


def ship_groups_now(src):
    return [src.ship_group_now([make_update(container=A, key=f"g{now}", block=make_group(A))],
                               now=now) for now in (1, 2)]


def tick_after(src):
    for i, cid in enumerate((B, A, C)):
        src.offer(make_update(container=cid, key=f"t{i}"), now=0)
    return src.tick(now=50) + src.tick(now=100)


def drain_after(src):
    for i, cid in enumerate((B, A, A)):
        src.offer(make_update(container=cid, key=f"d{i}"), now=0)
    return src.final_drain(now=10) + src.final_drain(now=20)


class TestOnShip:
    """A source hands every batch it cuts to ``on_ship`` exactly once,
    and the batch an entry point returns is the very object handed over."""

    @pytest.mark.parametrize("bound, mode, cut, trigger, batches", [
        (Bound(pending=2), "bounded", offer_each, Trigger.COUNT, 4),
        (Bound(pending=3), "bounded", offer_groups, Trigger.ANY_BLOCK, 1),
        (Bound(pending=10), "bounded", ship_groups_now, Trigger.IMMEDIATE_BLOCK, 2),
        (Bound(), "plain", ship_groups_now, Trigger.IMMEDIATE_BLOCK, 2),
        (Bound(lag_ms=100), "bounded", tick_after, Trigger.TIME, 3),
        (Bound(), "plain", tick_after, Trigger.TIME, 3),
        (Bound(pending=10), "bounded", drain_after, Trigger.FINAL_DRAIN, 2),
    ], ids=["offer", "offer_group", "ship_group_now", "ship_group_now-plain",
            "tick-bounded", "tick-plain", "final_drain"])
    def test_every_cut_batch_is_handed_over_once(self, bound, mode, cut, trigger, batches):
        shipped = []
        src = source_with(bound, mode=mode, on_ship=shipped.append)
        returned = cut(src)
        assert len(returned) == batches
        assert [b.trigger for b in returned] == [trigger] * batches
        assert len(shipped) == len(returned)
        assert all(s is r for s, r in zip(shipped, returned))
        assert src.cache.total_pending_count == 0

    def test_a_source_that_cuts_nothing_hands_over_nothing(self):
        shipped = []
        src = source_with(Bound(pending=10), on_ship=shipped.append)
        src.offer(make_update(key="held"), now=0)
        src.offer(make_update(key="echo", origin=2), now=0)
        src.offer_group([make_update(container=B, key="peer", block=make_group(B), origin=2)],
                        now=0)
        assert src.tick(now=10**6) == [] and shipped == []


class TestAcknowledge:
    def test_high_water_marks_advance(self):
        src = source_with(Bound(pending=2))
        src.offer(make_update(key="k1", origin=1, seq=11), now=0)
        batch = src.offer(make_update(key="k2", origin=1, seq=12), now=1)
        src.acknowledge(batch)
        assert src.shipped_position[1] == 12

    def test_marks_never_regress(self):
        src = source_with(Bound())
        first = src.offer(make_update(key="a", origin=1, seq=20), now=0)
        second = src.offer(make_update(key="b", origin=1, seq=21), now=1)
        src.acknowledge(second)
        src.acknowledge(first)
        assert src.shipped_position[1] == 21


class TestBatchSizeInvariant:
    def test_count_batches_are_exact_with_final_remainder(self):
        # 1003 arrivals against a bound of 100: ten full batches, then
        # the final drain carries the 3 left over.
        src = source_with(Bound(pending=100))
        count_batches = []
        for i in range(1003):
            batch = src.offer(make_update(key=f"k{i}"), now=i)
            if batch is not None:
                count_batches.append(batch)
        assert len(count_batches) == 10
        assert all(len(b.updates) == 100 for b in count_batches)
        assert all(b.trigger is Trigger.COUNT for b in count_batches)
        tail = src.final_drain(now=2000)
        assert len(tail) == 1
        assert len(tail[0].updates) == 3


class TestTimerWork:
    def test_no_lag_bound_means_no_timer_work(self):
        src = source_with(Bound(pending=100))
        src.offer(make_update(key="k"), now=0)
        assert not src.has_timer_work()

    def test_lag_bound_with_backlog_needs_timer(self):
        src = source_with(Bound(lag_ms=500))
        src.offer(make_update(key="k"), now=0)
        assert src.has_timer_work()

    def test_plain_mode_with_backlog_needs_timer(self):
        src = source_with(Bound(), mode="plain")
        src.offer(make_update(key="k"), now=0)
        assert src.has_timer_work()

    def test_empty_cache_never_needs_timer(self):
        assert not source_with(Bound(lag_ms=500)).has_timer_work()

    @pytest.mark.parametrize("default, bounds, mode, timed", [
        (Bound(), {}, "plain", True),
        (Bound(lag_ms=500), {}, "bounded", True),
        (Bound(pending=5), {A: Bound(lag_ms=300)}, "bounded", True),
        (Bound(pending=5), {A: Bound(drift=2.0)}, "bounded", False),
        (Bound(drift=1.0), {A: Bound(pending=3)}, "bounded", False),
    ], ids=["plain", "default-lag", "container-lag", "pending-only", "drift-only"])
    def test_only_a_plain_poll_or_a_lag_makes_a_source_timed(self, default, bounds, mode,
                                                             timed):
        src = ReplicationSource(source=1, peer=2, bounds=bounds, default_bound=default,
                                mode=mode)
        assert src.timed is timed

    def test_a_container_lag_needs_the_timer_under_a_lagless_default(self):
        src = ReplicationSource(source=1, peer=2, bounds={A: Bound(lag_ms=300)},
                                default_bound=Bound(pending=5))
        src.offer(make_update(container=B, key="k"), now=0)
        assert not src.has_timer_work()
        src.offer(make_update(container=A, key="k"), now=0)
        assert src.has_timer_work()
        assert [b.trigger for b in src.tick(300)] == [Trigger.TIME]
        assert src.cache.pending_count(A) == 0 and src.cache.pending_count(B) == 1


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        ReplicationSource(source=1, peer=2, mode="turbo")


def test_conservation_across_triggers():
    """Offered non-echo update count equals the count shipped overall."""
    src = source_with(Bound(pending=7))
    shipped = 0
    offered = 0
    for i in range(100):
        u = make_update(key=f"k{i}", origin=2 if i % 10 == 0 else 1)
        offered += u.origin != 2
        batch = src.offer(u, now=i)
        if batch is not None:
            shipped += len(batch.updates)
    for batch in src.final_drain(now=1000):
        shipped += len(batch.updates)
    assert shipped == offered
