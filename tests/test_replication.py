"""Per-peer shipping: bound triggers, ticks, drains, batch accounting."""

from unittest import mock

import pytest

from georep.bounds import Bound, ContainerId, ContainerState
from georep.shipping import BATCH_HEADER_BYTES, UPDATE_OVERHEAD_BYTES, ReplicationSource, Trigger

from conftest import held_back, make_group, make_update

A = ContainerId("a", "fam")
B = ContainerId("b", "fam")
C = ContainerId("c", "fam")


def source_with(bound, **kwargs):
    """A source to peer 2 and the list its ``on_ship`` appends to."""
    shipped = []
    src = ReplicationSource(source=1, peer=2, default_bound=bound, on_ship=shipped.append,
                            **kwargs)
    return src, shipped


class TestOffer:
    def test_count_bound_ships_on_the_nth_update(self):
        src, shipped = source_with(Bound(pending=3))
        for i in range(2):
            src.offer(make_update(key=f"k{i}"), now=i)
        assert shipped == []
        src.offer(make_update(key="k2"), now=2)
        [batch] = shipped
        assert len(batch.updates) == 3
        assert batch.trigger is Trigger.COUNT

    def test_peer_origin_dropped(self):
        src, shipped = source_with(Bound())
        src.offer(make_update(origin=2), now=0)
        assert shipped == []
        assert src.cache.total_pending_count == 0

    def test_immediate_bound_ships_every_update_alone(self):
        src, shipped = source_with(Bound())
        for i in range(4):
            src.offer(make_update(key=f"k{i}"), now=i)
            assert len(shipped) == i + 1
            assert len(shipped[-1].updates) == 1
            assert shipped[-1].trigger is Trigger.COUNT

    def test_drift_bound_ships_with_delta_trigger(self):
        src, shipped = source_with(Bound(drift=10))
        src.offer(make_update(key="k", value=b"100"), now=0)
        assert shipped == []
        # No shipped history yet, so drain by hand to set the baseline.
        src.final_drain(now=0)
        assert len(shipped) == 1
        src.offer(make_update(key="k", value=b"111"), now=1)
        assert [b.trigger for b in shipped[1:]] == [Trigger.DELTA]

    def test_count_beats_drift_when_both_trip(self):
        src, shipped = source_with(Bound(pending=2, drift=10))
        src.offer(make_update(key="k", value=b"0"), now=0)
        src.final_drain(now=0)  # baseline value 0 shipped
        src.offer(make_update(key="k", value=b"5"), now=1)  # below drift
        src.offer(make_update(key="k", value=b"99"), now=2)
        assert [b.trigger for b in shipped[1:]] == [Trigger.COUNT]

    def test_time_beats_drift_when_both_trip(self):
        src, shipped = source_with(Bound(lag_ms=100, drift=5))
        src.offer(make_update(key="k", value=b"0"), now=0)
        src.final_drain(now=10)  # baseline value 0 shipped at t = 10
        src.offer(make_update(key="k", value=b"50"), now=110)
        assert [b.trigger for b in shipped[1:]] == [Trigger.TIME]

    def test_count_beats_time_when_both_trip(self):
        src, shipped = source_with(Bound(lag_ms=100, pending=2))
        src.offer(make_update(key="k1"), now=0)
        assert shipped == []
        src.offer(make_update(key="k2"), now=150)
        [batch] = shipped
        assert batch.trigger is Trigger.COUNT
        assert len(batch.updates) == 2

    def test_counter_resets_with_every_shipment(self):
        src, _ = source_with(Bound(pending=3))
        for i in range(7):
            src.offer(make_update(container=A, key=f"k{i}"), now=i)
        assert held_back(src.cache, A) == 7 % 3

    def test_plain_mode_never_ships_on_offer(self):
        src, shipped = source_with(Bound(), mode="plain")
        for i in range(10):
            src.offer(make_update(key=f"k{i}"), now=i)
        assert shipped == []
        assert src.cache.total_pending_count == 10

    def test_batch_total_bytes_accounts_header(self):
        src, shipped = source_with(Bound(pending=2))
        # A non-ASCII key counts in UTF-8 bytes: "ké" is 3.
        u1, u2 = make_update(key="k1"), make_update(key="ké", value=b"xyz")
        src.offer(u1, now=0)
        src.offer(u2, now=1)
        [batch] = shipped
        assert batch.total_bytes == \
            BATCH_HEADER_BYTES + 2 * UPDATE_OVERHEAD_BYTES + (2 + 1) + (3 + 3)


class TestTick:
    def test_lag_expired_container_ships_on_tick(self):
        src, shipped = source_with(Bound(lag_ms=1000))
        src.offer(make_update(key="k1"), now=100)
        src.offer(make_update(key="k2"), now=200)
        src.tick(now=900)
        assert shipped == []
        src.tick(now=1200)
        [batch] = shipped
        assert len(batch.updates) == 2
        assert batch.trigger is Trigger.TIME

    def test_nothing_pending_ships_nothing(self):
        src, shipped = source_with(Bound(lag_ms=100))
        src.tick(now=10**6)
        assert shipped == []

    def test_overdue_containers_drain_in_name_order(self):
        src, shipped = source_with(Bound(lag_ms=100))
        src.offer(make_update(container=B, key="kb"), now=0)
        src.offer(make_update(container=A, key="ka"), now=0)
        src.tick(now=500)
        assert [b.updates[0].container for b in shipped] == [A, B]

    def test_overdue_containers_drain_in_text_order(self):
        # Tuple order puts ("a", "z") first; the text "a-b:c" sorts
        # before "a:z", since "-" sorts before ":".
        az, abc = ContainerId("a", "z"), ContainerId("a-b", "c")
        src, shipped = source_with(Bound(lag_ms=100))
        src.offer(make_update(container=az, key="k1"), now=0)
        src.offer(make_update(container=abc, key="k2"), now=0)
        src.tick(now=100)
        assert [b.trigger for b in shipped] == [Trigger.TIME, Trigger.TIME]
        assert [b.updates[0].container for b in shipped] == [abc, az]

    def test_plain_mode_tick_ships_everything(self):
        src, shipped = source_with(Bound(), mode="plain")
        src.offer(make_update(container=A, key="x"), now=0)
        src.offer(make_update(container=B, key="y"), now=0)
        src.tick(now=1000)
        assert len(shipped) == 2
        assert all(b.trigger is Trigger.TIME for b in shipped)
        assert src.cache.total_pending_count == 0

    def test_plain_tick_ships_a_block_across_two_containers_once(self):
        # Draining A pulls B's member and empties B's queue before the
        # loop reaches B, which must then ship nothing.
        src, shipped = source_with(Bound(), mode="plain")
        group = make_group(A, B)
        members = [make_update(container=cid, key=f"m{cid}", block=group) for cid in (A, B)]
        src.offer_group(members, now=0)
        assert shipped == []
        src.tick(now=100)
        assert [[u.key for u in b.updates] for b in shipped] == [[f"m{A}", f"m{B}"]]


class TestFinalDrain:
    def test_stragglers_ship_as_one_batch(self):
        src, shipped = source_with(Bound(pending=100))
        for i in range(7):
            src.offer(make_update(key=f"k{i}"), now=i)
        src.final_drain(now=50)
        [batch] = shipped
        assert len(batch.updates) == 7
        assert batch.trigger is Trigger.FINAL_DRAIN

    def test_empty_cache_yields_nothing(self):
        src, shipped = source_with(Bound(pending=5))
        src.final_drain(now=0)
        assert shipped == []

    def test_pending_group_ships_whole(self):
        # Draining A pulls B's members, so B ships no second, empty batch.
        src, shipped = source_with(Bound(pending=100))
        group = make_group(A, B)
        members = [make_update(container=[A, B][i % 2], key=f"m{i}", block=group)
                   for i in range(4)]
        src.offer_group(members, now=0)
        assert shipped == []
        src.final_drain(now=10)
        assert [sorted(u.key for u in b.updates) for b in shipped] == [["m0", "m1", "m2", "m3"]]


class TestGroups:
    def test_group_below_bounds_held(self):
        src, shipped = source_with(Bound(pending=10))
        group = make_group(A)
        members = [make_update(container=A, key=f"m{i}", block=group) for i in range(3)]
        src.offer_group(members, now=0)
        assert shipped == []
        assert src.cache.total_pending_count == 3

    def test_group_ships_when_a_member_trips(self):
        src, shipped = source_with(Bound(pending=3))
        group = make_group(A)
        members = [make_update(container=A, key=f"m{i}", block=group) for i in range(3)]
        src.offer_group(members, now=0)
        [batch] = shipped
        assert len(batch.updates) == 3
        assert batch.trigger is Trigger.ANY_BLOCK

    def test_group_counts_before_deciding(self):
        # Every member is enqueued and counted before any shipping choice,
        # so the batch holds the whole group even if an early member trips.
        src, shipped = source_with(Bound(pending=2))
        group = make_group(A)
        members = [make_update(container=A, key=f"m{i}", block=group) for i in range(5)]
        src.offer_group(members, now=0)
        [batch] = shipped
        assert len(batch.updates) == 5

    def test_group_evaluates_members_after_the_first_trip(self):
        src, shipped = source_with(Bound(pending=2))
        src.offer(make_update(container=A, key="warm"), now=0)
        group = make_group(A, B, C)
        members = [make_update(container=A, key="x", block=group),
                   make_update(container=B, key="y", block=group),
                   make_update(container=C, key="z", block=group)]
        with mock.patch.object(ContainerState, "should_ship", autospec=True,
                               side_effect=ContainerState.should_ship) as rule:
            src.offer_group(members, now=5)
        # A's member trips first; B's and C's are still evaluated.
        assert [call.args[1].key for call in rule.call_args_list] == ["x", "y", "z"]
        [batch] = shipped
        assert batch.trigger is Trigger.ANY_BLOCK
        assert len(batch.updates) == 4

    def test_immediate_group_ships_at_once(self):
        src, shipped = source_with(Bound(pending=10**6))
        group = make_group(A, B)
        members = [make_update(container=A, key="x", block=group),
                   make_update(container=B, key="y", block=group)]
        src.ship_group_now(members, now=5)
        [batch] = shipped
        assert batch.trigger is Trigger.IMMEDIATE_BLOCK
        assert len(batch.updates) == 2

    def test_group_shipment_resets_all_involved_counters(self):
        src, _ = source_with(Bound(pending=10))
        src.offer(make_update(container=A, key="warm"), now=0)
        group = make_group(A, B)
        members = [make_update(container=A, key="x", block=group),
                   make_update(container=B, key="y", block=group)]
        src.ship_group_now(members, now=5)
        assert held_back(src.cache, A) == 0
        assert held_back(src.cache, B) == 0

    def test_group_from_peer_origin_fully_dropped(self):
        src, shipped = source_with(Bound(pending=1))
        members = [make_update(container=A, key="x", block=make_group(A), origin=2)]
        src.offer_group(members, now=0)
        assert shipped == []
        assert src.cache.total_pending_count == 0


# Each helper drives one entry point, so that the batches it cuts reach
# ``on_ship``, and returns what each of its calls returned.
def offer_each(src):
    return [src.offer(make_update(container=[A, B][i % 2], key=f"k{i}"), now=i)
            for i in range(8)]


def offer_groups(src):
    returned = []
    for now in (1, 2, 3):
        group = make_group(A, B)
        members = [make_update(container=cid, key=f"g{now}{cid}", block=group) for cid in (A, B)]
        returned.append(src.offer_group(members, now=now))
    return returned


def ship_groups_now(src):
    return [src.ship_group_now([make_update(container=A, key=f"g{now}", block=make_group(A))],
                               now=now) for now in (1, 2)]


def tick_after(src):
    for i, cid in enumerate((B, A, C)):
        src.offer(make_update(container=cid, key=f"t{i}"), now=0)
    return [src.tick(now=50), src.tick(now=100)]


def drain_after(src):
    for i, cid in enumerate((B, A, A)):
        src.offer(make_update(container=cid, key=f"d{i}"), now=0)
    return [src.final_drain(now=10), src.final_drain(now=20)]


CUTS = pytest.mark.parametrize("bound, mode, cut, trigger, batches", [
    (Bound(pending=2), "bounded", offer_each, Trigger.COUNT, 4),
    (Bound(pending=3), "bounded", offer_groups, Trigger.ANY_BLOCK, 1),
    (Bound(pending=10), "bounded", ship_groups_now, Trigger.IMMEDIATE_BLOCK, 2),
    (Bound(), "plain", ship_groups_now, Trigger.IMMEDIATE_BLOCK, 2),
    (Bound(lag_ms=100), "bounded", tick_after, Trigger.TIME, 3),
    (Bound(), "plain", tick_after, Trigger.TIME, 3),
    (Bound(pending=10), "bounded", drain_after, Trigger.FINAL_DRAIN, 2),
], ids=["offer", "offer_group", "ship_group_now", "ship_group_now-plain",
        "tick-bounded", "tick-plain", "final_drain"])


class TestOnShip:
    """A source hands every batch it cuts to ``on_ship`` exactly once,
    and no entry point returns a batch: ``on_ship`` is its one output."""

    @CUTS
    def test_every_cut_batch_is_handed_over_once(self, bound, mode, cut, trigger, batches):
        src, shipped = source_with(bound, mode=mode)
        cut(src)
        assert [b.trigger for b in shipped] == [trigger] * batches
        assert len({id(b) for b in shipped}) == batches
        assert src.cache.total_pending_count == 0

    @CUTS
    def test_every_entry_point_returns_none(self, bound, mode, cut, trigger, batches):
        src, shipped = source_with(bound, mode=mode)
        returned = cut(src)
        assert returned and all(r is None for r in returned)
        assert len(shipped) == batches

    def test_a_source_that_cuts_nothing_hands_over_nothing(self):
        src, shipped = source_with(Bound(pending=10))
        src.offer(make_update(key="held"), now=0)
        src.offer(make_update(key="echo", origin=2), now=0)
        src.offer_group([make_update(container=B, key="peer", block=make_group(B), origin=2)],
                        now=0)
        src.offer_group([], now=0)
        src.tick(now=10**6)
        assert shipped == []

    def test_a_source_needs_an_on_ship(self):
        with pytest.raises(TypeError, match="on_ship"):
            ReplicationSource(1, 2)


class TestLagClock:
    """Lag counts from the container's last shipment, and from t=0 for a
    container that has never shipped."""

    @pytest.mark.parametrize("now, ships", [(0, False), (999, False), (1000, True),
                                            (5000, True)])
    def test_a_first_update_ships_at_once_from_the_lag_on(self, now, ships):
        src, shipped = source_with(Bound(lag_ms=1000))
        src.offer(make_update(key="first"), now=now)
        if ships:
            [batch] = shipped
            assert batch.trigger is Trigger.TIME
            assert [u.key for u in batch.updates] == ["first"]
        else:
            assert shipped == []
            assert src.cache.total_pending_count == 1

    def test_an_arrival_after_an_idle_gap_ships_at_once(self):
        src, shipped = source_with(Bound(lag_ms=1000))
        src.offer(make_update(key="a"), now=100)
        src.tick(now=1000)  # the clock restarts at 1000
        src.offer(make_update(key="b"), now=1999)
        assert [[u.key for u in b.updates] for b in shipped] == [["a"]]
        src.tick(now=2000)  # and again at 2000
        src.offer(make_update(key="c"), now=3000)
        assert [[u.key for u in b.updates] for b in shipped] == [["a"], ["b"], ["c"]]
        assert [b.trigger for b in shipped] == [Trigger.TIME] * 3
        assert [b.created_ms for b in shipped] == [1000, 2000, 3000]


class TestBatchSizeInvariant:
    def test_count_batches_are_exact_with_final_remainder(self):
        # 1003 arrivals against a bound of 100: ten full batches, then
        # the final drain carries the 3 left over.
        src, shipped = source_with(Bound(pending=100))
        for i in range(1003):
            src.offer(make_update(key=f"k{i}"), now=i)
        assert len(shipped) == 10
        assert all(len(b.updates) == 100 for b in shipped)
        assert all(b.trigger is Trigger.COUNT for b in shipped)
        src.final_drain(now=2000)
        assert len(shipped) == 11
        assert len(shipped[10].updates) == 3


class TestTimerWork:
    def test_no_lag_bound_means_no_timer_work(self):
        src, _ = source_with(Bound(pending=100))
        src.offer(make_update(key="k"), now=0)
        assert not src.has_timer_work()

    def test_lag_bound_with_backlog_needs_timer(self):
        src, _ = source_with(Bound(lag_ms=500))
        src.offer(make_update(key="k"), now=0)
        assert src.has_timer_work()

    def test_plain_mode_with_backlog_needs_timer(self):
        src, _ = source_with(Bound(), mode="plain")
        src.offer(make_update(key="k"), now=0)
        assert src.has_timer_work()

    def test_empty_cache_never_needs_timer(self):
        src, _ = source_with(Bound(lag_ms=500))
        assert not src.has_timer_work()

    @pytest.mark.parametrize("default, bounds, mode, timed", [
        (Bound(), {}, "plain", True),
        (Bound(lag_ms=500), {}, "bounded", True),
        (Bound(pending=5), {A: Bound(lag_ms=300)}, "bounded", True),
        (Bound(pending=5), {A: Bound(drift=2.0)}, "bounded", False),
        (Bound(drift=1.0), {A: Bound(pending=3)}, "bounded", False),
    ], ids=["plain", "default-lag", "container-lag", "pending-only", "drift-only"])
    def test_only_a_plain_poll_or_a_lag_makes_a_source_timed(self, default, bounds, mode,
                                                             timed):
        src, _ = source_with(default, bounds=bounds, mode=mode)
        assert src.timed is timed

    def test_a_container_lag_needs_the_timer_under_a_lagless_default(self):
        src, shipped = source_with(Bound(pending=5), bounds={A: Bound(lag_ms=300)})
        src.offer(make_update(container=B, key="k"), now=0)
        assert not src.has_timer_work()
        src.offer(make_update(container=A, key="k"), now=0)
        assert src.has_timer_work()
        src.tick(300)
        assert [b.trigger for b in shipped] == [Trigger.TIME]
        assert held_back(src.cache, A) == 0 and held_back(src.cache, B) == 1


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        source_with(Bound(), mode="turbo")


def test_conservation_across_triggers():
    """Offered non-echo update count equals the count shipped overall."""
    src, shipped = source_with(Bound(pending=7))
    offered = 0
    for i in range(100):
        u = make_update(key=f"k{i}", origin=2 if i % 10 == 0 else 1)
        offered += u.origin != 2
        src.offer(u, now=i)
    src.final_drain(now=1000)
    assert sum(len(b.updates) for b in shipped) == offered
