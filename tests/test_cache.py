"""Pending-update cache: queuing, block closure, conservation."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georep.bounds import ContainerId
from georep.cache import PendingCache
from georep.errors import ProtocolError

from conftest import make_group, make_update

A = ContainerId("a", "fam")
B = ContainerId("b", "fam")
C = ContainerId("c", "fam")


def test_enqueue_tracks_bytes_and_length():
    cache = PendingCache(origin=1)
    u = make_update(key="key", value=b"x" * 83)  # 3 + 83 + 34 = 120
    cache.enqueue(u)
    assert [q.size_bytes for q in cache.containers[u.container].queue] == [120]
    assert cache.pending_count(u.container) == 1
    assert cache.total_pending_count == 1


def test_same_key_retained_in_arrival_order():
    # Every write to a key stays queued: batch sizes equal arrival counts.
    cache = PendingCache(origin=1)
    first = make_update(key="k", value=b"old", container=A)
    second = make_update(key="k", value=b"new", container=A)
    cache.enqueue(first)
    cache.enqueue(second)
    assert cache.drain([A], now=0) == [first, second]


def test_drain_visits_only_the_containers_its_groups_list():
    # C holds a loose update and is no group's container: a drain of A
    # pulls the group's member from B and never looks in C.
    cache = PendingCache(origin=1)
    group = make_group(A, B)
    for u in (make_update(container=A, key="x", block=group),
              make_update(container=B, key="y", block=group),
              make_update(container=C, key="z")):
        cache.enqueue(u)
    with mock.patch.object(PendingCache, "_take_block_members", autospec=True,
                           side_effect=PendingCache._take_block_members) as pull:
        assert [u.key for u in cache.drain([A], now=0)] == ["x", "y"]
    assert [call.args[1] for call in pull.call_args_list] == [B]
    assert [u.key for u in cache.containers[C].queue] == ["z"]


def test_a_group_container_the_cache_never_saw_is_skipped():
    # At a relay a group may list containers whose members were stale
    # there and never enqueued.
    cache = PendingCache(origin=2)
    group = make_group(A, B, C)
    member = make_update(container=A, block=group, origin=1)
    cache.enqueue(member)
    assert cache.drain([A], now=0) == [member]
    assert list(cache.containers) == [A]


@pytest.mark.parametrize("name", ["containers", "total_pending_count", "_seen"])
def test_internal_state_is_not_a_constructor_option(name):
    with pytest.raises(TypeError, match=name):
        PendingCache(origin=1, **{name: None})


def test_duplicate_identity_rejected():
    cache = PendingCache(origin=1)
    cache.enqueue(make_update(origin=1, seq=100))
    with pytest.raises(ProtocolError, match=r"duplicate enqueue of update \(1, 100\)"):
        cache.enqueue(make_update(origin=1, seq=100))


def test_drain_takes_whole_queue():
    cache = PendingCache(origin=1)
    updates = [make_update(container=A, key=f"k{i}") for i in range(3)]
    for u in updates:
        cache.enqueue(u)
    assert cache.drain([A], now=0) == updates
    assert cache.pending_count(A) == 0
    assert cache.total_pending_count == 0


def test_drain_pulls_block_siblings_from_other_containers():
    # A group never splits: draining one member container takes the rest.
    cache = PendingCache(origin=1)
    group = make_group(A, B)
    in_a = make_update(container=A, key="x", block=group, origin=2)
    in_b = make_update(container=B, key="y", block=group, origin=2)
    loose = make_update(container=B, key="z", origin=2)
    for u in (in_a, in_b, loose):
        cache.enqueue(u)
    drained = cache.drain([A], now=0)
    assert drained == [in_a, in_b]
    assert cache.drain([B], now=0) == [loose]


def test_repeated_id_drains_like_a_single_one():
    def filled():
        cache, group = PendingCache(origin=2), make_group(A, B)
        for u in (make_update(container=A, key="x", origin=1, seq=1),
                  make_update(container=A, key="y", block=group, origin=1, seq=2),
                  make_update(container=B, key="z", block=group, origin=1, seq=3),
                  make_update(container=B, key="w", origin=1, seq=4)):
            cache.enqueue(u)
        return cache

    once, twice = filled(), filled()
    assert [u.key for u in twice.drain([A, A], now=0)] \
        == [u.key for u in once.drain([A], now=0)] == ["x", "y", "z"]
    assert twice.containers == once.containers
    assert twice.total_pending_count == once.total_pending_count == 1


def test_drain_empty_container_is_noop():
    cache = PendingCache(origin=1)
    assert cache.drain([A], now=0) == []
    assert cache.total_pending_count == 0


def test_pending_count_lifecycle():
    cache = PendingCache(origin=1)
    cache.enqueue(make_update(container=A, key="1"))
    cache.enqueue(make_update(container=A, key="2"))
    assert cache.pending_count(A) == 2
    cache.drain([A], now=0)
    assert cache.pending_count(A) == 0
    assert cache.pending_count(ContainerId("never", "seen")) == 0


def test_peak_pending_tracks_high_water_mark():
    cache = PendingCache(origin=1)
    for i in range(4):
        cache.enqueue(make_update(container=A, key=f"k{i}"))
    cache.drain([A], now=0)
    cache.enqueue(make_update(container=A, key="again"))
    assert cache.peaks()[A] == 4


puts = st.tuples(st.just("put"), st.sampled_from("abc"), st.sampled_from([None, None, 1, 2, 3]))
drains = st.tuples(st.just("drain"), st.lists(st.sampled_from("abc"), min_size=1, max_size=3))


@given(st.lists(st.one_of(puts, puts, drains), max_size=80))
@settings(max_examples=200, deadline=None)
def test_peaks_match_the_length_after_every_enqueue(script):
    """Peaks taken at drain time equal a model that records each queue's
    length after every enqueue, with block-member pulls from containers
    not drained."""
    cache = PendingCache(origin=1)
    # Each group may write any of the three containers, so it lists all.
    groups = {b: make_group(*(ContainerId(t, "fam") for t in "abc")) for b in (1, 2, 3)}
    model: dict[ContainerId, int] = {}
    seq = 0
    for step in script:
        if step[0] == "put":
            _, table, block = step
            cid = ContainerId(table, "fam")
            seq += 1
            cache.enqueue(make_update(container=cid, block=groups.get(block), origin=1, seq=seq))
            model[cid] = max(model.get(cid, 0), len(cache.containers[cid].queue))
        else:
            cache.drain([ContainerId(table, "fam") for table in step[1]], now=0)
        assert cache.peaks() == model


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.booleans()), max_size=60))
@settings(max_examples=50, deadline=None)
def test_conservation_under_random_traffic(script):
    """enqueued == drained + pending, by count and by bytes."""
    cache = PendingCache(origin=1)
    seq = 0
    enqueued = drained = 0
    enqueued_bytes = drained_bytes = 0
    for table, do_drain in script:
        cid = ContainerId(table, "fam")
        if do_drain:
            out = cache.drain([cid], now=0)
            drained += len(out)
            drained_bytes += sum(u.size_bytes for u in out)
        else:
            seq += 1
            u = make_update(container=cid, key=f"k{seq % 5}", origin=9, seq=seq)
            cache.enqueue(u)
            enqueued += 1
            enqueued_bytes += u.size_bytes
        assert cache.total_pending_count == enqueued - drained
        pending_bytes = sum(u.size_bytes for state in cache.containers.values()
                            for u in state.queue)
        assert pending_bytes == enqueued_bytes - drained_bytes


def test_order_preserved_within_container():
    cache = PendingCache(origin=1)
    updates = [make_update(container=A, key=f"k{i}", origin=3, seq=i + 1)
               for i in range(10)]
    for u in updates:
        cache.enqueue(u)
    out = cache.drain([A], now=0)
    assert [u.seq for u in out] == sorted(u.seq for u in out)


def test_no_partial_block_ever_drains():
    cache, group = PendingCache(origin=1), make_group(A, B)
    members = [make_update(container=[A, B][i % 2], key=f"m{i}", block=group, origin=4)
               for i in range(6)]
    for u in members:
        cache.enqueue(u)
    out = cache.drain([B], now=0)
    assert len(out) == 6
    assert cache.total_pending_count == 0
    assert [state.queue for state in cache.containers.values()] == [[], []]


def test_members_pulled_from_one_container_keep_arrival_order():
    # B holds members of blocks 1 and 2, block 2's first; draining A
    # touches block 1 before block 2, yet B's members leave in B's order.
    cache = PendingCache(origin=1)
    first, second = make_group(B, A), make_group(B, A)
    for u in [make_update(container=B, key="b2", block=second, origin=5, seq=1),
              make_update(container=B, key="b1", block=first, origin=5, seq=2),
              make_update(container=B, key="loose", origin=5, seq=3),
              make_update(container=A, key="a1", block=first, origin=5, seq=4),
              make_update(container=A, key="a2", block=second, origin=5, seq=5)]:
        cache.enqueue(u)
    out = cache.drain([A], now=0)
    assert [u.key for u in out] == ["a1", "a2", "b2", "b1"]
    assert [u.key for u in cache.containers[B].queue] == ["loose"]
    assert cache.total_pending_count == 1
