"""Pending-update cache: queuing, block closure, conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georep.bounds import ContainerId
from georep.cache import PendingCache

from conftest import make_group, make_update, wire_bytes

A = ContainerId("a", "fam")
B = ContainerId("b", "fam")
C = ContainerId("c", "fam")


def test_enqueue_tracks_bytes_and_length():
    cache = PendingCache()
    u = make_update(key="key", value=b"x" * 83)  # 3 + 83 + 34 = 120
    cache.enqueue(u)
    assert wire_bytes(cache.containers[u.container].queue) == 120
    assert len(cache.containers[u.container].queue) == 1
    assert cache.total_pending_count == 1


def test_same_key_retained_in_arrival_order():
    # Every write to a key stays queued: batch sizes equal arrival counts.
    cache = PendingCache()
    first = make_update(key="k", value=b"old", container=A)
    second = make_update(key="k", value=b"new", container=A)
    cache.enqueue(first)
    cache.enqueue(second)
    assert cache.drain([A], now=0) == [first, second]


class Unreadable:
    """A queued item in C that fails the test if a drain reads its group."""

    container, origin, seq = C, 2, 1

    @property
    def block(self):
        raise AssertionError("the drain looked in C")


def test_drain_visits_only_the_containers_its_groups_list():
    # C is no group's container: a drain of A pulls the group's member
    # from B and never reads an item queued in C.
    cache = PendingCache()
    group = make_group(A, B)
    watched = Unreadable()
    for u in (make_update(container=A, key="x", block=group),
              make_update(container=B, key="y", block=group), watched):
        cache.enqueue(u)
    assert [u.key for u in cache.drain([A], now=0)] == ["x", "y"]
    assert cache.containers[C].queue == [watched]
    # The probe is live: a drain that does look in C trips it.
    with pytest.raises(AssertionError, match="looked in C"):
        cache.drain([C], now=0)


def test_a_group_container_the_cache_never_saw_is_skipped():
    # At a relay a group may list containers whose members were stale
    # there and never enqueued.
    cache = PendingCache()
    group = make_group(A, B, C)
    member = make_update(container=A, block=group, origin=1)
    cache.enqueue(member)
    assert cache.drain([A], now=0) == [member]
    assert list(cache.containers) == [A]


@pytest.mark.parametrize("name", ["containers", "total_pending_count"])
def test_internal_state_is_not_a_constructor_option(name):
    with pytest.raises(TypeError, match=name):
        PendingCache(**{name: None})


def test_drain_takes_whole_queue():
    cache = PendingCache()
    updates = [make_update(container=A, key=f"k{i}") for i in range(3)]
    for u in updates:
        cache.enqueue(u)
    assert cache.drain([A], now=0) == updates
    assert cache.containers[A].queue == []
    assert cache.total_pending_count == 0


def test_drain_pulls_block_siblings_from_other_containers():
    # A group never splits: draining one member container takes the rest.
    cache = PendingCache()
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
        cache, group = PendingCache(), make_group(A, B)
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
    cache = PendingCache()
    assert cache.drain([A], now=0) == []
    assert cache.total_pending_count == 0


def test_pending_count_lifecycle():
    cache = PendingCache()
    cache.enqueue(make_update(container=A, key="1"))
    cache.enqueue(make_update(container=A, key="2"))
    assert len(cache.containers[A].queue) == 2
    cache.drain([A], now=0)
    assert cache.containers[A].queue == []
    assert ContainerId("never", "seen") not in cache.containers


def test_peak_pending_tracks_high_water_mark():
    cache = PendingCache()
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
    cache = PendingCache()
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


def model_drain(log, held, cids):
    """The drain rule restated over the arrival ``log`` and the set of
    its indices still ``held``: the named containers' queues first, in
    the order named; then, for each other container that a touched
    group lists, that container's members of touched groups in arrival
    order.  Removes what it drains from ``held``."""
    def queue(cid):
        return [i for i in sorted(held) if log[i].container == cid]

    named = list(dict.fromkeys(cids))
    out = [i for cid in named for i in queue(cid)]
    touched = []
    for i in out:
        if log[i].block is not None and log[i].block not in touched:
            touched.append(log[i].block)
    others = []
    for group in touched:
        others += [cid for cid in group.containers if cid not in named + others]
    out += [i for cid in others for i in queue(cid) if log[i].block in touched]
    held.difference_update(out)
    return [log[i] for i in out]


DRAIN_CIDS = [ContainerId(t, "fam") for t in "abcd"]
# Each group lists one to four containers in any order; "d" may be
# listed yet never written, as at a relay that found the member stale.
group_lists = st.lists(st.sampled_from(DRAIN_CIDS), min_size=1, max_size=4, unique=True)
drain_puts = st.tuples(st.just("put"), st.integers(0, 3), st.sampled_from([None, 0, 1, 2]))
drain_calls = st.tuples(st.just("drain"),
                        st.lists(st.sampled_from(DRAIN_CIDS), min_size=1, max_size=3))


@given(st.lists(group_lists, min_size=3, max_size=3),
       st.lists(st.one_of(drain_puts, drain_puts, drain_puts, drain_calls),
                min_size=10, max_size=60))
@settings(max_examples=300, deadline=None)
def test_drain_matches_a_naive_model(lists, script):
    """Every drain returns exactly the model's list, and afterwards every
    queue holds exactly what the model still holds, in arrival order."""
    cache = PendingCache()
    groups = [make_group(*cids) for cids in lists]
    log, held = [], set()
    for step in script:
        if step[0] == "put":
            _, pick, block = step
            # A member writes only a container its group lists.
            choices = DRAIN_CIDS[:3] if block is None else groups[block].containers
            u = make_update(container=choices[pick % len(choices)], origin=1,
                            seq=len(log) + 1, block=None if block is None else groups[block])
            cache.enqueue(u)
            held.add(len(log))
            log.append(u)
        else:
            expected = model_drain(log, held, step[1])
            assert [id(u) for u in cache.drain(step[1], now=0)] == [id(u) for u in expected]
        for cid in DRAIN_CIDS:
            state = cache.containers.get(cid)
            assert [id(u) for u in (state.queue if state else [])] \
                == [id(log[i]) for i in sorted(held) if log[i].container == cid]
        assert cache.total_pending_count == len(held)


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.booleans()), max_size=60))
@settings(max_examples=50, deadline=None)
def test_conservation_under_random_traffic(script):
    """enqueued == drained + pending, by count and by bytes."""
    cache = PendingCache()
    seq = 0
    enqueued = drained = 0
    enqueued_bytes = drained_bytes = 0
    for table, do_drain in script:
        cid = ContainerId(table, "fam")
        if do_drain:
            out = cache.drain([cid], now=0)
            drained += len(out)
            drained_bytes += wire_bytes(out)
        else:
            seq += 1
            u = make_update(container=cid, key=f"k{seq % 5}", origin=9, seq=seq)
            cache.enqueue(u)
            enqueued += 1
            enqueued_bytes += wire_bytes([u])
        assert cache.total_pending_count == enqueued - drained
        pending_bytes = wire_bytes(u for state in cache.containers.values()
                                   for u in state.queue)
        assert pending_bytes == enqueued_bytes - drained_bytes


def test_order_preserved_within_container():
    cache = PendingCache()
    updates = [make_update(container=A, key=f"k{i}", origin=3, seq=i + 1)
               for i in range(10)]
    for u in updates:
        cache.enqueue(u)
    out = cache.drain([A], now=0)
    assert [u.seq for u in out] == sorted(u.seq for u in out)


def test_no_partial_block_ever_drains():
    cache, group = PendingCache(), make_group(A, B)
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
    cache = PendingCache()
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
