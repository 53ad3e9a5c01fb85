"""The bound rule, end to end through ReplicationSource, against a model.

The model below restates the rule from the module docs without using
any of georep's bound or cache code: count, then time, then drift; under
a pending limit, a container's count moves once per arriving update; a
shipment takes the whole queue of every involved container plus the
siblings of any group it touches, and sets the count of every container
it took from to the number of updates that container still holds (zero
unless it gave up only group members).  After every stream the model's
counts must equal the length of the cache's queue for each container
under a pending limit.

A last property checks a ``ContainerState``'s two stored thresholds,
``count_at`` and ``time_at``, against the rule written out dimension by
dimension.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from georep.bounds import Bound, ContainerId, ContainerState
from georep.shipping import ReplicationSource, Trigger

from conftest import held_back, make_group, make_update

A = ContainerId("a", "fam")
B = ContainerId("b", "fam")
C = ContainerId("c", "fam")


class Model:
    """Reference shipping decisions of one source; one arrival at a time."""

    def __init__(self, bounds: dict[ContainerId, Bound]) -> None:
        self.bounds = bounds
        self.arrivals = {cid: 0 for cid in bounds}
        self.last_ship = {cid: 0 for cid in bounds}
        self.shipped = {cid: {} for cid in bounds}
        # (container, key, numeric, block) in arrival order.
        self.queue: list[tuple] = []

    def arrive(self, cid, key, numeric, now, block=None):
        """Queue one update; the dimension that trips, or None."""
        self.queue.append((cid, key, numeric, block))
        bound = self.bounds[cid]
        lag, pending, drift = bound.lag_ms, bound.pending, bound.drift
        if pending:
            self.arrivals[cid] += 1
            if self.arrivals[cid] == pending:
                self.arrivals[cid] = 0
                return Trigger.COUNT
        elif not lag and not drift:
            return Trigger.COUNT
        if lag and now - self.last_ship[cid] >= lag:
            return Trigger.TIME
        last = self.shipped[cid].get(key)
        if drift and numeric is not None and last is not None and abs(numeric - last) >= drift:
            return Trigger.DELTA
        return None

    def ship(self, cids, now):
        """Size of the batch that drains ``cids`` and their groups."""
        taken = [u for u in self.queue if u[0] in cids]
        groups = {u[3] for u in taken if u[3] is not None}
        taken += [u for u in self.queue if u[0] not in cids and u[3] in groups]
        self.queue = [u for u in self.queue if u[0] not in cids and u[3] not in groups]
        for cid, key, numeric, _ in taken:
            self.last_ship[cid] = max(self.last_ship[cid], now)
            if numeric is not None:
                self.shipped[cid][key] = numeric
        # A container that gave up only group members keeps counting
        # the updates it still holds.
        for cid in {u[0] for u in taken}:
            if self.bounds[cid].pending:
                self.arrivals[cid] = sum(1 for u in self.queue if u[0] == cid)
        return len(taken)


# Each dimension on or off, independently, for each container.
bounds = st.builds(
    Bound,
    lag_ms=st.one_of(st.just(0), st.integers(1, 40)),
    pending=st.one_of(st.just(0), st.integers(1, 6)),
    drift=st.one_of(st.just(0.0), st.floats(0.5, 50.0)),
)
# (payload, its numeric value or None).
payloads = st.one_of(
    st.integers(-60, 60).map(lambda n: (str(n).encode(), float(n))),
    st.floats(-100.0, 100.0).map(lambda f: (repr(f).encode(), f)),
    st.sampled_from([b"blob", b"x7", b""]).map(lambda v: (v, None)),
)
arrivals = st.tuples(st.sampled_from([A, B, C]), st.sampled_from(["k1", "k2", "k3"]),
                     payloads, st.integers(0, 15))


def source_and_model(bound_a, bound_b, default):
    """A source, the list its ``on_ship`` appends to, and the model."""
    shipped = []
    src = ReplicationSource(source=1, peer=2, bounds={A: bound_a, B: bound_b},
                            default_bound=default, on_ship=shipped.append)
    return src, shipped, Model({A: bound_a, B: bound_b, C: default})


def cut_by(index, batches):
    """(index, trigger, size) of each batch, all cut by operation ``index``."""
    return [(index, b.trigger, len(b.updates)) for b in batches]


def held_counts(src, model):
    """(cache, model) held-back counts of the containers under a pending
    limit; the model counts only there."""
    limited = [cid for cid, bound in model.bounds.items() if bound.pending]
    return ({cid: held_back(src.cache, cid) for cid in limited},
            {cid: model.arrivals[cid] for cid in limited})


@given(bound_a=bounds, bound_b=bounds, default=bounds,
       stream=st.lists(arrivals, max_size=60))
@settings(max_examples=300, deadline=None)
def test_offer_follows_the_model(bound_a, bound_b, default, stream):
    src, shipped, model = source_and_model(bound_a, bound_b, default)
    now = 0
    got, want = [], []
    for index, (cid, key, (value, numeric), gap) in enumerate(stream):
        now += gap
        before = len(shipped)
        src.offer(make_update(container=cid, key=key, value=value), now)
        got += cut_by(index, shipped[before:])
        trigger = model.arrive(cid, key, numeric, now)
        if trigger is not None:
            want.append((index, trigger, model.ship({cid}, now)))
    assert got == want
    cache_counts, model_counts = held_counts(src, model)
    assert cache_counts == model_counts


# One operation, as the groups it offers in one call: a loose update
# (one member, no group), one group, or two groups in one group offer.
offers = st.one_of(arrivals.map(lambda a: [[a]]),
                   st.lists(arrivals, min_size=2, max_size=4).map(lambda g: [g]),
                   st.lists(st.lists(arrivals, min_size=1, max_size=3), min_size=2, max_size=2))


@given(bound_a=bounds, bound_b=bounds, default=bounds, ops=st.lists(offers, max_size=30))
@settings(max_examples=300, deadline=None)
def test_offer_group_follows_the_model_and_counts_every_member(bound_a, bound_b,
                                                               default, ops):
    """Single offers mixed with groups, one or two to a call; the
    members of a call ship whole, as one ANY_BLOCK batch, when any
    member trips, and every member is evaluated, also those after the
    first that trips."""
    src, shipped, model = source_and_model(bound_a, bound_b, default)
    now = 0
    got, want = [], []
    with mock.patch.object(ContainerState, "should_ship", autospec=True,
                           side_effect=ContainerState.should_ship) as rule:
        for index, groups in enumerate(ops):
            members = [m for group in groups for m in group]
            loose = len(members) == 1
            now += members[0][3]
            blocks = [None if loose else make_group(*dict.fromkeys(m[0] for m in group))
                      for group in groups]
            updates = [make_update(container=cid, key=key, value=value, block=block)
                       for group, block in zip(groups, blocks)
                       for cid, key, (value, _), _ in group]
            calls, before = rule.call_count, len(shipped)
            if loose:
                src.offer(updates[0], now)
            else:
                src.offer_group(updates, now)
            assert rule.call_count - calls == len(members)
            got += cut_by(index, shipped[before:])
            tripped = [model.arrive(cid, key, numeric, now, u.block)
                       for (cid, key, (_, numeric), _), u in zip(members, updates)]
            if loose and tripped[0] is not None:
                want.append((index, tripped[0], model.ship({members[0][0]}, now)))
            elif not loose and any(t is not None for t in tripped):
                involved = {m[0] for m in members}
                want.append((index, Trigger.ANY_BLOCK, model.ship(involved, now)))
    assert got == want
    cache_counts, model_counts = held_counts(src, model)
    assert cache_counts == model_counts



def test_pulling_group_members_leaves_the_loose_updates_counted():
    """A container that gives up only a group's members keeps counting
    the loose updates it still holds, so its next COUNT batch is no
    larger than its pending limit."""
    bound = Bound(pending=3)
    shipped = []
    src = ReplicationSource(source=1, peer=2, bounds={A: bound, B: bound},
                            on_ship=shipped.append)
    group = make_group(A, B)
    src.offer_group([make_update(container=A, block=group),
                     make_update(container=B, block=group)], now=0)
    src.offer(make_update(container=B, key="loose1"), now=0)
    src.offer(make_update(container=A), now=0)
    assert shipped == []
    src.offer(make_update(container=A), now=0)
    [tripped] = shipped
    assert tripped.trigger is Trigger.COUNT
    assert {u.container for u in tripped.updates} == {A, B}
    assert held_back(src.cache, B) == 1
    for i in range(3):
        src.offer(make_update(container=B, key=f"m{i}"), now=0)
        # m1 is B's third loose update, so it alone trips the count.
        assert len(shipped) == 1 + (i >= 1)
    assert shipped[1].trigger is Trigger.COUNT
    assert [u.key for u in shipped[1].updates] == ["loose1", "m0", "m1"]
    assert held_back(src.cache, B) == 1


def dimension_rule(bound, last_ship_ms, shipped_value, queued, update, now):
    """The bound rule dimension by dimension, as ``should_ship`` read it
    before the state kept thresholds: the trigger for an update arriving
    at a queue of ``queued`` updates, itself included, or None."""
    if bound.pending > 0:
        if queued >= bound.pending:
            return Trigger.COUNT
    elif bound.immediate:
        return Trigger.COUNT
    if bound.lag_ms > 0 and now - last_ship_ms >= bound.lag_ms:
        return Trigger.TIME
    if bound.drift > 0.0 and update.numeric is not None:
        last = shipped_value.get(update.key)
        if last is not None and abs(update.numeric - last) >= bound.drift:
            return Trigger.DELTA
    return None


# One bound of each kind the threshold rule restates.
rule_bounds = st.one_of(
    st.just(Bound()),
    st.builds(Bound, pending=st.integers(1, 6)),
    st.builds(Bound, lag_ms=st.integers(1, 50)),
    st.builds(Bound, lag_ms=st.integers(1, 50), pending=st.integers(1, 6)),
    st.builds(Bound, lag_ms=st.sampled_from([0, 20]), pending=st.sampled_from([0, 3]),
              drift=st.floats(0.5, 10.0)),
)
# An arrival: (queue length, key, payload, where ``now`` falls).  ``now``
# is the lag boundary plus a small offset, so the boundary itself comes
# up often, or an absolute instant.
judged = st.tuples(st.integers(1, 8), st.sampled_from(["k1", "k2"]), payloads,
                   st.one_of(st.integers(-3, 3).map(lambda d: ("near", d)),
                             st.integers(0, 200).map(lambda t: ("at", t))))
# A shipment: its instant as an offset from the last one, earlier ones
# included, and the payload shipped for a key.
shipments = st.tuples(st.integers(-60, 60), st.sampled_from(["k1", "k2"]), payloads)


@given(bound=rule_bounds, last_ship_ms=st.integers(0, 100),
       steps=st.lists(st.one_of(judged.map(lambda j: ("judge", j)),
                                shipments.map(lambda s: ("ship", s))), max_size=20))
@settings(max_examples=400, deadline=None)
def test_the_thresholds_judge_as_each_dimension_does(bound, last_ship_ms, steps):
    state = ContainerState(bound, last_ship_ms=last_ship_ms)
    last, shipped = last_ship_ms, {}
    for kind, step in steps:
        if kind == "judge":
            queued, key, (value, _), (where, t) = step
            now = max(0, last + bound.lag_ms + t) if where == "near" else t
            update = make_update(key=key, value=value)
            state.queue = [make_update() for _ in range(queued - 1)] + [update]
            assert state.should_ship(update, now) == dimension_rule(
                bound, last, shipped, queued, update, now)
            assert state.lag_expired(now) == (bound.lag_ms > 0 and now - last >= bound.lag_ms)
        else:
            offset, key, (value, numeric) = step
            now = max(0, last + offset)
            state.mark_shipped(now, [make_update(key=key, value=value)])
            # An earlier shipment moves neither the lag clock nor its threshold.
            last = max(last, now)
            if bound.drift and numeric is not None:
                shipped[key] = numeric
        assert state.last_ship_ms == last
        assert state.time_at == (last + bound.lag_ms if bound.lag_ms else float("inf"))
