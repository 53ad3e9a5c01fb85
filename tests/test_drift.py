"""The drift dimension end to end: numeric payloads cut DELTA batches at
the arrivals a reference model predicts, and payloads are parsed only
for containers whose bound has a drift limit, at most once each."""

import random

import pytest

import georep.bounds
from georep.bounds import Bound, ContainerId
from georep.cluster import ClusterNode
from georep.engine import Simulation
from georep.scenario import load_scenario
from georep.shipping import Trigger

DRIFTY = ContainerId("sensor", "temp")
COUNTED = ContainerId("usertable", "family")


@pytest.fixture
def parse_calls(monkeypatch):
    """Count the calls of georep.bounds.parse_numeric."""
    calls = [0]
    parse = georep.bounds.parse_numeric

    def counting(value):
        calls[0] += 1
        return parse(value)

    monkeypatch.setattr(georep.bounds, "parse_numeric", counting)
    return calls


def payloads(seed, n):
    """(key, payload) writes: mostly numbers near each other, some text."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        key = f"k{rng.randrange(4)}"
        if rng.random() < 0.15:
            value = b"blob-%d" % rng.randrange(100)
        else:
            value = repr(round(rng.uniform(0, 50), 1)).encode()
        out.append((key, value))
    return out


def as_number(value):
    try:
        return float(value)
    except ValueError:
        return None


def reference_cuts(writes, bound):
    """Independent model of one container's shipping under a pending and
    drift bound: (arrival index, trigger, updates shipped) per batch."""
    shipped: dict[str, float] = {}
    queue: list[tuple[str, bytes]] = []
    cuts = []
    for i, (key, value) in enumerate(writes):
        queue.append((key, value))
        number = as_number(value)
        trigger = None
        if number is not None and key in shipped and abs(number - shipped[key]) >= bound.drift:
            trigger = Trigger.DELTA
        if len(queue) >= bound.pending:
            trigger = Trigger.COUNT
        if trigger is not None:
            for k, v in queue:
                if as_number(v) is not None:
                    shipped[k] = as_number(v)
            cuts.append((i, trigger, len(queue)))
            queue = []
    return cuts


def run_writes(writes, containers):
    """Write every (key, payload) into each container at cluster 1, one
    ms apart, with two peers; returns (peer, container, ms, trigger,
    size) per shipped batch."""
    clock = [0]
    shipped = []
    node = ClusterNode(1, [2, 3], {DRIFTY: Bound(pending=7, drift=12.5)}, Bound(pending=5),
                       now_fn=lambda: clock[0],
                       on_ship=lambda batch: shipped.append((
                           batch.destination, batch.updates[0].container, clock[0],
                           batch.trigger, len(batch.updates))))
    for i, (key, value) in enumerate(writes):
        clock[0] = i
        for cid in containers:
            node.put(cid, key, value)
    return shipped


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_delta_batches_cut_where_the_reference_model_does(seed, parse_calls):
    writes = payloads(seed, 400)
    shipped = run_writes(writes, (DRIFTY, COUNTED))
    expected = reference_cuts(writes, Bound(pending=7, drift=12.5))
    assert any(trigger is Trigger.DELTA for _, trigger, _ in expected)
    for peer in (2, 3):
        assert [(ms, trigger, size) for p, cid, ms, trigger, size in shipped
                if p == peer and cid == DRIFTY] == expected
        assert [(trigger, size) for p, cid, _, trigger, size in shipped
                if p == peer and cid == COUNTED] == [(Trigger.COUNT, 5)] * (len(writes) // 5)
    # Each drifty payload is parsed at most once, though two peers read it.
    assert 0 < parse_calls[0] <= len(writes)


def test_containers_without_drift_limit_parse_nothing(parse_calls):
    shipped = run_writes(payloads(4, 400), (COUNTED,))
    assert len(shipped) == 2 * 400 // 5
    assert parse_calls[0] == 0


def test_bundled_run_without_drift_bounds_parses_nothing(scenario_dir, parse_calls):
    result = Simulation(load_scenario(scenario_dir / "ring-partition.ini")).run()
    assert result.summary["shipped_updates"] > 0
    assert parse_calls[0] == 0
