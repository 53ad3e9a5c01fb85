"""Span tracing of georep's layers from outside the library.

A span is one call into a layer's public entry point.  It records the
layer name, start and end on the host clock, and the span that was open
when it began.  Spans are kept in flat arrays while the run goes and
reduced when it ends: a span's self time is its duration minus the
durations of its direct child spans, so the self times of every span
under one root add up to the root's duration.

``traced(recorder)`` installs the wrappers and removes them on exit.
Names bound with ``from ... import`` are patched in the module that
looks them up (``georep.load_scenario``, looked up there by the worker;
``georep.engine.generate``; ``georep.bounds.parse_numeric``); methods are
patched on their classes.  ``SPANS`` is the one table of traced entry
points and the metrics each gives.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

import georep
import georep.bounds
import georep.engine
from georep.blocks import ClientSession
from georep.bounds import ContainerState
from georep.cache import PendingCache
from georep.cluster import ClusterNode
from georep.engine import Simulation
from georep.metrics import MetricsCollector
from georep.shipping import ReplicationSource
from georep.simnet import SimNet

Observer = Callable[[tuple, object], None]


class SpanRecorder:
    """In-memory span store plus exact counters taken at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        # Staleness of every delivered update, in simulated ms.
        self.ages = array("q")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``observe(args, result)`` runs after the span has closed, so the
        counting it does is not charged to the layer.
        """
        nid = self._id(name)
        names, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        def traced_call(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced_call

    def wrap_iterator(self, name: str, fn: Callable[..., Iterator]) -> Callable:
        """Wrap a generator function: each ``next()`` on it is one span.

        The items it yields are counted under ``<name>.items``.
        """
        step = self.wrap(name, next)
        counts = self.counts
        key = name + ".items"

        def traced_iter(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                counts[key] += 1
                yield item

        return traced_iter

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in host seconds."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        totals = [0.0] * len(self.names)
        ids = self.name_id
        for i in range(n):
            totals[ids[i]] += ends[i] - starts[i] - child[i]
        return dict(zip(self.names, totals))

    def span_counts(self) -> dict[str, int]:
        """Number of spans per span name."""
        totals = [0] * len(self.names)
        for nid in self.name_id:
            totals[nid] += 1
        return dict(zip(self.names, totals))


# One row per span: (owner, attribute, span name, self-time metric,
# call-count metric or None).  The owner is the class or module on which
# the attribute is patched; ``engine.event`` has none, because the
# ``simnet.schedule`` wrapper wraps each callback it is handed.
SPANS = (
    (georep, "load_scenario", "scenario.load", "scenario.load_s", None),
    (georep.engine, "generate", "workload.generate", "workload.generate_s", None),
    (georep.bounds, "parse_numeric", "bounds.parse_numeric",
     "bounds.parse_numeric_s", "bounds.parse_numeric_calls"),
    (ContainerState, "should_ship", "bounds.should_ship",
     "bounds.should_ship_s", "bounds.should_ship_calls"),
    (ClientSession, "end_block", "blocks.end_block", "blocks.end_block_s", "blocks.closed"),
    (PendingCache, "enqueue", "cache.enqueue", "cache.enqueue_s", "cache.enqueue_calls"),
    (PendingCache, "drain", "cache.drain", "cache.drain_s", "cache.drain_calls"),
    (ReplicationSource, "offer", "shipping.offer", "shipping.offer_s", "shipping.offer_calls"),
    (ReplicationSource, "offer_group", "shipping.offer_group",
     "shipping.offer_group_s", "shipping.offer_group_calls"),
    (ReplicationSource, "ship_group_now", "shipping.ship_group_now",
     "shipping.ship_group_now_s", "shipping.ship_group_now_calls"),
    (ReplicationSource, "tick", "shipping.tick", "shipping.tick_s", "shipping.tick_calls"),
    (ReplicationSource, "acknowledge", "shipping.acknowledge", "shipping.acknowledge_s", None),
    (ClusterNode, "local_put", "cluster.local_put",
     "cluster.local_put_s", "cluster.local_put_calls"),
    (ClusterNode, "apply_remote", "cluster.apply_remote",
     "cluster.apply_remote_s", "cluster.apply_remote_calls"),
    (ClusterNode, "digest", "cluster.digest", "cluster.digest_s", None),
    (SimNet, "schedule", "simnet.schedule", "simnet.schedule_s", "simnet.events"),
    (SimNet, "submit", "simnet.submit", "simnet.submit_s", "simnet.submit_calls"),
    (SimNet, "run_until_quiescent", "simnet.loop", "simnet.loop_self_s", None),
    (None, None, "engine.event", "engine.event_s", None),
    (MetricsCollector, "sample_pending", "metrics.sample_pending",
     "metrics.sample_pending_s", "metrics.sample_pending_calls"),
    (MetricsCollector, "note_delivery", "metrics.note_delivery",
     "metrics.note_delivery_s", "metrics.note_delivery_calls"),
    (MetricsCollector, "build_rows", "metrics.build_rows", "metrics.build_rows_s", None),
    (Simulation, "run", "engine.run", "engine.self_s", None),
)


def _observers(rec: SpanRecorder) -> dict[str, Observer]:
    counts, ages = rec.counts, rec.ages

    def drained(args, result):
        counts["cache.drained_updates"] += len(result)

    def applied(args, result):
        counts["cluster.apply_remote_updates"] += len(args[1].updates)

    def submitted(args, result):
        batch = args[1]
        counts["shipping.batches." + batch.trigger.name] += 1
        counts["shipping.updates"] += len(batch.updates)
        counts["shipping.bytes"] += batch.total_bytes

    def delivered(args, result):
        batch, now = args[2], args[3]
        ages.extend(now - u.wall_ms for u in batch.updates)

    return {"cache.drain": drained, "cluster.apply_remote": applied,
            "simnet.submit": submitted, "metrics.note_delivery": delivered}


@contextmanager
def traced(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install a span wrapper on every entry point in ``SPANS``; undo on exit.

    ``generate`` is wrapped so that each item it yields is one span.  Each
    callback handed to ``SimNet.schedule`` is wrapped in an
    ``engine.event`` span, so the event loop's own self time is kept apart
    from the engine code its events run.
    """
    observers = _observers(rec)

    def wrapper(owner, attr: str, name: str) -> Callable:
        fn = getattr(owner, attr)
        if name == "workload.generate":
            return rec.wrap_iterator(name, fn)
        if name == "simnet.schedule":
            schedule = rec.wrap(name, fn)

            def schedule_event(net, at_ms, callback):
                return schedule(net, at_ms, rec.wrap("engine.event", callback))

            return schedule_event
        return rec.wrap(name, fn, observers.get(name))

    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, *_ in SPANS if owner is not None]
    patches = [(owner, attr, wrapper(owner, attr, name))
               for owner, attr, name, *_ in SPANS if owner is not None]
    try:
        for owner, attr, patched in patches:
            setattr(owner, attr, patched)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
