"""Deterministic discrete-event clock and network.

Events execute in (timestamp, insertion order); the clock never moves
backward.  A long scripted stream need not be queued up front: its
driver calls ``advance(at_ms)``, which runs every queued event before
``at_ms`` and then stops the clock at ``at_ms``, so the driver acts at
that instant before every event queued for it, and nothing later in the
stream exists before then.  Each advance counts as one event against
the budget.

Links have a fixed latency and a list of scheduled outage windows.  A
batch submitted while its link is down is not lost: it leaves the moment
the link is up again, after any back-to-back outages, and arrives one
latency later.  The network keeps no accounting of its own: it calls the
sender's ``deliver`` at the arrival instant, and the engine's handler
charges the batch to the metric window of that instant
(``metrics.MetricsCollector``).

Link capacity is not modeled: there is no queuing delay, so traffic
peaks are measured rather than shaped.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import LivelockError, ScenarioError
from .shipping import Batch

Link = tuple[int, int]

# Default event budget, advances included; generous for any bundled
# scenario, small enough to abort a runaway loop in seconds.
DEFAULT_MAX_EVENTS = 10_000_000


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """One directed link: fixed latency plus scheduled outage windows.

    Outages are half-open [start, end) intervals, sorted and
    non-overlapping.  Each validation message starts with the field
    that failed.
    """

    latency_ms: int
    partitions: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ScenarioError(f"latency_ms must be non-negative: {self.latency_ms}")
        prev_end = None
        for start, end in self.partitions:
            if start >= end:
                raise ScenarioError(f"partitions: empty interval [{start}, {end})")
            if prev_end is not None and start < prev_end:
                raise ScenarioError(f"partitions: overlapping intervals at {start}")
            prev_end = end

    def down_until(self, now: int) -> int | None:
        """End of the outage covering ``now``, or None if the link is up."""
        for start, end in self.partitions:
            if start <= now < end:
                return end
            if start > now:
                break
        return None


class SimNet:
    """Single-threaded simulated network and event loop."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.now = 0
        self.max_events = max_events
        self.links: dict[Link, LinkSpec] = {}
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        self._order = itertools.count()
        self._events_run = 0

    def add_link(self, src: int, dst: int, spec: LinkSpec) -> None:
        self.links[(src, dst)] = spec

    def schedule(self, at_ms: int, fn: Callable[[], None]) -> None:
        """Queue ``fn`` to run at ``at_ms``; same-instant events run in
        the order they were scheduled."""
        if at_ms < self.now:
            raise ValueError(f"cannot schedule at {at_ms}, clock is at {self.now}")
        heapq.heappush(self._queue, (at_ms, next(self._order), fn))

    def submit(self, batch: Batch, deliver: Callable[[Batch], None]) -> None:
        """Hand a batch to the network for delivery to its destination.

        Up link: delivered after the link latency.  Down link: sent
        when the link is next up, past any outages that follow on
        back to back, and delivered one latency after that.  The
        arrival is decided here and scheduled once.
        """
        spec = self.links.get((batch.source, batch.destination))
        if spec is None:
            raise ScenarioError(f"no link from cluster {batch.source} to {batch.destination}")
        sent = self.now
        while (up := spec.down_until(sent)) is not None:
            sent = up
        self.schedule(sent + spec.latency_ms, partial(deliver, batch))

    def advance(self, at_ms: int) -> None:
        """Run every queued event before ``at_ms``, then set the clock to
        ``at_ms``; the caller then acts before every event queued for
        that instant.  Counts as one event against the budget.  With no
        event due before ``at_ms``, only the clock moves."""
        if at_ms < self.now:
            raise ValueError(f"cannot advance to {at_ms}, clock is at {self.now}")
        queue = self._queue
        if queue and queue[0][0] < at_ms:
            self._run_before(at_ms)
        self.now = at_ms
        self._events_run += 1
        if self._events_run > self.max_events:
            self._overrun()

    def run_until_quiescent(self) -> int:
        """Run events until the queue is empty; returns the final clock."""
        self._run_before(math.inf)
        return self.now

    def _run_before(self, limit: float) -> None:
        """Run queued events earlier than ``limit`` in order.  Aborts with
        a diagnostic once the cumulative event count, advances included,
        passes the configured budget, which catches self-perpetuating
        loops."""
        queue = self._queue
        while queue and queue[0][0] < limit:
            self.now, _, fn = heapq.heappop(queue)
            self._events_run += 1
            if self._events_run > self.max_events:
                self._overrun()
            fn()

    def _overrun(self) -> None:
        raise LivelockError(
            f"event budget of {self.max_events} exceeded at t={self.now}ms; "
            f"{len(self._queue)} events still queued")
