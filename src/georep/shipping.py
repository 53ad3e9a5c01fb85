"""Per-peer shipping engine.

One ReplicationSource watches the updates a cluster wants to push to one
peer.  Updates queue in a pending cache until a container's divergence
bound trips, at which point the whole container queue (closed over any
atomic groups it touches) leaves as a single batch.  A source never
accepts an update that originated at its own peer, which is what keeps
bidirectional and cyclic topologies echo-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bounds import Bound, ContainerId, ContainerState, Trigger, Update
from .cache import PendingCache

# Fixed batch header charged once per batch, one fixed-width field each:
# u32 source + u32 destination + u64 created_ms + u8 trigger +
# u32 update count.
BATCH_HEADER_BYTES = 21


@dataclass(frozen=True, slots=True)
class Batch:
    """An atomically delivered group of updates bound for one peer."""

    updates: tuple[Update, ...]
    source: int
    destination: int
    created_ms: int
    trigger: Trigger
    total_bytes: int

    @classmethod
    def build(cls, updates: list[Update], source: int, destination: int,
              created_ms: int, trigger: Trigger) -> Batch:
        total = BATCH_HEADER_BYTES + sum(u.size_bytes for u in updates)
        return cls(tuple(updates), source, destination, created_ms, trigger, total)


class ReplicationSource:
    """Shipping pipeline from one cluster to one peer.

    ``mode`` selects between bound-driven shipping ("bounded") and the
    baseline behavior of shipping everything accumulated on every poll
    tick ("plain").  Each container's bound lives in its ``ContainerState``
    in ``states``, built on first use from the per-container map
    ``bounds``, or ``default_bound`` for containers it does not list.

    The source ships its own batches: ``_drain`` hands each batch it
    cuts to ``on_ship`` once, then returns it to the caller.
    """

    def __init__(self, source: int, peer: int, bounds: dict[ContainerId, Bound] | None = None,
                 default_bound: Bound = Bound(), mode: str = "bounded",
                 on_ship: Callable[[Batch], None] | None = None) -> None:
        if mode not in ("bounded", "plain"):
            raise ValueError(f"unknown shipping mode: {mode!r}")
        self.on_ship = on_ship or (lambda batch: None)
        self.source = source
        self.peer = peer
        self.link = (source, peer)
        self.bounds = dict(bounds or {})
        self.default_bound = default_bound
        self.mode = mode
        # Whether a tick can ever ship anything from this source.
        self.timed = mode == "plain" or any(
            b.lag_ms > 0 for b in (default_bound, *self.bounds.values()))
        self.cache = PendingCache(source)
        self.shipped_position: dict[int, int] = {}
        # offer() runs for every update, so a hit is one dict.get.
        self.states: dict[ContainerId, ContainerState] = {}

    def _state(self, cid: ContainerId) -> ContainerState:
        """Build a container's state, with its bound, on a ``states`` miss.
        Under bounds, every container the cache holds has one: ``offer``
        and ``offer_group`` build it, and ``_drain`` for ``ship_group_now``."""
        state = self.states[cid] = ContainerState(self.bounds.get(cid, self.default_bound))
        return state

    # -- ingestion ---------------------------------------------------

    def offer(self, update: Update, now: int) -> Batch | None:
        """Accept one update due for the peer; ship its container if a
        bound trips.  Updates that originated at the peer are dropped."""
        if update.origin == self.peer:
            return None
        held = self.cache.enqueue(update)
        if self.mode == "plain":
            return None
        cid = update.container
        trigger = (self.states.get(cid) or self._state(cid)).should_ship(update, now, held)
        if trigger is None:
            return None
        return self._drain([cid], now, trigger)

    def offer_group(self, updates: list[Update], now: int) -> Batch | None:
        """Accept a completed atomic group in one step.

        Every member is enqueued before any shipping decision, so the
        group can only leave whole.  Each member is then evaluated
        against its container's held-back count at its own arrival, the
        length of the queue it was appended to.  If any member trips its
        container's bound, the involved containers drain immediately as
        one batch.
        """
        accepted = self._accept(updates)
        if not accepted or self.mode == "plain":
            return None
        states = self.states
        # A list, not a generator: every member is evaluated, also those
        # after the first that trips.
        if not any([(states.get(u.container) or self._state(u.container))
                    .should_ship(u, now, held) is not None for u, held in accepted]):
            return None
        return self._drain(sorted({u.container for u, _ in accepted}), now, Trigger.ANY_BLOCK)

    def ship_group_now(self, updates: list[Update], now: int) -> Batch | None:
        """Accept an atomic group that replicates immediately on close."""
        accepted = self._accept(updates)
        if not accepted:
            return None
        return self._drain(sorted({u.container for u, _ in accepted}), now,
                           Trigger.IMMEDIATE_BLOCK)

    def _accept(self, updates: list[Update]) -> list[tuple[Update, int]]:
        """Enqueue the updates that did not originate at the peer; return
        each with its container's held-back count once it arrived."""
        enqueue = self.cache.enqueue
        return [(u, enqueue(u)) for u in updates if u.origin != self.peer]

    # -- timer and flush paths ----------------------------------------

    def tick(self, now: int) -> list[Batch]:
        """Periodic lag validation.

        In plain mode every non-empty container ships.  In bounded mode
        a container ships when it has pending updates and its lag limit
        has elapsed.  Overdue containers are visited in ``table:family``
        text order, so multi-container ticks are deterministic.
        """
        batches = []
        for cid in sorted(self.cache.queues):
            # An earlier drain may have pulled this queue's block members.
            if self.cache.pending_count(cid) == 0:
                continue
            if self.mode == "plain" or self.states[cid].lag_expired(now):
                batches.append(self._drain([cid], now, Trigger.TIME))
        return batches

    def final_drain(self, now: int) -> list[Batch]:
        """Flush every non-empty container regardless of bounds."""
        batches = []
        for cid in sorted(self.cache.queues):
            # An earlier drain may have pulled this queue's block members.
            if self.cache.pending_count(cid) > 0:
                batches.append(self._drain([cid], now, Trigger.FINAL_DRAIN))
        return batches

    def has_timer_work(self) -> bool:
        """True when a future tick could ship something already queued."""
        if self.cache.total_pending_count == 0:
            return False
        if self.mode == "plain":
            return True
        states = self.states
        return any(states[cid].bound.lag_ms > 0 for cid in self.cache.queues)

    # -- batch construction and acknowledgment ------------------------

    def _drain(self, cids: list[ContainerId], now: int, trigger: Trigger) -> Batch:
        """Ship what ``cids`` hold back; every caller knows they hold some."""
        updates = self.cache.drain(cids)
        batch = Batch.build(updates, self.source, self.peer, now, trigger)
        by_container: dict[ContainerId, list[Update]] = {}
        for u in updates:
            by_container.setdefault(u.container, []).append(u)
        for cid, members in by_container.items():
            (self.states.get(cid) or self._state(cid)).mark_shipped(now, members)
        self.on_ship(batch)
        return batch

    def acknowledge(self, batch: Batch) -> None:
        """Advance per-origin high-water marks once the peer applied it."""
        for u in batch.updates:
            if u.seq > self.shipped_position.get(u.origin, 0):
                self.shipped_position[u.origin] = u.seq
