"""Per-peer shipping engine.

One ReplicationSource watches the updates a cluster wants to push to one
peer.  Updates queue in a pending cache until a container's divergence
bound trips, at which point the whole container queue (closed over any
atomic groups it touches) leaves as a single batch, handed once to the
source's ``on_ship``; no entry point returns it.  A source never accepts
an update that originated at its own peer, which is what keeps
bidirectional and cyclic topologies echo-free.

The wire format lives here: ``Batch.build`` holds the one formula for
the bytes a batch is charged, from the constants below.  It also notes
whether a batch is a seq run, one origin's consecutive seqs in order, as
a source on an in-order link ships them: a receiver checks and records a
run's identities in one step, as a range (see ``Batch.run``).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .bounds import Bound, ContainerId, ContainerState, Trigger, Update
from .cache import PendingCache

# Fixed batch header charged once per batch, one fixed-width field each:
# u32 source + u32 destination + u64 created_ms + u8 trigger +
# u32 update count.
BATCH_HEADER_BYTES = 21

# Fixed per-update overhead charged on top of the key and value bytes,
# one fixed-width field each: u16 key length + u32 value length +
# u64 wall_ms + u32 origin + u64 seq + u64 block id.  The u32 value
# length caps a value at MAX_VALUE_BYTES.
UPDATE_OVERHEAD_BYTES = 34
MAX_VALUE_BYTES = 2**32 - 1


class Batch(NamedTuple):
    """An atomically delivered group of updates bound for one peer.

    ``run`` is ``(origin, first_seq)`` when the updates are one origin's
    consecutive seqs in order, ``first_seq`` first, and None otherwise
    (also for a batch built without ``build``).  It is derived from
    ``updates`` and charged no bytes."""

    updates: tuple[Update, ...]
    source: int
    destination: int
    created_ms: int
    trigger: Trigger
    total_bytes: int
    run: tuple[int, int] | None = None

    @classmethod
    def build(cls, updates: list[Update], source: int, destination: int,
              created_ms: int, trigger: Trigger) -> Batch:
        # The one size formula: the header, plus each update's UTF-8
        # key, value and fixed overhead.  UTF-8 encodes a concatenation
        # piecewise, so the joined keys encode to the keys' total length.
        total = (BATCH_HEADER_BYTES + UPDATE_OVERHEAD_BYTES * len(updates)
                 + len("".join([u.key for u in updates]).encode("utf-8"))
                 + sum([len(u.value) for u in updates]))
        run = None
        if updates:
            # A plain loop: on CPython 3.11 it checks a 250-update run in
            # less than half the time that comparing ``map(attrgetter)``
            # columns with a range and a set takes.
            origin, first = updates[0].origin, updates[0].seq
            for seq, u in enumerate(updates, first):
                if u.seq != seq or u.origin != origin:
                    break
            else:
                run = (origin, first)
        # tuple.__new__ skips the Python-level __new__ of a named tuple.
        return tuple.__new__(cls, (tuple(updates), source, destination, created_ms,
                                   trigger, total, run))


class ReplicationSource:
    """Shipping pipeline from one cluster to one peer.

    ``mode`` selects between bound-driven shipping ("bounded") and the
    baseline behavior of shipping everything accumulated on every poll
    tick ("plain").  Under plain, no bound is judged on arrival: loose
    updates and ANY groups wait for the poll, while an IMMEDIATE group
    still ships as one IMMEDIATE_BLOCK batch when it is offered.

    The source hands ``bounds`` and ``default_bound`` to its cache, which
    keeps each container's queue, bound and shipped values in one
    ``ContainerState``.
    """

    def __init__(self, source: int, peer: int, bounds: dict[ContainerId, Bound] | None = None,
                 default_bound: Bound = Bound(), mode: str = "bounded", *,
                 on_ship: Callable[[Batch], None]) -> None:
        if mode not in ("bounded", "plain"):
            raise ValueError(f"unknown shipping mode: {mode!r}")
        self.on_ship = on_ship
        self.source = source
        self.peer = peer
        self.link = (source, peer)
        self.mode = mode
        self.cache = PendingCache(source, dict(bounds or {}), default_bound)
        # Whether a tick can ever ship anything from this source.
        self.timed = mode == "plain" or any(
            b.lag_ms > 0 for b in (default_bound, *self.cache.bounds.values()))

    # -- ingestion ---------------------------------------------------

    def offer(self, update: Update, now: int) -> None:
        """Accept one update due for the peer; ship its container if a
        bound trips.  Updates that originated at the peer are dropped."""
        if update.origin == self.peer:
            return
        state = self.cache.enqueue(update)
        trigger = None if self.mode == "plain" else state.should_ship(update, now)
        if trigger is not None:
            self._drain([update.container], now, trigger)

    def offer_group(self, updates: list[Update], now: int) -> None:
        """Accept a completed atomic group in one step, at its origin or
        at a relay: an IMMEDIATE group goes to ``ship_group_now`` unjudged.

        Of any other group, every member is enqueued before any member is
        judged, so the group can only leave whole, and each member is judged
        against its container's queue with the whole group in.  The last
        member into each container saw that length at its own arrival, so
        whether the group ships does not depend on this choice.  If any
        member trips its container's bound, the involved containers drain
        immediately as one batch.
        """
        if updates and updates[0].block.immediate:
            self.ship_group_now(updates, now)
        elif (accepted := self._accept(updates)) and self.mode != "plain":
            # A list, not a generator: every member is evaluated, also
            # those after the first that trips.
            if any([state.should_ship(u, now) is not None for u, state in accepted]):
                self._drain(sorted({u.container for u, _ in accepted}), now, Trigger.ANY_BLOCK)

    def ship_group_now(self, updates: list[Update], now: int) -> None:
        """Accept an atomic group and ship it at once as one batch."""
        if accepted := self._accept(updates):
            self._drain(sorted({u.container for u, _ in accepted}), now, Trigger.IMMEDIATE_BLOCK)

    def _accept(self, updates: list[Update]) -> list[tuple[Update, ContainerState]]:
        """Enqueue the updates that did not originate at the peer; return
        each with its container's state."""
        enqueue = self.cache.enqueue
        return [(u, enqueue(u)) for u in updates if u.origin != self.peer]

    # -- timer and flush paths ----------------------------------------

    def tick(self, now: int) -> None:
        """Periodic lag validation.

        In plain mode every non-empty container ships.  In bounded mode
        a container ships when it has pending updates and its lag limit
        has elapsed.  Overdue containers are visited in ``table:family``
        text order, so multi-container ticks are deterministic.
        """
        containers, plain = self.cache.containers, self.mode == "plain"
        for cid in sorted(containers):
            # An earlier drain may have pulled this queue's block members.
            if containers[cid].queue and (plain or containers[cid].lag_expired(now)):
                self._drain([cid], now, Trigger.TIME)

    def final_drain(self, now: int) -> None:
        """Flush every non-empty container regardless of bounds."""
        containers = self.cache.containers
        for cid in sorted(containers):
            # An earlier drain may have pulled this queue's block members.
            if containers[cid].queue:
                self._drain([cid], now, Trigger.FINAL_DRAIN)

    def has_timer_work(self) -> bool:
        """True when a future tick could ship something already queued."""
        if self.cache.total_pending_count == 0:
            return False
        if self.mode == "plain":
            return True
        return any(state.queue and state.bound.lag_ms > 0
                   for state in self.cache.containers.values())

    # -- batch construction -------------------------------------------

    def _drain(self, cids: list[ContainerId], now: int, trigger: Trigger) -> None:
        """Ship what ``cids`` hold back; every caller knows they hold some."""
        batch = Batch.build(self.cache.drain(cids, now), self.source, self.peer, now, trigger)
        self.on_ship(batch)

    def acknowledge(self, batch: Batch) -> None:
        """Does nothing and is not called: it stays because the benchmark's
        span table patches it by name, and ROADMAP item 6 (a bounded
        in-flight window per link) will give an acknowledgment a reader."""
