"""Per-peer shipping engine and the batch wire format.

One ReplicationSource watches the updates a cluster wants to push to one
peer.  Updates queue in a pending cache until a container's divergence
bound trips, at which point the whole container queue (closed over any
atomic groups it touches) leaves as a single batch.  A source never
accepts an update that originated at its own peer, which is what keeps
bidirectional and cyclic topologies echo-free.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from .bounds import Bound, ContainerId, ContainerState, Update
from .cache import PendingCache
from .errors import ProtocolError

# Fixed batch header for byte accounting and the trace stream:
# u32 source + u32 destination + u64 created_ms + u8 trigger + u32 count.
BATCH_HEADER_BYTES = 21

_HEADER = struct.Struct(">IIQBI")
_RECORD_FIXED = struct.Struct(">QIQQ")  # wall_ms, origin, seq, block-or-0


class Trigger(enum.IntEnum):
    """What caused a batch to be cut."""

    COUNT = 1            # pending-update limit reached
    TIME = 2             # lag limit or baseline poll interval elapsed
    DELTA = 3            # numeric drift limit exceeded
    IMMEDIATE_BLOCK = 4  # client closed an immediately-replicated group
    ANY_BLOCK = 5        # eligible group shipped on its first bound trip
    FINAL_DRAIN = 6      # end-of-run flush of stragglers


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
    tick ("plain").  Bounds come from a per-container map; containers
    not listed use ``default_bound``.
    """

    def __init__(self, source: int, peer: int, bounds: dict[ContainerId, Bound] | None = None,
                 default_bound: Bound = Bound(), mode: str = "bounded",
                 coalesce: bool = False) -> None:
        if mode not in ("bounded", "plain"):
            raise ValueError(f"unknown shipping mode: {mode!r}")
        self.source = source
        self.peer = peer
        self.bounds = dict(bounds or {})
        self.default_bound = default_bound
        self.mode = mode
        self.cache = PendingCache(coalesce=coalesce)
        self.states: dict[ContainerId, ContainerState] = {}
        self.shipped_position: dict[int, int] = {}
        # Per-container (state, bound) pairs, resolved once; offer() runs
        # for every arriving update, so one dict hit matters.
        self._resolved: dict[ContainerId, tuple[ContainerState, Bound]] = {}
        # With no lag dimension anywhere, timers can never ship anything;
        # checked on every arrival, so precompute it.
        self._any_lag = default_bound.lag_ms > 0 or \
            any(b.lag_ms > 0 for b in self.bounds.values())

    def bound_for(self, cid: ContainerId) -> Bound:
        return self.bounds.get(cid, self.default_bound)

    def state_for(self, cid: ContainerId) -> ContainerState:
        state = self.states.get(cid)
        if state is None:
            state = self.states[cid] = ContainerState()
        return state

    def _state_and_bound(self, cid: ContainerId) -> tuple[ContainerState, Bound]:
        entry = self._resolved.get(cid)
        if entry is None:
            entry = self._resolved[cid] = (self.state_for(cid), self.bound_for(cid))
        return entry

    # -- ingestion ---------------------------------------------------

    def offer(self, update: Update, now: int) -> Batch | None:
        """Accept one update due for the peer; ship its container if a
        bound trips.  Updates that originated at the peer are dropped."""
        if update.origin == self.peer:
            return None
        state, bound = self._state_and_bound(update.container)
        self.cache.enqueue(update)
        if self.mode == "plain":
            return None
        # Count-only bounds are the common case; step the counter inline.
        if bound.lag_ms == 0 and bound.drift == 0.0:
            if bound.pending > 0:
                state.arrivals += 1
                if state.arrivals < bound.pending:
                    return None
                state.arrivals = 0
            return self._drain([update.container], now, Trigger.COUNT)
        trigger = self._evaluate(state, bound, update, now)
        if trigger is None:
            return None
        return self._drain([update.container], now, trigger)

    @staticmethod
    def _evaluate(state: ContainerState, bound: Bound, update: Update,
                  now: int) -> Trigger | None:
        """Evaluate an arrival like ContainerState.should_ship, but keep
        which dimension tripped; count beats time beats drift when
        several trip on the same arrival."""
        if bound.immediate:
            return Trigger.COUNT
        trigger = None
        if bound.drift > 0.0 and state.drift_exceeded(bound, update):
            trigger = Trigger.DELTA
        if bound.lag_ms > 0 and state.lag_expired(bound, now, pending=1):
            trigger = Trigger.TIME
        if bound.pending > 0 and state.record_arrival(bound):
            trigger = Trigger.COUNT
        return trigger

    def offer_group(self, updates: list[Update], now: int,
                    trigger: Trigger = Trigger.ANY_BLOCK) -> Batch | None:
        """Accept a completed atomic group in one step.

        Every member is enqueued and counted before any shipping
        decision, so the group can only leave whole.  If any member's
        arrival trips its container's bound, the involved containers
        drain immediately as one batch.
        """
        accepted = [u for u in updates if u.origin != self.peer]
        if not accepted:
            return None
        for u in accepted:
            self.cache.enqueue(u)
        if self.mode == "plain":
            return None
        tripped = False
        for u in accepted:
            state, bound = self._state_and_bound(u.container)
            if state.should_ship(bound, u, now):
                tripped = True
        if not tripped:
            return None
        involved = _ordered_containers(accepted)
        return self._drain(involved, now, trigger)

    def ship_group_now(self, updates: list[Update], now: int) -> Batch | None:
        """Accept an atomic group that replicates immediately on close."""
        accepted = [u for u in updates if u.origin != self.peer]
        if not accepted:
            return None
        for u in accepted:
            self.cache.enqueue(u)
        involved = _ordered_containers(accepted)
        return self._drain(involved, now, Trigger.IMMEDIATE_BLOCK)

    # -- timer and flush paths ----------------------------------------

    def tick(self, now: int) -> list[Batch]:
        """Periodic lag validation.

        In plain mode every non-empty container ships.  In bounded mode
        a container ships when it has pending updates and its lag limit
        has elapsed.  Overdue containers are visited in canonical name
        order so multi-container ticks are deterministic.
        """
        batches = []
        for cid in sorted(self.cache.queues, key=str):
            pending = self.cache.pending_count(cid)
            if pending == 0:
                continue
            if self.mode == "plain":
                due = True
            else:
                due = self.state_for(cid).lag_expired(self.bound_for(cid), now, pending)
            if due:
                batches.append(self._drain([cid], now, Trigger.TIME))
        return [b for b in batches if b is not None]

    def final_drain(self, now: int) -> list[Batch]:
        """Flush every non-empty container regardless of bounds."""
        batches = []
        for cid in sorted(self.cache.queues, key=str):
            if self.cache.pending_count(cid) > 0:
                batch = self._drain([cid], now, Trigger.FINAL_DRAIN)
                if batch is not None:
                    batches.append(batch)
        return batches

    def has_timer_work(self) -> bool:
        """True when a future tick could ship something already queued."""
        if self.cache.total_pending_count == 0:
            return False
        if self.mode == "plain":
            return True
        if not self._any_lag:
            return False
        return any(self.bound_for(cid).lag_ms > 0 for cid in self.cache.queues)

    # -- batch construction and acknowledgment ------------------------

    def _drain(self, cids: list[ContainerId], now: int, trigger: Trigger) -> Batch | None:
        updates = self.cache.drain(cids)
        if not updates:
            return None
        batch = Batch.build(updates, self.source, self.peer, now, trigger)
        by_container: dict[ContainerId, list[Update]] = {}
        for u in updates:
            by_container.setdefault(u.container, []).append(u)
        for cid, members in by_container.items():
            state, bound = self._state_and_bound(cid)
            state.mark_shipped(now, members, bound)
        return batch

    def acknowledge(self, batch: Batch) -> None:
        """Advance per-origin high-water marks once the peer applied it."""
        for u in batch.updates:
            if u.seq > self.shipped_position.get(u.origin, 0):
                self.shipped_position[u.origin] = u.seq


def _ordered_containers(updates: list[Update]) -> list[ContainerId]:
    seen: dict[ContainerId, None] = {}
    for u in updates:
        seen[u.container] = None
    return sorted(seen, key=str)


# -- wire format -----------------------------------------------------
#
# Big-endian throughout.  A batch is encoded as:
#   header : u32 source, u32 destination, u64 created_ms, u8 trigger,
#            u32 update count                               (21 bytes)
#   record : u16 container length, container bytes,
#            u16 key length, key bytes,
#            u32 value length, value bytes,
#            u64 wall_ms, u32 origin, u64 seq, u64 block id (0 = none)
#
# Byte accounting (Update.size_bytes, Batch.total_bytes) counts the key,
# the value and the fixed-width fields; the container label is carried
# per record in the trace stream but charged only via the fixed header.


def encode_batch(batch: Batch) -> bytes:
    parts = [_HEADER.pack(batch.source, batch.destination, batch.created_ms,
                          int(batch.trigger), len(batch.updates))]
    for u in batch.updates:
        container = str(u.container).encode("utf-8")
        key = u.key.encode("utf-8")
        parts.append(struct.pack(">H", len(container)))
        parts.append(container)
        parts.append(struct.pack(">H", len(key)))
        parts.append(key)
        parts.append(struct.pack(">I", len(u.value)))
        parts.append(u.value)
        parts.append(_RECORD_FIXED.pack(u.wall_ms, u.origin, u.seq,
                                        0 if u.block is None else u.block))
    return b"".join(parts)


def decode_batch(data: bytes) -> Batch:
    source, destination, created_ms, trigger, count = _HEADER.unpack_from(data, 0)
    pos = _HEADER.size
    updates = []
    for _ in range(count):
        (clen,) = struct.unpack_from(">H", data, pos)
        pos += 2
        container = ContainerId.parse(data[pos:pos + clen].decode("utf-8"))
        pos += clen
        (klen,) = struct.unpack_from(">H", data, pos)
        pos += 2
        key = data[pos:pos + klen].decode("utf-8")
        pos += klen
        (vlen,) = struct.unpack_from(">I", data, pos)
        pos += 4
        value = data[pos:pos + vlen]
        pos += vlen
        wall_ms, origin, seq, block = _RECORD_FIXED.unpack_from(data, pos)
        pos += _RECORD_FIXED.size
        updates.append(Update(container, key, value, wall_ms, origin, seq,
                              block if block else None))
    if pos != len(data):
        raise ProtocolError(f"trailing bytes after batch: {len(data) - pos}")
    return Batch.build(updates, source, destination, created_ms, Trigger(trigger))
