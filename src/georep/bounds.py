"""Divergence bounds and per-container replication state.

A replicated data container is allowed to drift from its remote copies
along three independent dimensions, each with its own limit:

* ``lag_ms``   - maximum time between shipments of the container,
* ``pending``  - maximum number of updates held back from the peer,
* ``drift``    - maximum absolute difference between a key's current
  numeric value and the value last shipped for that key.

A limit of zero disables that dimension.  A bound with every dimension
disabled means the container is replicated immediately, one update at a
time.  A container's bound on a link lives in the ``ContainerState``
that the link's pending cache builds for it.  ``should_ship`` there is
the one rule that evaluates the active dimensions on every arriving
update (the shipping engine checks the lag dimension again on a periodic
timer); any single dimension tripping causes the container's whole
pending queue to be shipped as one batch, and the rule names the
dimension that tripped.

The state stores the first two dimensions as thresholds, derived from
the bound once: ``count_at``, the queue length that trips the pending
dimension, and ``time_at``, the instant the lag dimension trips.  A
disabled dimension's threshold is infinite, so it never trips, and an
all-disabled bound's ``count_at`` is 0, so every arrival trips it.  An
arrival is then judged by two comparisons before the drift check.

The lag clock runs from the container's last shipment, or from t=0 if
it has never shipped, so its first update at or after ``lag_ms`` ships
at once, as any arrival after an idle gap of at least ``lag_ms`` does.
A key with no shipped value never trips drift, so its first write waits
for lag or pending; VFC's value dimension (Santos, Veiga & Ferreira,
Middleware 2007) and TACT's numerical error (Yu & Vahdat, TOCS 2002)
count every write not yet propagated instead.

Payloads are parsed as numbers lazily: only the drift dimension reads
them, so an update's payload is parsed (through ``parse_numeric``) the
first time a container with an active drift limit asks for it, and at
most once however many peers ask.  Containers without a drift limit
never parse a payload and keep no shipped values.  An update carries no
size: the wire format and its byte counts live in ``shipping``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class Trigger(enum.IntEnum):
    """What caused a batch to be cut.

    When several dimensions trip on one arrival, ``should_ship`` owns
    the tie order: COUNT, then TIME, then DELTA.
    """

    COUNT = 1            # pending-update limit reached
    TIME = 2             # lag limit or baseline poll interval elapsed
    DELTA = 3            # numeric drift limit exceeded
    IMMEDIATE_BLOCK = 4  # client closed an immediately-replicated group
    ANY_BLOCK = 5        # eligible group shipped on its first bound trip
    FINAL_DRAIN = 6      # end-of-run flush of stragglers


class ContainerId(str):
    """Identity of a replicated data container: the ``str`` ``table:family``.

    Hashing, equality and ordering are the string's own and run in C, so
    the canonical order of containers is their text order.  Neither part
    may be empty or hold a colon, so the text splits back into its parts;
    ``__getnewargs__`` rebuilds an id from them for copy and pickle.
    """

    __slots__ = ()

    def __new__(cls, table: str, family: str) -> ContainerId:
        if not table or not family:
            raise ValueError(f"container parts must be non-empty: {table!r}:{family!r}")
        if ":" in table or ":" in family:
            raise ValueError(f"container parts may not contain ':': {table!r}, {family!r}")
        return super().__new__(cls, f"{table}:{family}")

    def __getnewargs__(self) -> tuple[str, str]:
        return self.table, self.family

    @property
    def table(self) -> str:
        return self.partition(":")[0]

    @property
    def family(self) -> str:
        return self.partition(":")[2]

    @classmethod
    def parse(cls, text: str) -> ContainerId:
        """Parse the canonical ``table:family`` form (exactly one colon)."""
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"container id must be 'table:family': {text!r}")
        return cls(parts[0], parts[1])


@dataclass(frozen=True, slots=True)
class Bound:
    """Per-container divergence limit.  Zero disables a dimension."""

    lag_ms: int = 0
    pending: int = 0
    drift: float = 0.0

    def __post_init__(self) -> None:
        if self.lag_ms < 0 or self.pending < 0 or self.drift < 0:
            raise ValueError(f"bound dimensions must be non-negative: {self}")
        # A NaN or infinite drift limit could never trip, yet it would
        # make the bound non-immediate and so hold traffic indefinitely.
        if not math.isfinite(self.drift):
            raise ValueError(f"drift limit must be finite: {self}")

    @property
    def immediate(self) -> bool:
        """True when every dimension is disabled: ship on every update."""
        return self.lag_ms == 0 and self.pending == 0 and self.drift == 0.0


IMMEDIATE = Bound()

# Marks an update whose payload has not been parsed as a number yet.
_UNPARSED = object()


class Group:
    """One client write group: every member's ``block`` is this object,
    at every replica and hop.  ``containers`` lists the containers the
    members write, in first-write order, set when the group closes.
    ``immediate`` marks an IMMEDIATE group, which ships at every hop at once.
    Groups hash by identity, that is by memory address, so they are kept
    in insertion-ordered dicts, never in sets, or runs would differ."""

    __slots__ = ("containers", "immediate")

    def __init__(self, containers: tuple[ContainerId, ...] = (), immediate: bool = False) -> None:
        self.containers, self.immediate = containers, immediate


@dataclass(slots=True, init=False)
class Update:
    """One edit as carried through caches, batches and the wire, and as
    held in every replica's store once applied.

    An update keeps only its own fields.  ``block`` is the ``Group`` the
    update was written in, or None."""

    container: ContainerId
    key: str
    value: bytes
    wall_ms: int
    origin: int
    seq: int
    block: Group | None
    _numeric: object = field(repr=False, compare=False)

    def __init__(self, container: ContainerId, key: str, value: bytes, wall_ms: int,
                 origin: int, seq: int, block: Group | None = None) -> None:
        self.container, self.key, self.value = container, key, value
        self.wall_ms, self.origin, self.seq = wall_ms, origin, seq
        self.block, self._numeric = block, _UNPARSED

    @property
    def numeric(self) -> float | None:
        """Float value of the payload, or None; parsed on first use only."""
        if self._numeric is _UNPARSED:
            self._numeric = parse_numeric(self.value)
        return self._numeric

    @property
    def version(self) -> tuple[int, int, int]:
        """Last-writer-wins key: the greater triple wins.  The origin
        breaks timestamp ties; the origin's sequence number breaks ties
        between one origin's writes in the same millisecond, restoring
        the program order in which they applied locally."""
        return self.wall_ms, self.origin, self.seq


def parse_numeric(value: bytes) -> float | None:
    """Float value of a payload that encodes a number, else None."""
    try:
        return float(value)
    except (ValueError, UnicodeDecodeError):
        return None


@dataclass(slots=True)
class ContainerState:
    """One container on one link: its bound, the updates it holds back,
    and what it remembers between shipments; every method reads the
    bound from here.

    ``queue`` holds the updates awaiting shipment in arrival order, for
    the pending dimension; ``peak`` is the longest the queue has been
    when something left it.  ``last_ship_ms`` is when the container last
    shipped, for the lag dimension.  ``shipped_value`` remembers, per
    key, the numeric payload most recently shipped, for drift
    comparisons; it stays empty under a bound without a drift limit.

    Two thresholds restate the bound, set in ``__post_init__``:
    ``count_at`` is the queue length that trips the pending dimension,
    the limit itself, 0 under an all-disabled bound and infinite without
    a limit; ``time_at`` is ``last_ship_ms + lag_ms``, the instant the
    lag dimension trips, and infinite without a lag.  Only
    ``mark_shipped`` moves ``time_at``, and only forward, as it moves
    ``last_ship_ms``.
    """

    bound: Bound
    last_ship_ms: int = 0
    shipped_value: dict[str, float] = field(default_factory=dict)
    queue: list[Update] = field(default_factory=list)
    peak: int = 0
    count_at: float = field(init=False)
    time_at: float = field(init=False)

    def __post_init__(self) -> None:
        bound = self.bound
        self.count_at = bound.pending or (0 if bound.immediate else math.inf)
        self.time_at = self.last_ship_ms + bound.lag_ms if bound.lag_ms else math.inf

    def lag_expired(self, now: int) -> bool:
        """True when the shipment lag limit is up: ``now`` has reached
        ``time_at``.

        Inclusive at the boundary: trips exactly when the time since
        ``last_ship_ms``, 0 before the first shipment, reaches ``lag_ms``.
        Does not mutate.  Callers ask only for containers holding updates.
        """
        return now >= self.time_at

    def drift_exceeded(self, update: Update) -> bool:
        """True when a numeric payload moved at least ``drift`` away from
        the value last shipped for the same key.

        Non-numeric payloads and keys with no shipped history never trip.
        """
        if self.bound.drift == 0.0 or update.numeric is None:
            return False
        last = self.shipped_value.get(update.key)
        if last is None:
            return False
        return abs(update.numeric - last) >= self.bound.drift

    def should_ship(self, update: Update, now: int) -> Trigger | None:
        """The bound rule: which active dimension trips for one arriving
        update, already queued, or None when the update may wait.

        The pending dimension trips when the queue's length reaches
        ``count_at``, and the lag dimension when ``now`` reaches
        ``time_at``; an all-disabled bound replicates immediately
        (COUNT).  When several dimensions trip at once, count beats time
        beats drift.  Does not mutate.
        """
        if len(self.queue) >= self.count_at:
            return Trigger.COUNT
        if now >= self.time_at:
            return Trigger.TIME
        if self.bound.drift > 0.0 and self.drift_exceeded(update):
            return Trigger.DELTA
        return None

    def mark_shipped(self, now: int, updates: list[Update]) -> None:
        """Restart the lag clock after this container shipped the given
        updates; under a drift limit, remember their numeric payloads.
        An earlier ``now`` moves neither ``last_ship_ms`` nor ``time_at``."""
        bound = self.bound
        if now > self.last_ship_ms:
            self.last_ship_ms = now
            if bound.lag_ms:
                self.time_at = now + bound.lag_ms
        if bound.drift > 0.0:
            for u in updates:
                numeric = u.numeric
                if numeric is not None:
                    self.shipped_value[u.key] = numeric


def pending_from_percent(percent: float, total_updates: int) -> int:
    """Resolve a pending limit given as a percentage of a run's updates.

    Returns ``max(1, round(percent/100 * total_updates))`` with ties
    rounding up, so even tiny percentages yield a usable batch size.
    """
    if not 0 < percent <= 100:
        raise ValueError(f"percentage must be in (0, 100]: {percent}")
    if total_updates <= 0:
        raise ValueError(f"total update count must be positive: {total_updates}")
    return max(1, int(percent / 100.0 * total_updates + 0.5))
