"""Per-peer cache of updates awaiting shipment.

The cache keeps one map of container states: each ``ContainerState``
holds its container's queue, in arrival order, next to its bound.
Draining a container takes its whole queue at once, and additionally
pulls in every update belonging to any atomic group (block) that has a
member in that queue, so a group never ships partially split across
batches; the ``Group`` a member names lists the only containers to look
in.  A drain marks each container it takes from as shipped.  Due-ness
ordering across containers is the shipping layer's job: it drains a
container the moment its bound trips, and the periodic timer visits
overdue containers in ``table:family`` text order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import IMMEDIATE, Bound, ContainerId, ContainerState, Group, SeqWindow, Update
from .errors import ProtocolError


@dataclass(slots=True)
class PendingCache:
    """One ``ContainerState`` per container, each holding its FIFO queue
    of pending updates, kept by the replication source of cluster
    ``origin`` for one peer.  A state is built on its container's first
    ``enqueue``, with the container's bound in ``bounds`` or else
    ``default_bound``.  ``pending_count``, the count a pending limit is
    checked against, is the length of the container's queue.

    Every update of the cache's own cluster is remembered by its seq in
    a ``SeqWindow``.  The source sees every seq its cluster writes, so
    the window ends as one floor (a group's members fill their gap when
    the group closes).  Foreign updates are not tracked: they reach a
    cache only by relaying, which offers only the updates the cluster's
    remote apply saw for the first time.

    A queue grows only in ``enqueue``, so a state notes its ``peak`` when
    a drain takes from the queue; ``peaks`` adds the queues still waiting.
    """

    origin: int
    bounds: dict[ContainerId, Bound] = field(default_factory=dict)
    default_bound: Bound = IMMEDIATE
    containers: dict[ContainerId, ContainerState] = field(default_factory=dict, init=False)
    total_pending_count: int = field(default=0, init=False)
    _seen: SeqWindow = field(default_factory=SeqWindow, init=False)

    def enqueue(self, update: Update) -> ContainerState:
        """Append an update to its container's queue and return the
        container's state.

        Re-enqueueing one of the own cluster's seqs is a protocol
        violation, and so is an own seq below 1.
        """
        if update.origin == self.origin and not self._seen.add(update.origin, update.seq):
            raise ProtocolError(f"duplicate enqueue of update {(update.origin, update.seq)}")

        cid = update.container
        state = self.containers.get(cid)
        if state is None:
            state = self.containers[cid] = ContainerState(self.bounds.get(cid, self.default_bound))
        state.queue.append(update)
        self.total_pending_count += 1
        return state

    def peaks(self) -> dict[ContainerId, int]:
        """The largest length each container's queue has reached."""
        return {cid: max(state.peak, len(state.queue))
                for cid, state in self.containers.items()}

    def pending_count(self, cid: ContainerId) -> int:
        """How many updates the container holds back (class docstring)."""
        return len(self.containers[cid].queue) if cid in self.containers else 0

    def drain(self, cids: list[ContainerId], now: int) -> list[Update]:
        """Remove and return every update queued for the given containers,
        plus the complete membership of any group touched by them, and
        mark each container taken from as shipped at ``now``.

        Within each container the returned updates keep arrival order.
        Draining containers with nothing queued yields an empty list, and
        a repeated id adds nothing: its queue is already taken.
        """
        taken: list[Update] = []
        touched: dict[Group, None] = {}
        for cid in cids:
            taken.extend(self._take_queue(cid, now, touched))
        if touched:
            # Pull the sibling members of every touched group from the
            # containers it writes that were not drained outright, each
            # container's members in its arrival order.  Newly touched
            # groups cannot appear: only members of listed groups leave.
            siblings = {cid: None for g in touched for cid in g.containers
                        if cid not in cids and cid in self.containers}
            for cid in siblings:
                taken.extend(self._take_block_members(cid, now, touched))
        return taken

    def _take_queue(self, cid: ContainerId, now: int, touched: dict[Group, None]) -> list[Update]:
        state = self.containers.get(cid)
        if state is None or not state.queue:
            return []
        for u in state.queue:
            if u.block is not None:
                touched[u.block] = None
        return self._take(state, now, state.queue, [])

    def _take_block_members(self, cid: ContainerId, now: int,
                            touched: dict[Group, None]) -> list[Update]:
        state = self.containers[cid]
        members: list[Update] = []
        remaining: list[Update] = []
        for u in state.queue:
            if u.block in touched:
                members.append(u)
            else:
                remaining.append(u)
        return self._take(state, now, members, remaining) if members else []

    def _take(self, state: ContainerState, now: int, taken: list[Update],
              remaining: list[Update]) -> list[Update]:
        """Leave ``remaining`` queued, noting the queue's peak first, and
        mark ``taken`` as shipped."""
        state.peak = max(state.peak, len(state.queue))
        state.queue = remaining
        self.total_pending_count -= len(taken)
        state.mark_shipped(now, taken)
        return taken
