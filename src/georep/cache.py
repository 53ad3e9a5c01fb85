"""Per-peer cache of updates awaiting shipment.

Updates queue per container in arrival order.  Draining a container
takes its whole queue at once, and additionally pulls in every update
belonging to any atomic group (block) that has a member in that queue,
wherever those siblings live, so a group never ships partially split
across batches.  Due-ness ordering across containers is the shipping
layer's job: it drains a container the moment its bound trips, and the
periodic timer visits overdue containers in ``table:family`` text order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import ContainerId, SeqWindow, Update
from .errors import ProtocolError

# Blocks are numbered per origin cluster, so the globally unique group
# key is the pair (origin, block).
BlockKey = tuple[int, int]


@dataclass(slots=True)
class PendingCache:
    """FIFO queues of pending updates, grouped by container, held by the
    replication source of cluster ``origin`` for one peer.

    ``pending_count`` is the number of updates a container holds back
    from the peer, the count its pending limit is checked against: the
    length of the container's queue.

    Every update of the cache's own cluster is remembered by its seq in
    a ``SeqWindow``.  The source sees every seq its cluster writes, so
    the window ends as one floor (a group's members fill their gap when
    the group closes).  Foreign updates are not tracked: they reach a
    cache only by relaying, which offers only the updates the cluster's
    remote apply saw for the first time.

    A queue grows only in ``enqueue``, so its high-water mark is taken
    when something leaves it: the length just before a drain takes from
    it.  ``peaks`` adds the lengths of the queues still waiting.
    """

    origin: int
    queues: dict[ContainerId, list[Update]] = field(default_factory=dict)
    # A block's containers in arrival order; a set's would follow the hash seed.
    block_index: dict[BlockKey, dict[ContainerId, None]] = field(default_factory=dict)
    total_pending_count: int = 0
    _drained_peaks: dict[ContainerId, int] = field(default_factory=dict)
    _seen: SeqWindow = field(default_factory=SeqWindow)

    def enqueue(self, update: Update) -> int:
        """Append an update to its container queue and return the
        container's ``pending_count``.

        Re-enqueueing one of the own cluster's seqs is a protocol
        violation, and so is an own seq below 1.
        """
        if update.origin == self.origin and not self._seen.add(update.origin, update.seq):
            raise ProtocolError(f"duplicate enqueue of update {(update.origin, update.seq)}")

        cid = update.container
        queue = self.queues.get(cid)
        if queue is None:
            queue = self.queues[cid] = []
        queue.append(update)
        self.total_pending_count += 1
        if update.block is not None:
            bkey = (update.origin, update.block)
            members = self.block_index.get(bkey)
            if members is None:
                members = self.block_index[bkey] = {}
            members[cid] = None
        return len(queue)

    def peaks(self) -> dict[ContainerId, int]:
        """The largest length each container's queue has reached."""
        peaks = dict(self._drained_peaks)
        for cid, queue in self.queues.items():
            if len(queue) > peaks.get(cid, 0):
                peaks[cid] = len(queue)
        return peaks

    def pending_count(self, cid: ContainerId) -> int:
        """How many updates the container holds back (class docstring)."""
        return len(self.queues.get(cid, ()))

    def drain(self, cids: list[ContainerId]) -> list[Update]:
        """Remove and return every update queued for the given containers,
        plus the complete membership of any block touched by them.

        Within each container the returned updates keep arrival order.
        Draining containers with nothing queued yields an empty list, and
        a repeated id adds nothing: its queue is already taken.
        """
        taken: list[Update] = []
        blocks: list[BlockKey] = []
        for cid in cids:
            taken.extend(self._take_queue(cid, blocks))
        if blocks:
            # Pull the sibling members of every touched block from the
            # containers not drained outright, each container's members
            # in its arrival order.  Newly discovered blocks cannot
            # appear: only members of already-listed blocks are removed.
            touched = dict.fromkeys(blocks)
            siblings: dict[ContainerId, None] = {}
            for bkey in touched:
                for cid in self.block_index.pop(bkey, ()):
                    if cid not in cids:
                        siblings[cid] = None
            for cid in siblings:
                taken.extend(self._take_block_members(cid, touched))
        return taken

    def _take_queue(self, cid: ContainerId, blocks: list[BlockKey]) -> list[Update]:
        queue = self.queues.pop(cid, None)
        if not queue:
            return []
        self._note_peak(cid, len(queue))
        for u in queue:
            if u.block is not None:
                blocks.append((u.origin, u.block))
        self.total_pending_count -= len(queue)
        return queue

    def _take_block_members(self, cid: ContainerId,
                            bkeys: dict[BlockKey, None]) -> list[Update]:
        members: list[Update] = []
        remaining: list[Update] = []
        for u in self.queues.get(cid, ()):
            if u.block is not None and (u.origin, u.block) in bkeys:
                members.append(u)
            else:
                remaining.append(u)
        if not members:
            return []
        self._note_peak(cid, len(members) + len(remaining))
        if remaining:
            self.queues[cid] = remaining
        else:
            del self.queues[cid]
        self.total_pending_count -= len(members)
        return members

    def _note_peak(self, cid: ContainerId, length: int) -> None:
        if length > self._drained_peaks.get(cid, 0):
            self._drained_peaks[cid] = length
