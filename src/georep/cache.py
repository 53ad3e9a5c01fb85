"""Per-peer cache of updates awaiting shipment.

Updates queue per container in arrival order.  Draining a container
takes its whole queue at once, and additionally pulls in every update
belonging to any atomic group (block) that has a member in that queue,
wherever those siblings live, so a group never ships partially split
across batches.  Due-ness ordering across containers is the shipping
layer's job: it drains a container the moment its bound trips, and the
periodic timer visits overdue containers in canonical name order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import ContainerId, Update
from .errors import ProtocolError

# Blocks are numbered per origin cluster, so the globally unique group
# key is the pair (origin, block).
BlockKey = tuple[int, int]


@dataclass(slots=True)
class PendingCache:
    """FIFO queues of pending updates, grouped by container.

    With ``coalesce`` enabled, a new update replaces an older pending
    update for the same (container, key); block members are exempt so
    groups stay intact.  Coalescing is off by default, which keeps batch
    sizes exactly equal to arrival counts.
    """

    coalesce: bool = False
    queues: dict[ContainerId, list[Update]] = field(default_factory=dict)
    block_index: dict[BlockKey, dict[ContainerId, int]] = field(default_factory=dict)
    total_pending_count: int = 0
    peak_pending: dict[ContainerId, int] = field(default_factory=dict)
    _seen: set[tuple[int, int]] = field(default_factory=set)

    def enqueue(self, update: Update) -> None:
        """Append an update to its container queue.

        Re-enqueueing the same (origin, seq) is a protocol violation.
        """
        ident = (update.origin, update.seq)
        if ident in self._seen:
            raise ProtocolError(f"duplicate enqueue of update {ident}")
        self._seen.add(ident)

        queue = self.queues.setdefault(update.container, [])
        if self.coalesce and update.block is None:
            for i, old in enumerate(queue):
                if old.key == update.key and old.block is None:
                    del queue[i]
                    self.total_pending_count -= 1
                    break
        queue.append(update)
        self.total_pending_count += 1
        if len(queue) > self.peak_pending.get(update.container, 0):
            self.peak_pending[update.container] = len(queue)
        if update.block is not None:
            members = self.block_index.setdefault((update.origin, update.block), {})
            members[update.container] = members.get(update.container, 0) + 1

    def pending_count(self, cid: ContainerId) -> int:
        return len(self.queues.get(cid, ()))

    def drain(self, cids: list[ContainerId]) -> list[Update]:
        """Remove and return every update queued for the given containers,
        plus the complete membership of any block touched by them.

        Within each container the returned updates keep arrival order.
        Draining containers with nothing queued yields an empty list.
        """
        taken: list[Update] = []
        visited: set[ContainerId] = set()
        blocks: list[BlockKey] = []
        for cid in cids:
            if cid in visited:
                continue
            visited.add(cid)
            taken.extend(self._take_queue(cid, blocks))
        # Pull sibling members of every touched block from containers not
        # drained outright.  Newly discovered blocks cannot appear: only
        # the named members of already-listed blocks are removed.
        pulled: set[BlockKey] = set()
        for bkey in blocks:
            if bkey in pulled:
                continue
            pulled.add(bkey)
            members = self.block_index.pop(bkey, None)
            if not members:
                continue
            for cid in list(members):
                if cid in visited:
                    continue
                taken.extend(self._take_block_members(cid, bkey))
        return taken

    def _take_queue(self, cid: ContainerId, blocks: list[BlockKey]) -> list[Update]:
        queue = self.queues.pop(cid, None)
        if not queue:
            return []
        for u in queue:
            if u.block is not None:
                blocks.append((u.origin, u.block))
        self.total_pending_count -= len(queue)
        return queue

    def _take_block_members(self, cid: ContainerId, bkey: BlockKey) -> list[Update]:
        queue = self.queues.get(cid, [])
        members = [u for u in queue if u.block is not None and (u.origin, u.block) == bkey]
        if not members:
            return []
        remaining = [u for u in queue if u.block is None or (u.origin, u.block) != bkey]
        if remaining:
            self.queues[cid] = remaining
        else:
            del self.queues[cid]
        self.total_pending_count -= len(members)
        return members
