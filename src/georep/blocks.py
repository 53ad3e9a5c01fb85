"""Client sessions and atomically replicated write groups.

A session targets one cluster and serves its write groups; a write
outside one follows the normal per-container bound evaluation.  Between
start_block and end_block, writes apply locally right away (local
visibility is never deferred) but are withheld from replication and
then offered to the peers as one group when the block closes:

* IMMEDIATE blocks ship as one batch at close, and on arrival at every
  relay, with everything else the involved containers hold back.
* ANY blocks become eligible at close; the whole group ships the first
  time the bound rule trips for any involved container, which the
  close itself may cause.  If a member container replicates
  immediately (all-inactive bound), the group ships at close.

Blocks do not nest and a session holds at most one open block.  A block
is one ``Group``, shared by all its members and carrying its mode; the
close sets its ``containers`` before any peer sees a member.  A relay
offers the groups of a delivered batch as one, IMMEDIATE if any is.
"""

from __future__ import annotations

import enum

from .bounds import ContainerId, Group, Update
from .cluster import ClusterNode
from .errors import ProtocolError


class BlockMode(enum.Enum):
    """How a closed write group reaches the peers."""

    IMMEDIATE = "immediate"
    ANY = "any"


class ClientSession:
    """One client's handle on a cluster, with optional write grouping."""

    def __init__(self, cluster: ClusterNode) -> None:
        self.cluster = cluster
        # The open block as (group, members written so far), or None.
        self._block: tuple[Group, list[Update]] | None = None

    def start_block(self, mode: BlockMode) -> Group:
        """Open a write group and return it.  Groups do not nest."""
        if self._block is not None:
            raise ProtocolError("a block is already open on this session")
        self._block = (Group(immediate=mode is BlockMode.IMMEDIATE), [])
        return self._block[0]

    def put(self, cid: ContainerId, key: str, value: bytes) -> Update:
        """Write one cell.

        Locally durable and visible immediately either way; replication
        is immediate-path outside a block, deferred to close inside one.
        """
        block = self._block
        if block is None:
            return self.cluster.put(cid, key, value)
        update = self.cluster.local_put(cid, key, value, block=block[0])
        block[1].append(update)
        return update

    def end_block(self) -> None:
        """Close the open group and hand it to replication whole."""
        if self._block is None:
            raise ProtocolError("no block open on this session")
        group, updates = self._block
        self._block = None
        if updates:
            group.containers = tuple({u.container: None for u in updates})
            self.cluster.offer(updates)
