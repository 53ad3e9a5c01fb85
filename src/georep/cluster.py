"""A simulated data-center replica.

Each cluster owns a key-value store keyed by container, a counter that
numbers its local writes, and one replication source per peer, built
with the node's required ``on_ship``: a source hands it each batch it
cuts, once, and returns nothing, so the node only offers it updates; the
engine ticks and flushes every source itself.  No log of past writes is
kept: nothing reads one back.  A store cell is the ``Update`` that wrote
it: a local write stores the update it creates, and a remote batch
stores the delivered update objects, so a replica keeps no copy of its
own.  A local write that overwrites a cell takes the cell's key object
for its update: where one origin writes a key, its cells' dict keys and
all of its updates, at every replica, share one string object.

Local writes apply unconditionally; remote batches apply under
last-writer-wins on ``Update.version``, the triple
``(wall_ms, origin, seq)``: the greater triple overwrites, timestamp
ties break toward the larger origin id, and one origin's writes within a
millisecond keep their program order, so every replica resolves
conflicts identically.  Updates applied from a remote batch are offered
onward to the cluster's other peers with their original origin intact,
so loops of any length stay echo-free; a batch's groups go onward in
one group offer, each with its stale members, which are not applied, so
no hop sees half a group.  The onward hop waits under the relay's own
bound for the container, so bounds compose per hop: over a k-hop path,
the worst-case staleness, counted from the origin's ``wall_ms``, is the
sum of each hop's lag limit, tick and latency.  An IMMEDIATE group waits
at no hop, so its worst case is the sum of the k latencies, plus any
outage.  VFC (Santos, Veiga & Ferreira, Middleware 2007) and TACT (Yu &
Vahdat, TOCS 2002) bound a replica's divergence end to end instead.

Exactly-once needs no record of past identities: remote apply sorts
each copy by its version against the cell's.  A newer copy is applied;
a copy with the cell's own ``(origin, seq)`` is a duplicate; an older
one is stale.  Cells only grow, so a copy seen before, whether it was
stored or found stale then, never beats its cell again.  The node's
``tally`` is its one record of remote apply: ``apply_remote`` returns
None and adds each batch's counts there.

A store's digest is the XOR of one SHA-256 per cell.  Replicas that
converged hold the very same update objects, so a digest can start from
a peer's known digest and XOR in only the cells that differ: a
container whose cell dict equals the peer's is skipped whole, and
elsewhere a cell that is the identical object under the same key on
both sides; the shared cells cancel out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter, countOf
from typing import Callable

from .bounds import Bound, ContainerId, Group, Update
from .errors import ProtocolError
from .shipping import Batch, ReplicationSource

# Digest of a store with no cells.
EMPTY_DIGEST = "0" * 64

# Cells hashed per chunk of a digest: enough to fold their hashes in a
# few big-int steps, few enough that no chunk approaches a store's size.
DIGEST_CHUNK = 256

# Cells by container, then by key; a cell is the update that wrote it.
Store = dict[ContainerId, dict[str, Update]]

# Columns of a batch's updates, read per batch at C speed.
_seq, _origin = attrgetter("seq"), attrgetter("origin")


@dataclass(slots=True)
class ApplyReport:
    """A node's running outcome counts of remote batch application.

    ``duplicates`` counts copies of the very update a cell holds, and
    ``stale_discarded`` copies older than the cell, a repeat of an
    update since overwritten included.  ``echoes`` counts copies back
    at their own origin, each also classified like any other copy."""

    applied: int = 0
    stale_discarded: int = 0
    duplicates: int = 0
    echoes: int = 0


class ClusterNode:
    """One replica cluster inside the simulation."""

    def __init__(self, cluster_id: int, peers: list[int],
                 bounds: dict[ContainerId, Bound] | None = None,
                 default_bound: Bound = Bound(), mode: str = "bounded",
                 now_fn: Callable[[], int] = lambda: 0, *,
                 on_ship: Callable[[Batch], None]) -> None:
        self.cluster_id = cluster_id
        self.now_fn = now_fn
        self.store: Store = {}
        # Seq of the latest local write; the next one gets last_seq + 1.
        self.last_seq = 0
        # One source per peer, in peer order.
        self.sources: tuple[ReplicationSource, ...] = tuple(
            ReplicationSource(cluster_id, peer, bounds, default_bound, mode, on_ship=on_ship)
            for peer in sorted(peers))
        self.tally = ApplyReport()

    # -- local write path ----------------------------------------------

    def local_put(self, cid: ContainerId, key: str, value: bytes,
                  block: Group | None = None) -> Update:
        """Durably apply one local write; the caller decides when it is
        offered for replication (immediately, or on group close)."""
        self.last_seq += 1
        cells = self.store.get(cid)
        if cells is None:
            cells = self.store[cid] = {}
        cell = cells.get(key)
        if cell is not None:
            key = cell.key
        update = Update(cid, key, value, self.now_fn(), self.cluster_id, self.last_seq, block)
        cells[key] = update
        return update

    def put(self, cid: ContainerId, key: str, value: bytes) -> Update:
        """Write locally and offer the update to every peer in one step."""
        update = self.local_put(cid, key, value)
        now = update.wall_ms
        for source in self.sources:
            source.offer(update, now)
        return update

    def get(self, cid: ContainerId, key: str) -> bytes | None:
        cells = self.store.get(cid)
        cell = None if cells is None else cells.get(key)
        return None if cell is None else cell.value

    def offer(self, updates: list[Update], sender: int | None = None) -> None:
        """Offer updates to every peer but ``sender``: each loose update
        alone, then all grouped ones in one group offer."""
        sources = [source for source in self.sources if source.peer != sender]
        if not sources:
            return
        now = self.now_fn()
        grouped = [u for u in updates if u.block is not None]
        loose = [u for u in updates if u.block is None] if grouped else updates
        for source in sources:
            for u in loose:
                source.offer(u, now)
            if grouped:
                source.offer_group(grouped, now)

    # -- remote apply path ----------------------------------------------

    def apply_remote(self, batch: Batch) -> None:
        """Apply a delivered batch in one atomic step.

        Each copy is compared with its cell under last-writer-wins: a
        newer one is stored, one with the cell's ``(origin, seq)`` is a
        duplicate, and an older one is stale, so redelivery is harmless.
        A batch holding a seq below 1 raises ProtocolError before
        anything is stored or counted; a seq run (``Batch.run``) is
        checked by its first seq.  Freshly applied updates, then the
        stale members of their groups, are offered to every peer other
        than the batch's own sender.  The container's cell dict is
        looked up once per run of same-container updates.  The batch's
        counts are added to ``tally``.
        """
        if batch.destination != self.cluster_id:
            raise ProtocolError(
                f"batch for cluster {batch.destination} delivered to {self.cluster_id}")
        updates, run, me = batch.updates, batch.run, self.cluster_id
        lowest = run[1] if run is not None else min(map(_seq, updates), default=1)
        if lowest < 1:
            bad = next(u for u in updates if u.seq < 1)
            raise ProtocolError(
                f"update ({bad.origin}, {bad.seq}) has a sequence number below 1")
        tally = self.tally
        if run is not None:
            if run[0] == me:
                tally.echoes += len(updates)
        else:
            tally.echoes += countOf(map(_origin, updates), me)
        store = self.store
        fresh: list[Update] = []
        stale_members: list[Update] = []
        cid = cells = None
        for u in updates:
            if u.container is not cid and u.container != cid:
                cid = u.container
                cells = store.get(cid)
                if cells is None:
                    cells = store[cid] = {}
            cell = cells.get(u.key)
            # Update.version, compared inline: the (origin, seq) pairs
            # are built only when the wall clocks tie.
            if cell is None or u.wall_ms > cell.wall_ms or (
                    u.wall_ms == cell.wall_ms and (u.origin, u.seq) > (cell.origin, cell.seq)):
                cells[u.key] = u
                fresh.append(u)
            elif u.seq == cell.seq and u.origin == cell.origin:
                tally.duplicates += 1
            else:
                tally.stale_discarded += 1
                if u.block is not None:
                    stale_members.append(u)
        if fresh:
            # A set of groups is only probed for membership, never iterated.
            blocks = {u.block for u in fresh} if stale_members else ()
            self.offer(fresh + [u for u in stale_members if u.block in blocks], batch.source)
        tally.applied += len(fresh)

    # -- inspection ----------------------------------------------------

    def digest(self, base: ClusterNode | None = None, base_digest: str = "") -> str:
        """Order-independent hash of every stored cell.

        XOR of per-cell SHA-256 digests of ``label|key|wall_ms|origin|value``;
        stores with the same cells give the same hex string no matter the
        insertion order.  An empty store hashes to all zeros.

        Given ``base`` and ``base_digest``, the digest of ``base``'s
        current store, only the cells that differ between the two stores
        are hashed, from both sides, and XORed into ``base_digest``; the
        shared cells would cancel.  A container whose cell dict equals
        ``base``'s (``==``, which checks identity first) is skipped
        whole: equal updates hash alike, so its cells cancel too.  In any
        other container, a cell is skipped when it is the identical
        object under the same key in both stores.  When nothing here was
        hashed and both stores hold the same containers at the same
        sizes, ``base`` holds no other cell, so its side is not walked.
        """
        if base is None:
            return f"{_xor_cells(self.store, {})[0]:064x}"
        acc, hashed = _xor_cells(self.store, base.store)
        if hashed or not _same_shape(self.store, base.store):
            acc ^= _xor_cells(base.store, self.store)[0]
        return f"{int(base_digest, 16) ^ acc:064x}"


def _xor_cells(store: Store, other: Store) -> tuple[int, int]:
    """XOR of the cell hashes of ``store``, skipping each container whose
    cell dict equals its twin in ``other`` and, in the others, each cell
    that is the identical object under the same key in ``other``, and the
    number of cells hashed.

    A container absent from ``other``, as every one is in a full digest,
    is hashed with no per-cell twin lookup, from its live dict; in any
    other, only the cells that differ are listed.  Cells are hashed
    ``DIGEST_CHUNK`` at a time; a chunk's hashes are joined and folded
    into one word (``_fold``)."""
    acc = hashed = 0
    sha256 = hashlib.sha256
    for cid, cells in store.items():
        twins = other.get(cid)
        if twins is None:
            items, count = iter(cells.items()), len(cells)
        elif twins == cells:
            continue
        else:
            differ = [(key, cell) for key, cell in cells.items() if twins.get(key) is not cell]
            items, count = iter(differ), len(differ)
        label = cid.encode("utf-8")
        for _ in range(0, count, DIGEST_CHUNK):
            words = b"".join([
                sha256(b"%b|%b|%d|%d|%b" % (label, key.encode("utf-8"), cell.wall_ms,
                                           cell.origin, cell.value)).digest()
                for key, cell in islice(items, DIGEST_CHUNK)])
            acc ^= _fold(words)
        hashed += count
    return acc, hashed


def _fold(words: bytes) -> int:
    """XOR of the 32-byte big-endian words joined in ``words``: the
    whole string is read as one big int, whose high half is XORed onto
    its low half until one word is left, a few C-level steps in all."""
    acc, n = int.from_bytes(words, "big"), len(words) // 32
    while n > 1:
        low = n - n // 2
        acc = (acc >> (256 * low)) ^ (acc & ((1 << (256 * low)) - 1))
        n = low
    return acc


def _same_shape(store: Store, other: Store) -> bool:
    """Whether both stores hold the same containers, each of the same
    size in both."""
    return store.keys() == other.keys() and all(
        len(cells) == len(other[cid]) for cid, cells in store.items())
