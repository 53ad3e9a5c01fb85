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
so loops of any length stay echo-free; fresh members that share a
``Group`` go onward as one group.  The onward hop waits under the
relay's own bound for the container, so bounds compose per hop: over a
k-hop path, the worst-case staleness, counted from the origin's
``wall_ms``, is the sum of each hop's lag limit, tick and latency.  An
IMMEDIATE group waits at no hop, so its worst case is the sum of the k
latencies, plus any outage.  VFC (Santos, Veiga & Ferreira, Middleware
2007) and TACT (Yu & Vahdat, TOCS 2002) bound a replica's divergence
end to end instead.

Redelivery is harmless: a ``SeqWindow`` remembers the ``(origin, seq)``
of every update applied from a remote batch as one floor per origin
plus the seqs that arrived ahead of a gap, and a second copy counts as
a duplicate.  In a full mesh every origin's seqs all reach every other
cluster, so each window ends as one floor per origin.  Gaps stay open
only for seqs that never arrive: on paths that reach a cluster only
through a relay, updates the relay discarded as stale.  A batch that is
a seq run (``Batch.run``), as an in-order link ships one, is checked
against the window as a range: when it follows on from its origin's
floor, it costs one seq check and one floor move, not one of each per
update.  The node's ``tally`` is its one record of remote apply:
``apply_remote`` returns None and adds each batch's counts there.

A store's digest is the XOR of one SHA-256 per cell.  Replicas that
converged hold the very same update objects, so a digest can start from
a peer's known digest and XOR in only the cells that are not the
identical object under the same key on both sides; the shared cells
cancel out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from .bounds import Bound, ContainerId, Group, SeqWindow, Update
from .errors import ProtocolError
from .shipping import Batch, ReplicationSource

# Digest of a store with no cells.
EMPTY_DIGEST = "0" * 64

# Cells hashed per chunk of a digest: enough to fold their hashes in a
# few big-int steps, few enough that no chunk approaches a store's size.
DIGEST_CHUNK = 256

# Cells by container, then by key; a cell is the update that wrote it.
Store = dict[ContainerId, dict[str, Update]]


@dataclass(slots=True)
class ApplyReport:
    """A node's running outcome counts of remote batch application.
    An echo, an update back at its own origin, also counts as stale."""

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
        self.sources: dict[int, ReplicationSource] = {
            peer: ReplicationSource(cluster_id, peer, bounds, default_bound, mode, on_ship=on_ship)
            for peer in sorted(peers)
        }
        self._applied = SeqWindow()
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
        for source in self.sources.values():
            source.offer(update, now)
        return update

    def get(self, cid: ContainerId, key: str) -> bytes | None:
        cells = self.store.get(cid)
        cell = None if cells is None else cells.get(key)
        return None if cell is None else cell.value

    def offer_group(self, updates: list[Update]) -> None:
        """Offer a closed atomic group of local updates to every peer."""
        now = self.now_fn()
        for source in self.sources.values():
            source.offer_group(updates, now)

    # -- remote apply path ----------------------------------------------

    def apply_remote(self, batch: Batch) -> None:
        """Apply a delivered batch in one atomic step.

        Last-writer-wins per cell; already-seen updates are skipped so
        redelivery is harmless.  A batch holding a seq below 1 raises
        ProtocolError before anything is stored or remembered.  A seq
        run (``Batch.run``) from another origin that follows on from the
        window's floor for that origin, while the origin holds no early
        seqs, is checked and recorded in one step: one seq check and one
        floor move, and every update in it is new.  Any other batch is
        checked and recorded one update at a time.  Freshly applied
        updates are relayed to every peer other than the batch's own
        sender.  The container's cell dict is looked up once per run of
        same-container updates.  The batch's counts are added to
        ``tally``.
        """
        if batch.destination != self.cluster_id:
            raise ProtocolError(
                f"batch for cluster {batch.destination} delivered to {self.cluster_id}")
        updates, run, me = batch.updates, batch.run, self.cluster_id
        tally = self.tally
        if run is not None and run[0] != me and self._applied.add_run(*run, len(updates)):
            first_sight = None  # every update is new and none is an echo
        else:
            for u in updates:
                if u.seq < 1:
                    raise ProtocolError(
                        f"update ({u.origin}, {u.seq}) has a sequence number below 1")
            first_sight = self._applied.add
        store = self.store
        fresh: list[Update] = []
        cid = cells = None
        for u in updates:
            if first_sight is not None:
                if u.origin == me:
                    tally.echoes += 1
                if not first_sight(u.origin, u.seq):
                    tally.duplicates += 1
                    continue
            if u.container is not cid and u.container != cid:
                cid = u.container
                cells = store.get(cid)
                if cells is None:
                    cells = store[cid] = {}
            cell = cells.get(u.key)
            # Update.version, compared inline.
            if cell is None or (u.wall_ms, u.origin, u.seq) > (
                    cell.wall_ms, cell.origin, cell.seq):
                cells[u.key] = u
                fresh.append(u)
            else:
                tally.stale_discarded += 1
        if fresh:
            self._relay(fresh, exclude_peer=batch.source)
        tally.applied += len(fresh)

    def _relay(self, updates: list[Update], exclude_peer: int) -> None:
        if not self.sources.keys() - {exclude_peer}:
            return  # no peer but the sender
        now = self.now_fn()
        singles: list[Update] = []
        groups: dict[Group, list[Update]] = {}
        for u in updates:
            if u.block is None:
                singles.append(u)
            else:
                groups.setdefault(u.block, []).append(u)
        for peer, source in self.sources.items():
            if peer == exclude_peer:
                continue
            for u in singles:
                source.offer(u, now)
            for members in groups.values():
                source.offer_group(members, now)

    # -- inspection ----------------------------------------------------

    def digest(self, base: ClusterNode | None = None, base_digest: str = "") -> str:
        """Order-independent hash of every stored cell.

        XOR of per-cell SHA-256 digests of ``label|key|wall_ms|origin|value``;
        stores with the same cells give the same hex string no matter the
        insertion order.  An empty store hashes to all zeros.

        Given ``base`` and ``base_digest``, the digest of ``base``'s
        current store, only the cells that are not the identical object
        under the same key in both stores are hashed, from both sides,
        and XORed into ``base_digest``; the shared cells would cancel.
        When every cell here has its twin in ``base`` and both stores
        hold the same containers at the same sizes, ``base`` holds no
        other cell, so its side is not walked.
        """
        if base is None:
            return f"{_xor_cells(self.store, {})[0]:064x}"
        acc, hashed = _xor_cells(self.store, base.store)
        if hashed or not _same_shape(self.store, base.store):
            acc ^= _xor_cells(base.store, self.store)[0]
        return f"{int(base_digest, 16) ^ acc:064x}"


def _xor_cells(store: Store, other: Store) -> tuple[int, int]:
    """XOR of the cell hashes of ``store``, skipping each cell that is
    the identical object under the same key in ``other``, and the number
    of cells hashed.

    Cells are taken from the live dicts ``DIGEST_CHUNK`` at a time, never
    listed whole; a chunk's hashes are joined and folded into one word
    (``_fold``)."""
    acc = hashed = 0
    sha256 = hashlib.sha256
    for cid, cells in store.items():
        label = cid.encode("utf-8")
        twins = other.get(cid, {})
        items = iter(cells.items())
        for _ in range(0, len(cells), DIGEST_CHUNK):
            words = b"".join([
                sha256(b"%b|%b|%d|%d|%b" % (label, key.encode("utf-8"), cell.wall_ms,
                                           cell.origin, cell.value)).digest()
                for key, cell in islice(items, DIGEST_CHUNK) if twins.get(key) is not cell])
            if words:
                acc ^= _fold(words)
                hashed += len(words) // 32
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
