"""The simulation driver.

Builds clusters, links and sessions from a scenario, then drives the
workload stream itself: it iterates ``generate``, and each time the
arrival instant changes it closes the instant before (below) and calls
``SimNet.advance``, which runs every event queued before the new
instant and stops the clock on it.  The instant's ops are then applied
as they are generated, one at a time, before any other event at that
instant; no op is held in memory before it runs.  After the stream the
run goes to quiescence, then drains stragglers until nothing moves
anywhere.  Loose reads and writes go straight to their cluster;
sessions serve write groups only.

The engine, not the clusters, ticks and flushes every replication
source, in link order (by cluster, then by peer).  Only sources whose
``timed`` is true, those under the plain poll or holding a bound with a
lag, are ticked and asked about timer work.  The timer for lag
validation (or the plain-mode poll) is armed lazily, when an instant
closes and after each delivery and tick: one pending tick event at a
time, on a grid of multiples of the tick interval, and only while some
timed source actually has timer-driven work.  That keeps idle stretches
free of events without changing when anything ships.

Each link's shipping backlog feeds the ``pending_max`` column: the
engine keeps each link's running maximum for the open metric window and
writes it to the ledger once, when the window closes (at the first note
in a later window, or at the end of the run).  Every link is noted after
each delivery and tick, and at a window's first client op (before a
write group that opens it), so a backlog idle across a boundary still
counts in the new window.  Later in the window a write or a group raises
only its cluster's links and a read none: a backlog grows only during an
event of its own cluster, and ticks and drains only shrink it.

A run pauses the cyclic garbage collector and restores its previous
state when it ends, also when it fails.  A run makes no reference
cycle: reference counting frees everything it drops, and a collection
after a paused run finds nothing.  Left on, the collector would walk
the growing store dozens of times a run (about 70 passes on a
50,000-write burst) to find nothing.  Nor is a simulation a cycle: its
clusters read the clock through ``partial(getattr, net, "now")``, and
their sources reach ``_on_ship`` through a weak reference, so a
simulation that is dropped, run or not, is freed at once.

A replication source ships its own batches: each cluster hands the
engine's ``_on_ship`` to every source it builds, and a source calls it
once for every batch it cuts and returns none, so the tick and the
final flush read nothing back.  ``_on_ship`` adds the batch's updates
to a running count, the one owner of the summary's ``shipped_updates``,
and submits the batch to the network.  With ``keep_batches`` (the
default) it also keeps a ``BatchRecord``: the batch's header, its
delivery time and each update's ``(origin, seq)``, which is what the
structural tests and the benchmark's checks inspect; a record lives as
long as the run.  The network, remote apply and the metric ledger
get the ``Batch`` itself.  ``georep run`` reads no record, so it keeps
none, and ``RunResult.batches`` is then None rather than an empty list.

Kept records hold no update, so a value lives only as long as a store
or a queue holds it.  A record keeps a seq run, as an in-order link
ships it, as one ``(origin, first_seq, count)`` triple, so on such a
link records grow per batch; any other batch costs 16 bytes of
identity per update.  Without records, a run's memory is its live
state.  A cluster numbers its writes from a counter and keeps no log,
and the metric ledger grows with windows.
"""

from __future__ import annotations

import gc
import time
import weakref
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Iterable, NamedTuple

from .blocks import ClientSession
from .cluster import ClusterNode
from .metrics import MetricsCollector, Row, run_totals, summary_path, write_csv, write_summary
from .scenario import Scenario
from .shipping import Batch
from .simnet import DEFAULT_MAX_EVENTS, Link, SimNet
from .workload import ReadOp, TimedOp, WriteOp, generate


class UpdateId(NamedTuple):
    """The identity of one shipped update."""

    origin: int
    seq: int


class BatchRecord:
    """Trace entry for one shipped batch: its header, its delivery time
    (-1 until delivered) and its updates' identities.  A seq run
    (``Batch.run``) keeps them as one ``(origin, first_seq, count)``
    triple; any other batch keeps every update's origin, then every
    update's seq, in one ``array('q')``.  It holds no ``Update``, so it
    keeps no value alive.

    A record reads like the ``Batch`` it was cut from: ``record.batch``
    is the record itself, whose header fields bear the batch's names and
    whose ``updates`` builds the ``UpdateId`` pairs when read."""

    __slots__ = ("source", "destination", "created_ms", "trigger", "total_bytes",
                 "delivered_ms", "_ids")

    def __init__(self, batch: Batch) -> None:
        self.source, self.destination = batch.source, batch.destination
        self.created_ms, self.trigger = batch.created_ms, batch.trigger
        self.total_bytes, self.delivered_ms = batch.total_bytes, -1
        if batch.run is not None:
            self._ids = (*batch.run, len(batch.updates))
        else:
            updates = batch.updates
            self._ids = array("q", [u.origin for u in updates] + [u.seq for u in updates])

    @property
    def batch(self) -> BatchRecord:
        return self

    @property
    def updates(self) -> tuple[UpdateId, ...]:
        if type(self._ids) is tuple:
            origin, first, count = self._ids
            return tuple(map(UpdateId, repeat(origin, count), range(first, first + count)))
        ids, count = self._ids, len(self._ids) // 2
        return tuple(map(UpdateId, ids[:count], ids[count:]))


@dataclass(slots=True)
class RunResult:
    rows: list[Row]
    summary: dict
    # None when the run kept no records (``keep_batches=False``).
    batches: list[BatchRecord] | None
    csv_path: Path | None = None
    summary_path: Path | None = None


class Simulation:
    """One configured run; call run() exactly once.

    ``keep_batches`` keeps a ``BatchRecord`` of every shipped batch for
    ``RunResult.batches``; without it the run's memory does not grow
    with the updates it ships."""

    def __init__(self, scenario: Scenario, keep_batches: bool = True) -> None:
        self.scenario = scenario
        # One event per advanced instant, at most one per client action,
        # on top of DEFAULT_MAX_EVENTS for the events the run makes itself.
        self.net = SimNet(max_events=DEFAULT_MAX_EVENTS + scenario.workload.client_actions)
        for (src, dst), spec in scenario.links.items():
            self.net.add_link(src, dst, spec)
        self.clusters: dict[int, ClusterNode] = {}
        # Neither handle refers back to the simulation (module docstring).
        on_ship = partial(_ship_via, weakref.ref(self))
        for cid in scenario.clusters:
            peers = [dst for (src, dst) in scenario.links if src == cid]
            self.clusters[cid] = ClusterNode(
                cid, peers, scenario.bounds, scenario.default_bound, mode=scenario.mode,
                now_fn=partial(getattr, self.net, "now"), on_ship=on_ship)
        self.sessions = {cid: ClientSession(node) for cid, node in self.clusters.items()}
        self._sources = [source for cid in sorted(self.clusters)
                         for source in self.clusters[cid].sources]
        self.metrics = MetricsCollector(scenario.window_ms)
        # Each link's largest backlog noted in the open metric window,
        # and that window's index; see _note_backlogs.
        self._highs: dict[Link, int] = {}
        self._window = 0
        self.batches: list[BatchRecord] | None = [] if keep_batches else None
        self._shipped_updates = 0
        self._ran = False
        self._tick_armed = False
        self._timed = [source for source in self._sources if source.timed]
        self._client_ops = 0

    # -- shipping and delivery -----------------------------------------

    def _on_ship(self, batch: Batch) -> None:
        self._shipped_updates += len(batch.updates)
        record = None
        if self.batches is not None:
            record = BatchRecord(batch)
            self.batches.append(record)
        self.net.submit(batch, partial(self._deliver, record))

    def _deliver(self, record: BatchRecord | None, batch: Batch) -> None:
        now = self.net.now
        if record is not None:
            record.delivered_ms = now
        src, dst = batch.source, batch.destination
        node = self.clusters[dst]
        node.apply_remote(batch)
        self.metrics.note_delivery((src, dst), batch, now)
        self._note_backlogs()
        self._arm_tick()

    # -- timers ---------------------------------------------------------

    def _arm_tick(self) -> None:
        if self._tick_armed or not self._timed:
            return
        if not any(source.has_timer_work() for source in self._timed):
            return
        next_tick = (self.net.now // self.scenario.tick_ms + 1) * self.scenario.tick_ms
        self.net.schedule(next_tick, self._tick_event)
        self._tick_armed = True

    def _tick_event(self) -> None:
        self._tick_armed = False
        for source in self._timed:
            source.tick(self.net.now)
        self._note_backlogs()
        self._arm_tick()

    # -- workload -------------------------------------------------------

    def _play(self, ops: Iterable[TimedOp]) -> None:
        """Apply the op stream, advancing the network to each new
        instant after arming the timer as the one before closes.  An op
        that opens a metric window notes every backlog; later in the
        window a write raises its cluster's links inline, and a read
        raises none (module docstring)."""
        net, clusters, window_ms = self.net, self.clusters, self.metrics.window_ms
        highs = self._highs
        at = window = None
        client_ops = 0
        # Without timed sources, closing an instant has no timer to arm.
        timed = bool(self._timed)
        for at_ms, origin, op in ops:
            if at_ms != at:
                if at is not None and timed:
                    self._arm_tick()
                net.advance(at_ms)
                at, window = at_ms, at_ms // window_ms
            node = clusters[origin]
            kind = type(op)
            if kind is WriteOp:
                node.put(op.container, op.key, op.value)
                client_ops += 1
            elif kind is ReadOp:
                node.get(op.container, op.key)
                client_ops += 1
                if window == self._window:
                    continue
            else:
                if window != self._window:
                    self._note_backlogs()
                session = self.sessions[origin]
                session.start_block(op.mode)
                for cid, key, value in op.writes:
                    session.put(cid, key, value)
                session.end_block()
                client_ops += len(op.writes)
            if window != self._window:
                self._note_backlogs()
                continue
            for source in node.sources:
                count = source.cache.total_pending_count
                if count > highs.get(source.link, 0):
                    highs[source.link] = count
        if at is not None:
            self._arm_tick()
        self._client_ops += client_ops

    def _note_backlogs(self) -> None:
        """Raise every link's running maximum to its backlog, first
        writing out the maxima of a window the clock has left."""
        if self.net.now // self.metrics.window_ms != self._window:
            self._close_window()
        highs = self._highs
        for source in self._sources:
            count = source.cache.total_pending_count
            if count > highs.get(source.link, 0):
                highs[source.link] = count

    def _close_window(self) -> None:
        """Write each link's maximum in the open window to the ledger,
        once, and open the window the clock is in."""
        for link, high in self._highs.items():
            self.metrics.sample_pending(link, high, self._window * self.metrics.window_ms)
        self._highs.clear()
        self._window = self.net.now // self.metrics.window_ms

    # -- the run --------------------------------------------------------

    def run(self) -> RunResult:
        if self._ran:
            raise RuntimeError("a Simulation runs once")
        self._ran = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._play(generate(self.scenario.workload))
            self.net.run_until_quiescent()
            # Straggler flush: sources may refill each other through
            # relays, so drain and deliver until no source holds a
            # backlog.  A drain only submits batches, so nothing refills
            # a source mid-pass.
            while any(source.cache.total_pending_count for source in self._sources):
                for source in self._sources:
                    source.final_drain(self.net.now)
                self.net.run_until_quiescent()
            self._close_window()
            elapsed = max(time.perf_counter() - started, 1e-9)
            rows = self.metrics.build_rows()
            summary = self._summarize(rows, self._client_ops / elapsed)
        finally:
            if collecting:
                gc.enable()
        return RunResult(rows=rows, summary=summary, batches=self.batches)

    def _summarize(self, rows: list[Row], ops_per_sec: float) -> dict:
        nodes = {str(cid): self.clusters[cid] for cid in sorted(self.clusters)}
        # Digest one cluster in full and the others against it: only the
        # cells where two stores differ are hashed.
        first = next(iter(nodes.values()))
        first_digest = first.digest()
        pending_peaks: dict[str, int] = {}
        for source in self._sources:
            for cid, peak in source.cache.peaks().items():
                if peak > pending_peaks.get(cid, 0):
                    pending_peaks[cid] = peak
        return {
            "scenario": self.scenario.name,
            "mode": self.scenario.mode,
            "seed": self.scenario.workload.seed,
            "window_ms": self.scenario.window_ms,
            "final_ms": self.net.now,
            "operations": self._client_ops,
            "workload_updates": self.scenario.workload.total_updates,
            "shipped_updates": self._shipped_updates,
            **run_totals(rows),
            "max_staleness_ms": max((r.staleness_max_ms for r in rows), default=0),
            "pending_max_per_container": pending_peaks,
            "digests": {cid: first_digest if node is first else node.digest(first, first_digest)
                        for cid, node in nodes.items()},
            "applied": {cid: node.tally.applied for cid, node in nodes.items()},
            "stale_discarded": {cid: node.tally.stale_discarded for cid, node in nodes.items()},
            "duplicates": {cid: node.tally.duplicates for cid, node in nodes.items()},
            "echoes": {cid: node.tally.echoes for cid, node in nodes.items()},
            "ops_per_sec": round(ops_per_sec, 2),
        }


def _ship_via(sim: weakref.ref[Simulation], batch: Batch) -> None:
    """Hand ``batch`` to the simulation that ``sim`` refers to weakly."""
    sim()._on_ship(batch)


def run_scenario(scenario: Scenario, out_dir: str | Path = ".",
                 keep_batches: bool = True) -> RunResult:
    """Run a scenario and write its CSV and JSON summary into out_dir;
    ``keep_batches`` is passed to ``Simulation``.

    out_dir is made first, so an unusable one fails before the run, not
    after it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = Simulation(scenario, keep_batches).run()
    result.csv_path = out / f"{scenario.name}.csv"
    result.summary_path = summary_path(result.csv_path)
    write_csv(result.csv_path, result.rows)
    write_summary(result.summary_path, result.summary)
    return result
