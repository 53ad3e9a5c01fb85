"""The simulation driver.

Builds clusters, links and sessions from a scenario, streams the
workload into the event loop, runs to quiescence, then drains
stragglers until nothing moves anywhere.  The workload is not queued up
front: the loop pulls an arrival instant from ``generate`` only after
the previous instant has run, and the instant's ops are generated as
they are applied, one at a time, before any other event at that
instant.  No op is held in memory before it runs.  Loose reads and
writes go straight to their cluster; sessions serve write groups only.

The engine, not the clusters, ticks and flushes every replication
source, in link order (by cluster, then by peer).  Only sources whose
``timed`` is true, those under the plain poll or holding a bound with a
lag, are ticked and asked about timer work.  The timer for lag
validation (or the plain-mode poll) is armed lazily: one pending tick
event at a time, on a grid of multiples of the tick interval, and only
while some timed source actually has timer-driven work.  That keeps
idle stretches free of events without changing when anything ships.

Each link's shipping backlog is sampled for the ``pending_max`` column
at event boundaries.  A backlog only changes when its own cluster acts,
so after a delivery only the destination's links are sampled, after a
tick every link, and after a put or a write group the acting cluster's
links.  The first sample in each metric window takes every link, so a
backlog that sits unchanged across a window boundary is still recorded
in the new window; that first sample may follow any client action, and
a write group that opens a window takes it before the group, then
samples its cluster's links after the group closes.  A read changes no
backlog, so once the window holds a sample it takes none: every change
since the window's first sample was followed by a sample of its link,
so its sample would repeat a value the window already holds.

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

Kept records grow by 16 bytes of identity with every update shipped,
but hold no update, so a value lives only as long as a store or a queue
holds it; without them, a run's memory is its live state.  A cluster
numbers its writes from a counter and keeps no log, and the metric
ledger grows with windows.  The exactly-once filter in remote apply
stays one floor per origin where every seq arrives; below a relay that
discards stale updates it grows with the run (see ``cluster``).  A
pending cache checks only its own cluster's seqs, which always end as
one floor.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .blocks import ClientSession
from .cluster import ClusterNode
from .metrics import MetricsCollector, Row, run_totals, summary_path, write_csv, write_summary
from .scenario import Scenario
from .shipping import Batch
from .simnet import DEFAULT_MAX_EVENTS, SimNet
from .workload import ReadOp, TimedOp, WriteOp, generate


class UpdateId(NamedTuple):
    """The identity of one shipped update."""

    origin: int
    seq: int


class BatchRecord:
    """Trace entry for one shipped batch: its header, its delivery time
    (-1 until delivered) and each update's ``(origin, seq)``, packed two
    ``q`` entries an update.  It holds no ``Update``, so it keeps no
    value alive.

    A record reads like the ``Batch`` it was cut from: ``record.batch``
    is the record itself, whose header fields bear the batch's names and
    whose ``updates`` builds the ``UpdateId`` pairs when read."""

    __slots__ = ("source", "destination", "created_ms", "trigger", "total_bytes",
                 "delivered_ms", "_ids")

    def __init__(self, batch: Batch) -> None:
        self.source, self.destination = batch.source, batch.destination
        self.created_ms, self.trigger = batch.created_ms, batch.trigger
        self.total_bytes, self.delivered_ms = batch.total_bytes, -1
        self._ids = array("q", [i for u in batch.updates for i in (u.origin, u.seq)])

    @property
    def batch(self) -> BatchRecord:
        return self

    @property
    def updates(self) -> tuple[UpdateId, ...]:
        ids = iter(self._ids)
        return tuple(map(UpdateId, ids, ids))


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
        # One event per fed client action, at least one per fed instant,
        # on top of DEFAULT_MAX_EVENTS for the events the run makes itself.
        self.net = SimNet(max_events=DEFAULT_MAX_EVENTS + scenario.workload.client_actions)
        for (src, dst), spec in scenario.links.items():
            self.net.add_link(src, dst, spec)
        self.clusters: dict[int, ClusterNode] = {}
        for cid in scenario.clusters:
            peers = [dst for (src, dst) in scenario.links if src == cid]
            self.clusters[cid] = ClusterNode(
                cid, peers, scenario.bounds, scenario.default_bound,
                mode=scenario.mode, now_fn=lambda: self.net.now, on_ship=self._on_ship)
        self.sessions = {cid: ClientSession(node) for cid, node in self.clusters.items()}
        self._sources = [source for cid in sorted(self.clusters)
                         for source in self.clusters[cid].sources.values()]
        self.metrics = MetricsCollector(scenario.window_ms)
        # Metric window of the latest backlog sample; see _sample_pending.
        self._sampled_window = -1
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
        self._sample_pending((node,))
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
        self._sample_pending()
        self._arm_tick()

    # -- workload -------------------------------------------------------

    def _apply_ops(self, group: Iterable[TimedOp]) -> None:
        # A read skips the sample once this window holds one (module
        # docstring).  Every op of the group shares now.
        window = self.net.now // self.metrics.window_ms
        client_ops = 0
        for _, origin, op in group:
            node = self.clusters[origin]
            kind = type(op)
            if kind is WriteOp:
                node.put(op.container, op.key, op.value)
                client_ops += 1
            elif kind is ReadOp:
                node.get(op.container, op.key)
                client_ops += 1
                if window == self._sampled_window:
                    continue
            else:
                if window != self._sampled_window:
                    self._sample_pending()
                session = self.sessions[origin]
                session.start_block(op.mode)
                for cid, key, value in op.writes:
                    session.put(cid, key, value)
                session.end_block()
                client_ops += len(op.writes)
            self._sample_pending((node,))
        self._client_ops += client_ops
        self._arm_tick()

    def _sample_pending(self, changed: Iterable[ClusterNode] | None = None) -> None:
        """Sample the backlog of every link out of the ``changed``
        clusters (all of them when None, or when this is the first
        sample in a new metric window)."""
        now = self.net.now
        window = now // self.metrics.window_ms
        if changed is None or window != self._sampled_window:
            self._sampled_window = window
            changed = self.clusters.values()
        sample = self.metrics.sample_pending
        for node in changed:
            for source in node.sources.values():
                sample(source.link, source.cache.total_pending_count, now)

    # -- the run --------------------------------------------------------

    def run(self) -> RunResult:
        if self._ran:
            raise RuntimeError("a Simulation runs once")
        self._ran = True
        started = time.perf_counter()
        self.net.run_until_quiescent(self._instants())
        # Straggler flush: sources may refill each other through relays,
        # so drain and deliver until no source holds a backlog.  A drain
        # only submits batches, so nothing refills a source mid-pass.
        while any(source.cache.total_pending_count for source in self._sources):
            for source in self._sources:
                source.final_drain(self.net.now)
            self.net.run_until_quiescent()
        elapsed = max(time.perf_counter() - started, 1e-9)
        rows = self.metrics.build_rows()
        summary = self._summarize(rows, self._client_ops / elapsed)
        return RunResult(rows=rows, summary=summary, batches=self.batches)

    def _instants(self) -> Iterator[tuple[int, Callable[[], None]]]:
        """The workload as events, one per arrival instant.  Each hands
        ``_apply_ops`` its instant's lazy group, which generates the ops
        as they are applied; the event loop pulls an instant only after
        the one before it has run, so the group is never stale."""
        for at_ms, group in groupby(generate(self.scenario.workload), key=itemgetter(0)):
            yield at_ms, partial(self._apply_ops, group)

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
