"""Per-window metrics, the CSV contract, and run comparison.

The CSV is the machine-readable record of a run.  Columns, in order:

    window_start_ms, link_src, link_dst, bytes, batches,
    max_batch_bytes, pending_max, staleness_max_ms

One row per (time window, link) with any activity, sorted by window
then link; header row mandatory; Unix line endings.  Identical
scenarios and seeds produce byte-identical files.  Host-dependent
figures (ingestion ops/sec) go to the JSON summary next to the CSV,
never into the CSV itself.

One ``MetricsCollector`` ledger maps each (window, link) to the record
its row is read from.  bytes/batches/max_batch_bytes and
staleness_max_ms are charged together at batch delivery, in the window
of the delivery instant.  staleness_max_ms is the oldest age (delivery
time minus the update's original write time) among updates delivered in
the window.  pending_max is the largest shipping backlog (updates queued
for the link) observed at an event boundary inside the window; a sample
of an empty backlog adds no row.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .errors import ScenarioError
from .shipping import Batch
from .simnet import Link

_wall_ms = attrgetter("wall_ms")


class Row(NamedTuple):
    """One (window, link) line of the CSV; its fields are the columns."""

    window_start_ms: int
    link_src: int
    link_dst: int
    bytes: int
    batches: int
    max_batch_bytes: int
    pending_max: int
    staleness_max_ms: int


CSV_COLUMNS = Row._fields


@dataclass(slots=True)
class LinkWindow:
    """One link's figures in one metric window: a CSV row in the making."""

    bytes: int = 0
    batches: int = 0
    max_batch_bytes: int = 0
    pending_max: int = 0
    staleness_max_ms: int = 0


@dataclass(slots=True)
class MetricsCollector:
    """The one ledger of per-window figures, keyed by (window, link);
    a record exists once its window saw a delivery or a nonzero backlog."""

    window_ms: int
    ledger: dict[tuple[int, Link], LinkWindow] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.window_ms <= 0:
            raise ScenarioError(f"metric window must be positive: {self.window_ms}")

    def note_delivery(self, link: Link, batch: Batch, now: int) -> None:
        key = (now // self.window_ms, link)
        record = self.ledger.get(key)
        if record is None:
            record = self.ledger[key] = LinkWindow()
        size = batch.total_bytes
        record.bytes += size
        record.batches += 1
        if size > record.max_batch_bytes:
            record.max_batch_bytes = size
        if batch.updates:
            age = now - min(map(_wall_ms, batch.updates))
            if age > record.staleness_max_ms:
                record.staleness_max_ms = age

    def sample_pending(self, link: Link, count: int, now: int) -> None:
        if count <= 0:
            return
        key = (now // self.window_ms, link)
        record = self.ledger.get(key)
        if record is None:
            record = self.ledger[key] = LinkWindow(pending_max=count)
        elif count > record.pending_max:
            record.pending_max = count

    def build_rows(self) -> list[Row]:
        """One row per ledger record, sorted by window, then link."""
        return [Row(window * self.window_ms, src, dst, r.bytes, r.batches,
                    r.max_batch_bytes, r.pending_max, r.staleness_max_ms)
                for (window, (src, dst)), r in sorted(self.ledger.items())]


def run_totals(rows: list[Row]) -> dict[str, int]:
    """A run's traffic totals, read off its rows, under the summary's keys."""
    return {
        "total_bytes": sum(r.bytes for r in rows),
        "total_batches": sum(r.batches for r in rows),
        "peak_window_bytes": max((r.bytes for r in rows), default=0),
        "max_batch_bytes": max((r.max_batch_bytes for r in rows), default=0),
    }


def write_csv(path: str | Path, rows: list[Row]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


def read_csv(path: str | Path) -> list[Row]:
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise ScenarioError(f"cannot read metrics CSV: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        # A row of the wrong length raises TypeError, a bad cell ValueError.
        try:
            if next(reader, None) != list(CSV_COLUMNS):
                raise ScenarioError(f"{path}: not a metrics CSV (bad header)")
            return [Row._make(map(_cell, line)) for line in reader if line]
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: metrics CSV is not UTF-8: {exc}") from exc
        except (TypeError, ValueError, csv.Error) as exc:
            raise ScenarioError(
                f"{path}: malformed metrics CSV at line {reader.line_num}: {exc}") from exc


def _cell(text: str) -> int:
    """A CSV cell as a non-negative integer of at most 64 bits: every
    column is a count, and a larger one would overflow the ratios."""
    value = int(text)
    if value < 0:
        raise ValueError(f"negative cell: {text!r}")
    if value.bit_length() > 63:
        raise ValueError(f"not a 64-bit integer: {text!r}")
    return value


def summary_path(csv_path: str | Path) -> Path:
    """A run's JSON summary sits beside its CSV: ``<stem>.summary.json``."""
    return Path(str(csv_path).removesuffix(".csv") + ".summary.json")


def write_summary(path: str | Path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True, slots=True)
class Comparison:
    """Peak, volume and batch-count relation of run B to run A, whose
    ``run_totals`` are ``b`` and ``a``; each ratio is B's over A's."""

    a: dict[str, int]
    b: dict[str, int]

    @property
    def peak_ratio(self) -> float:
        return self._ratio("peak_window_bytes")

    @property
    def total_ratio(self) -> float:
        return self._ratio("total_bytes")

    @property
    def batch_ratio(self) -> float:
        return self._ratio("total_batches")

    def _ratio(self, key: str) -> float:
        a, b = self.a[key], self.b[key]
        return math.inf if a == 0 and b else (b / a if a else 1.0)


def compare_runs(csv_a: str | Path, csv_b: str | Path) -> Comparison:
    """Compare two run CSVs produced with the same metric window size.

    A run's window size comes from the JSON summary next to its CSV.
    Two known sizes must be equal.  When only one is known, every window
    start of the other run must be a multiple of it; a run that writes
    no traffic into some windows does not show its own size, so nothing
    more can be told.  With no summary on either side there is no check.
    """
    rows_a, rows_b = read_csv(csv_a), read_csv(csv_b)
    win_a, win_b = _window_of(csv_a), _window_of(csv_b)
    if win_a is not None and win_b is not None and win_a != win_b:
        raise ScenarioError(
            f"metric window mismatch: {csv_a} uses {win_a}ms, {csv_b} uses {win_b}ms")
    for path, rows, other, window in ((csv_a, rows_a, csv_b, win_b),
                                      (csv_b, rows_b, csv_a, win_a)):
        if window is None:
            continue
        for r in rows:
            if r.window_start_ms % window:
                raise ScenarioError(
                    f"metric window mismatch: {path} has a window starting at "
                    f"{r.window_start_ms}ms, {other} uses {window}ms")
    return Comparison(run_totals(rows_a), run_totals(rows_b))


def format_comparison(comp: Comparison) -> str:
    a, b = comp.a, comp.b
    return "\n".join([
        f"peak window bytes : A={a['peak_window_bytes']} B={b['peak_window_bytes']} "
        f"ratio={comp.peak_ratio:.4f}",
        f"total bytes       : A={a['total_bytes']} B={b['total_bytes']} "
        f"ratio={comp.total_ratio:.4f}",
        f"batches           : A={a['total_batches']} B={b['total_batches']} "
        f"ratio={comp.batch_ratio:.4f}",
        f"max batch bytes   : A={a['max_batch_bytes']} B={b['max_batch_bytes']}",
    ])


def _window_of(csv_path: str | Path) -> int | None:
    """The window size in the run's JSON summary, or None without a
    readable one."""
    try:
        with open(summary_path(csv_path), encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    window = summary.get("window_ms") if isinstance(summary, dict) else None
    # A JSON true loads as a bool, which is an int to isinstance.
    return window if type(window) is int and window > 0 else None
