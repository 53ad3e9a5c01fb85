"""CSV contract, the per-window ledger and run comparison."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georep.errors import ScenarioError
from georep.metrics import (
    CSV_COLUMNS,
    MetricsCollector,
    Row,
    compare_runs,
    format_comparison,
    read_csv,
    write_csv,
    write_summary,
)
from georep.shipping import Batch, Trigger
from georep.simnet import LinkSpec, SimNet

from conftest import make_update


def row(window=0, src=1, dst=2, **kwargs):
    base = dict(window_start_ms=window, link_src=src, link_dst=dst, bytes=100,
                batches=1, max_batch_bytes=100, pending_max=0, staleness_max_ms=5)
    base.update(kwargs)
    return Row(**base)


class TestCsvContract:
    def test_roundtrip(self, tmp_path):
        rows = [row(window=0), row(window=1000, bytes=250)]
        path = tmp_path / "run.csv"
        write_csv(path, rows)
        assert read_csv(path) == rows

    def test_header_is_pinned(self, tmp_path):
        path = tmp_path / "run.csv"
        write_csv(path, [])
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header == ("window_start_ms,link_src,link_dst,bytes,batches,"
                          "max_batch_bytes,pending_max,staleness_max_ms")

    def test_unix_line_endings(self, tmp_path):
        path = tmp_path / "run.csv"
        write_csv(path, [row()])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("time,stuff\n1,2\n", encoding="utf-8")
        with pytest.raises(ScenarioError, match="bad header"):
            read_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            read_csv(tmp_path / "absent.csv")


def batch_for(src, dst, n_updates=1):
    updates = [make_update(key=f"k{i}", origin=src) for i in range(n_updates)]
    return Batch.build(updates, src, dst, 0, Trigger.COUNT)


def delivered_through(window_ms, latency_ms, sends):
    """A collector charged by a network: each (at_ms, batch) is
    submitted at its instant on link 1>2 and noted on arrival."""
    net = SimNet()
    net.add_link(1, 2, LinkSpec(latency_ms=latency_ms))
    coll = MetricsCollector(window_ms=window_ms)

    def deliver(batch):
        coll.note_delivery((batch.source, batch.destination), batch, net.now)

    for at_ms, batch in sends:
        net.schedule(at_ms, lambda b=batch: net.submit(b, deliver))
    net.run_until_quiescent()
    return coll


class TestCollector:
    def batch_at(self, wall_times, created=0):
        updates = [make_update(key=f"k{i}", wall_ms=w)
                   for i, w in enumerate(wall_times)]
        return Batch.build(updates, 1, 2, created, Trigger.COUNT)

    def test_staleness_is_oldest_delivered_age(self):
        coll = MetricsCollector(window_ms=1000)
        coll.note_delivery((1, 2), self.batch_at([100, 700]), now=800)
        [r] = coll.build_rows()
        assert r.staleness_max_ms == 700

    def test_staleness_keeps_window_maximum(self):
        coll = MetricsCollector(window_ms=1000)
        coll.note_delivery((1, 2), self.batch_at([500]), now=600)
        coll.note_delivery((1, 2), self.batch_at([550]), now=650)
        [r] = coll.build_rows()
        assert (r.staleness_max_ms, r.batches) == (100, 2)

    def test_pending_sample_keeps_window_maximum(self):
        coll = MetricsCollector(window_ms=1000)
        coll.sample_pending((1, 2), 5, now=100)
        coll.sample_pending((1, 2), 9, now=200)
        coll.sample_pending((1, 2), 2, now=300)
        [r] = coll.build_rows()
        assert (r.pending_max, r.bytes, r.batches, r.staleness_max_ms) == (9, 0, 0, 0)

    def test_rows_merge_network_and_collector_views(self):
        batch = self.batch_at([0])
        coll = delivered_through(1000, 0, [(500, batch)])
        coll.sample_pending((1, 2), 3, now=1500)  # backlog-only window
        rows = coll.build_rows()
        assert [r.window_start_ms for r in rows] == [0, 1000]
        assert rows[0].bytes == batch.total_bytes
        assert rows[0].staleness_max_ms == 500
        assert rows[1].bytes == 0
        assert rows[1].pending_max == 3

    def test_rows_sorted_by_window_then_link(self):
        coll = MetricsCollector(window_ms=100)
        coll.sample_pending((2, 1), 1, now=0)
        coll.sample_pending((1, 2), 1, now=0)
        coll.sample_pending((1, 2), 1, now=250)
        rows = coll.build_rows()
        assert [(r.window_start_ms, r.link_src, r.link_dst) for r in rows] == \
            [(0, 1, 2), (0, 2, 1), (200, 1, 2)]


class TestWindowAccounting:
    def test_bytes_charged_to_the_delivery_window(self):
        batch = batch_for(1, 2)
        rows = delivered_through(1000, 10, [(995, batch)]).build_rows()
        # Charged in the window of t=1005, not of the send at t=995.
        assert [(r.window_start_ms, r.bytes) for r in rows] == [(1000, batch.total_bytes)]

    def test_window_totals_sum_to_delivered_bytes(self):
        batches = [batch_for(1, 2, n_updates=1 + i) for i in range(5)]
        sends = [(i * 77, b) for i, b in enumerate(batches)]
        rows = delivered_through(100, 30, sends).build_rows()
        assert len(rows) > 1
        assert sum(r.bytes for r in rows) == sum(b.total_bytes for b in batches)
        assert sum(r.batches for r in rows) == 5

    def test_max_batch_bytes_per_window(self):
        small, large = batch_for(1, 2, 1), batch_for(1, 2, 9)
        rows = delivered_through(1000, 0, [(0, small), (1, large)]).build_rows()
        assert [(r.window_start_ms, r.max_batch_bytes, r.batches) for r in rows] == \
            [(0, large.total_bytes, 2)]

    def test_non_positive_window_rejected(self):
        for window_ms in (0, -1):
            with pytest.raises(ScenarioError, match="metric window must be positive"):
                MetricsCollector(window_ms=window_ms)


def reference_rows(window_ms, events):
    """The rows the collector gave when its figures lived in five maps
    (bytes, batches and max batch size per link on the network side,
    staleness and backlog maxima per (link, window) in the collector)
    merged over the union of their keys."""
    bytes_, batches, max_batch = {}, {}, {}
    staleness, pending = {}, {}
    for kind, link, payload, now in events:
        key = (link, now // window_ms)
        if kind == "deliver":
            size = payload.total_bytes
            bytes_[key] = bytes_.get(key, 0) + size
            batches[key] = batches.get(key, 0) + 1
            if size > max_batch.get(key, 0):
                max_batch[key] = size
            worst = staleness.get(key, 0)
            for u in payload.updates:
                worst = max(worst, now - u.wall_ms)
            staleness[key] = worst
        elif payload > pending.get(key, 0):
            pending[key] = payload
    keys = set(bytes_) | set(staleness) | set(pending)
    return [Row(w * window_ms, link[0], link[1], bytes_.get((link, w), 0),
                batches.get((link, w), 0), max_batch.get((link, w), 0),
                pending.get((link, w), 0), staleness.get((link, w), 0))
            for link, w in sorted(keys, key=lambda k: (k[1], k[0]))]


@st.composite
def ledger_events(draw):
    links = draw(st.lists(st.sampled_from([(1, 2), (2, 1), (2, 3)]),
                          min_size=1, max_size=3, unique=True))
    now, events = 0, []
    for _ in range(draw(st.integers(0, 40))):
        now += draw(st.integers(0, 700))
        link = draw(st.sampled_from(links))
        if draw(st.booleans()):
            # Ages from 0 up, so a batch written at its delivery instant
            # (age 0) and an empty batch both occur.
            ages = draw(st.lists(st.integers(0, 2000), max_size=4))
            updates = [make_update(key=f"k{i}", wall_ms=now - age)
                       for i, age in enumerate(ages)]
            batch = Batch.build(updates, link[0], link[1], now, Trigger.COUNT)
            events.append(("deliver", link, batch, now))
        else:
            events.append(("sample", link, draw(st.integers(0, 5)), now))
    return events


@settings(max_examples=300, deadline=None)
@given(window_ms=st.integers(1, 1000), events=ledger_events())
def test_ledger_rows_match_the_five_map_merge(window_ms, events):
    coll = MetricsCollector(window_ms=window_ms)
    for kind, link, payload, now in events:
        if kind == "deliver":
            coll.note_delivery(link, payload, now)
        else:
            coll.sample_pending(link, payload, now)
    assert coll.build_rows() == reference_rows(window_ms, events)


class TestComparison:
    def write_run(self, tmp_path, name, rows, window_ms=None):
        path = tmp_path / f"{name}.csv"
        write_csv(path, rows)
        if window_ms is not None:
            write_summary(tmp_path / f"{name}.summary.json",
                          {"window_ms": window_ms})
        return path

    def test_identical_files_give_unit_ratios(self, tmp_path):
        rows = [row(window=0), row(window=1000)]
        a = self.write_run(tmp_path, "a", rows)
        b = self.write_run(tmp_path, "b", rows)
        comp = compare_runs(a, b)
        assert comp.peak_ratio == 1.0
        assert comp.total_ratio == 1.0
        assert comp.batch_ratio == 1.0

    def test_ratios_relate_b_to_a(self, tmp_path):
        a = self.write_run(tmp_path, "a", [row(bytes=1000, batches=10,
                                               max_batch_bytes=100)])
        b = self.write_run(tmp_path, "b", [row(bytes=250, batches=5,
                                               max_batch_bytes=50)])
        comp = compare_runs(a, b)
        assert comp.peak_ratio == 0.25
        assert comp.batch_ratio == 0.5

    def test_window_mismatch_rejected_via_summaries(self, tmp_path):
        a = self.write_run(tmp_path, "a", [row()], window_ms=1000)
        b = self.write_run(tmp_path, "b", [row()], window_ms=100)
        with pytest.raises(ScenarioError, match="window mismatch"):
            compare_runs(a, b)

    def test_window_inferred_from_starts_when_no_summary(self, tmp_path):
        # b has no summary, but its window at 1000 cannot start on a's
        # 300 ms grid.
        a = self.write_run(tmp_path, "a", [row(window=0), row(window=300),
                                           row(window=600)], window_ms=300)
        b = self.write_run(tmp_path, "b", [row(window=1000)])
        with pytest.raises(ScenarioError, match="window mismatch"):
            compare_runs(a, b)
        with pytest.raises(ScenarioError, match="window mismatch"):
            compare_runs(b, a)

    def test_sparse_starts_without_summary_fit_a_known_window(self, tmp_path):
        # Traffic only in even windows makes the starts look like 2000 ms
        # windows, yet every start lies on the 1000 ms grid.
        a = self.write_run(tmp_path, "a", [row(window=0), row(window=1000)],
                           window_ms=1000)
        b = self.write_run(tmp_path, "b", [row(window=2000), row(window=4000)])
        assert compare_runs(a, b).total_ratio == 1.0
        assert compare_runs(b, a).total_ratio == 1.0

    def test_no_summaries_give_no_verdict(self, tmp_path):
        a = self.write_run(tmp_path, "a", [row(window=0), row(window=300),
                                           row(window=600)])
        b = self.write_run(tmp_path, "b", [row(window=1000)])
        assert compare_runs(a, b).total_ratio == 1 / 3

    def test_empty_b_run_compares_cleanly(self, tmp_path):
        a = self.write_run(tmp_path, "a", [row(bytes=100)])
        b = self.write_run(tmp_path, "b", [])
        comp = compare_runs(a, b)
        assert comp.peak_ratio == 0.0

    def test_zero_baseline_with_traffic_is_infinite(self, tmp_path):
        a = self.write_run(tmp_path, "a", [])
        b = self.write_run(tmp_path, "b", [row(bytes=100)])
        assert compare_runs(a, b).peak_ratio == math.inf

    def test_format_mentions_every_figure(self, tmp_path):
        a = self.write_run(tmp_path, "a", [row()])
        text = format_comparison(compare_runs(a, a))
        for label in ("peak window bytes", "total bytes", "batches",
                      "max batch bytes"):
            assert label in text
        assert "ratio=1.0000" in text


def test_summary_is_stable_json(tmp_path):
    path = tmp_path / "s.summary.json"
    write_summary(path, {"b": 2, "a": 1})
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1, "b": 2}
    assert text.index('"a"') < text.index('"b"')  # sorted keys
