"""Event loop, link latency and partitions."""

import pytest

from georep.errors import LivelockError, ScenarioError
from georep.shipping import Batch, Trigger
from georep.simnet import LinkSpec, SimNet

from conftest import make_update


def batch_for(src, dst, n_updates=1):
    updates = [make_update(key=f"k{i}", origin=src) for i in range(n_updates)]
    return Batch.build(updates, src, dst, 0, Trigger.COUNT)


class TestLinkSpec:
    def test_negative_latency_rejected(self):
        with pytest.raises(ScenarioError):
            LinkSpec(latency_ms=-1)

    def test_empty_interval_rejected(self):
        with pytest.raises(ScenarioError):
            LinkSpec(latency_ms=0, partitions=((100, 100),))

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ScenarioError):
            LinkSpec(latency_ms=0, partitions=((0, 100), (50, 200)))

    def test_down_until_is_half_open(self):
        spec = LinkSpec(latency_ms=0, partitions=((100, 200),))
        assert spec.down_until(99) is None
        assert spec.down_until(100) == 200
        assert spec.down_until(199) == 200
        assert spec.down_until(200) is None


class TestDelivery:
    def test_latency_delays_delivery(self):
        net = SimNet()
        net.add_link(1, 2, LinkSpec(latency_ms=10))
        delivered = []
        net.schedule(100, lambda: net.submit(batch_for(1, 2),
                                             lambda b: delivered.append(net.now)))
        net.run_until_quiescent()
        assert delivered == [110]

    def test_partition_defers_to_outage_end(self):
        net = SimNet()
        net.add_link(1, 2, LinkSpec(latency_ms=10, partitions=((100, 200),)))
        delivered = []
        net.schedule(150, lambda: net.submit(batch_for(1, 2),
                                             lambda b: delivered.append(net.now)))
        net.run_until_quiescent()
        assert delivered == [210]

    def test_same_instant_batches_keep_submission_order(self):
        net = SimNet()
        net.add_link(1, 2, LinkSpec(latency_ms=5))
        order = []
        first, second = batch_for(1, 2), batch_for(1, 2)

        def both():
            net.submit(first, lambda b: order.append("first"))
            net.submit(second, lambda b: order.append("second"))

        net.schedule(0, both)
        net.run_until_quiescent()
        assert order == ["first", "second"]

    def test_unknown_link_rejected(self):
        net = SimNet()
        with pytest.raises(ScenarioError):
            net.submit(batch_for(1, 2), lambda b: None)

    def test_back_to_back_partitions_retry_through(self):
        net = SimNet()
        net.add_link(1, 2, LinkSpec(latency_ms=1, partitions=((100, 200), (200, 300))))
        delivered = []
        net.schedule(150, lambda: net.submit(batch_for(1, 2),
                                             lambda b: delivered.append(net.now)))
        net.run_until_quiescent()
        assert delivered == [301]


class TestEventLoop:
    def test_empty_queue_returns_current_clock(self):
        net = SimNet()
        assert net.run_until_quiescent() == 0

    def test_chain_returns_last_timestamp(self):
        net = SimNet()
        times = []

        def step(n):
            times.append(net.now)
            if n:
                net.schedule(net.now + 7, lambda: step(n - 1))

        net.schedule(0, lambda: step(9))
        assert net.run_until_quiescent() == 63
        assert times == list(range(0, 64, 7))

    def test_scheduling_in_the_past_rejected(self):
        net = SimNet()
        net.schedule(100, lambda: net.schedule(50, lambda: None))
        with pytest.raises(ValueError):
            net.run_until_quiescent()

    def test_runaway_loop_aborts_as_livelock(self):
        net = SimNet(max_events=1000)

        def reschedule():
            net.schedule(net.now + 1, reschedule)

        net.schedule(0, reschedule)
        with pytest.raises(LivelockError):
            net.run_until_quiescent()

    def test_an_advanced_instant_runs_before_the_events_queued_at_it(self):
        net = SimNet()
        order = []
        net.schedule(5, lambda: order.append("queued@5"))
        net.schedule(10, lambda: order.append("queued@10"))
        net.advance(5)
        order.append("advanced@5")
        # Queued for t=7 before the advance to 7, yet runs after it.
        net.schedule(7, lambda: order.append("queued@7"))
        net.advance(7)
        order.append("advanced@7")
        net.advance(12)
        order.append("advanced@12")
        assert net.run_until_quiescent() == 12
        assert order == ["advanced@5", "queued@5", "advanced@7", "queued@7", "queued@10",
                         "advanced@12"]

    def test_advance_runs_every_earlier_event_first(self):
        net = SimNet()
        log = []
        net.schedule(3, lambda: net.schedule(4, lambda: log.append(("chained", net.now))))
        net.schedule(5, lambda: log.append(("queued", net.now)))
        net.advance(5)
        assert net.now == 5
        # The event queued at 3 ran, and so did the one it queued at 4;
        # the one at 5 waits for the caller.
        assert log == [("chained", 4)]
        net.advance(5)
        assert log == [("chained", 4)]
        assert net.run_until_quiescent() == 5
        assert log == [("chained", 4), ("queued", 5)]

    def test_advances_count_against_the_budget(self):
        net = SimNet(max_events=10)
        for t in range(10):
            net.advance(t)
        with pytest.raises(LivelockError):
            net.advance(10)

    def test_an_advance_with_nothing_due_counts_one_event(self):
        # Nothing queued, then only an event after the instant: each
        # advance only moves the clock, and still spends one event.
        net = SimNet(max_events=3)
        ran = []
        net.advance(1)
        net.schedule(100, lambda: ran.append(net.now))
        net.advance(2)
        net.advance(3)
        with pytest.raises(LivelockError):
            net.advance(4)
        assert ran == []

    def test_advances_and_queued_events_share_the_budget(self):
        # What a run of 400 one-write instants whose writes make 80
        # deliveries spends: 480 events, which overrun 40 + 400.
        def spend(budget):
            net = SimNet(max_events=budget)
            for t in range(80):
                net.schedule(t, lambda: None)
            for t in range(400):
                net.advance(t)
            net.run_until_quiescent()

        spend(480)
        with pytest.raises(LivelockError):
            spend(40 + 400)

    def test_advancing_into_the_past_rejected(self):
        net = SimNet()
        net.advance(5)
        with pytest.raises(ValueError):
            net.advance(3)
