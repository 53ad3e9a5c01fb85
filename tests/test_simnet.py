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

    def test_fed_events_run_before_queued_events_at_their_instant(self):
        net = SimNet()
        order = []
        net.schedule(5, lambda: order.append("queued@5"))
        net.schedule(10, lambda: order.append("queued@10"))

        def feed():
            yield 5, lambda: order.append("fed@5")
            # Queued for t=7 before fed@7 is pulled, yet runs after it.
            net.schedule(7, lambda: order.append("queued@7"))
            yield 7, lambda: order.append("fed@7")
            yield 12, lambda: order.append("fed@12")

        assert net.run_until_quiescent(feed()) == 12
        assert order == ["fed@5", "queued@5", "fed@7", "queued@7", "queued@10", "fed@12"]

    def test_feed_is_pulled_only_after_the_fed_event_before_ran(self):
        net = SimNet()
        log = []

        def feed():
            for n, at_ms in enumerate((0, 0, 5), start=1):
                log.append(f"pull {n}")
                yield at_ms, lambda n=n: log.append(f"run {n}")

        assert net.run_until_quiescent(feed()) == 5
        assert log == ["pull 1", "run 1", "pull 2", "run 2", "pull 3", "run 3"]

    def test_fed_events_count_against_the_budget(self):
        net = SimNet(max_events=10)
        with pytest.raises(LivelockError):
            net.run_until_quiescent((t, lambda: None) for t in range(11))

    def test_feeding_into_the_past_rejected(self):
        net = SimNet()
        with pytest.raises(ValueError):
            net.run_until_quiescent([(5, lambda: None), (3, lambda: None)])
