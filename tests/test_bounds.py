"""Container identity, divergence bounds and per-dimension evaluation."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georep.bounds import (
    IMMEDIATE,
    UPDATE_OVERHEAD_BYTES,
    Bound,
    ContainerId,
    ContainerState,
    Trigger,
    Update,
    parse_numeric,
    pending_from_percent,
)

from georep.shipping import ReplicationSource

from conftest import CID, make_update

# A non-empty container part: any text without a colon.
PART = st.text(min_size=1, max_size=6).filter(lambda s: ":" not in s)
# A part that is empty or holds a colon.
MALFORMED = st.one_of(st.just(""), st.builds("{}:{}".format, st.text(max_size=3),
                                               st.text(max_size=3)))


class TestContainerId:
    def test_parse_roundtrip(self):
        cid = ContainerId.parse("orders:account")
        assert cid.table == "orders"
        assert cid.family == "account"
        assert str(cid) == "orders:account"

    def test_equality_is_exact(self):
        assert ContainerId.parse("a:b") == ContainerId("a", "b")
        assert ContainerId.parse("a:b") != ContainerId("a", "c")

    @pytest.mark.parametrize("text", ["nocolon", "a:b:c", ":b", "a:", ":"])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            ContainerId.parse(text)

    @given(st.lists(st.tuples(PART, PART), min_size=1, max_size=8))
    def test_natural_order_is_text_order(self, parts):
        ids = [ContainerId(t, f) for t, f in parts]
        assert sorted(ids) == sorted(ids, key=str)

    @given(PART, PART)
    def test_text_parses_back(self, table, family):
        cid = ContainerId(table, family)
        back = ContainerId.parse(str(cid))
        assert back == cid and hash(back) == hash(cid)
        assert (back.table, back.family) == (table, family)

    @given(PART, PART)
    def test_copy_and_pickle_round_trip(self, table, family):
        cid = ContainerId(table, family)
        copies = [copy.copy(cid), copy.deepcopy(cid)]
        copies += [pickle.loads(pickle.dumps(cid, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is ContainerId and other == cid
            assert (other.table, other.family) == (table, family)

    @given(MALFORMED, PART, st.booleans())
    def test_malformed_parts_rejected(self, bad, good, bad_first):
        table, family = (bad, good) if bad_first else (good, bad)
        with pytest.raises(ValueError):
            ContainerId(table, family)


class TestBound:
    def test_zero_vector_means_immediate(self):
        assert Bound().immediate
        assert IMMEDIATE.immediate

    @pytest.mark.parametrize("bound", [
        Bound(lag_ms=1), Bound(pending=1), Bound(drift=0.5),
    ])
    def test_any_active_dimension_is_not_immediate(self, bound):
        assert not bound.immediate

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Bound(lag_ms=-1)
        with pytest.raises(ValueError):
            Bound(pending=-1)
        with pytest.raises(ValueError):
            Bound(drift=-0.1)


class TestUpdate:
    def test_size_is_key_plus_value_plus_overhead(self):
        u = make_update(key="abc", value=b"x" * 83)
        assert u.size_bytes == 3 + 83 + UPDATE_OVERHEAD_BYTES
        # The key counts in UTF-8 bytes, not characters.
        assert make_update(key="é", value=b"").size_bytes == 2 + UPDATE_OVERHEAD_BYTES

    def test_size_is_derived_not_stored(self):
        assert "size_bytes" not in Update.__slots__
        u = make_update(key="abc", value=b"x")
        u.value = b"x" * 10
        assert u.size_bytes == 3 + 10 + UPDATE_OVERHEAD_BYTES

    def test_numeric_payloads_parse(self):
        assert make_update(value=b"12.5").numeric == 12.5
        assert make_update(value=b"-3").numeric == -3.0

    def test_non_numeric_payloads_have_no_numeric(self):
        assert make_update(value=b"hello").numeric is None
        assert make_update(value=b"\xff\xfe\x00").numeric is None

    def test_parse_numeric_edge_cases(self):
        assert parse_numeric(b"0") == 0.0
        assert parse_numeric(b"") is None
        assert parse_numeric(b"1e3") == 1000.0


class TestArrivalCounter:
    @given(b=st.integers(1, 500), n=st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_counter_equals_arrivals_mod_bound(self, b, n):
        # Offer k ships exactly when b divides k, taking the b updates
        # held back; the cache ends holding n mod b.
        src = ReplicationSource(source=1, peer=2, default_bound=Bound(pending=b))
        for k in range(1, n + 1):
            batch = src.offer(make_update(key=f"k{k}"), now=0)
            if k % b == 0:
                assert batch.trigger is Trigger.COUNT
                assert len(batch.updates) == b
            else:
                assert batch is None
        assert src.cache.pending_count(CID) == n % b


class TestLagExpiry:
    def test_elapsed_past_bound_with_pending_fires(self):
        state = ContainerState(Bound(lag_ms=1000), last_ship_ms=0)
        assert state.lag_expired(now=1200)

    def test_below_bound_holds(self):
        state = ContainerState(Bound(lag_ms=1000), last_ship_ms=0)
        assert not state.lag_expired(now=500)

    def test_disabled_dimension_never_fires(self):
        state = ContainerState(Bound(lag_ms=0), last_ship_ms=0)
        assert not state.lag_expired(now=10**9)

    def test_boundary_is_inclusive(self):
        # Flips from false to true exactly when elapsed == lag_ms.
        state = ContainerState(Bound(lag_ms=1000), last_ship_ms=100)
        assert not state.lag_expired(now=1099)
        assert state.lag_expired(now=1100)

    def test_nothing_pending_never_fires(self):
        # A tick long past the lag ships nothing once the queue is empty.
        src = ReplicationSource(source=1, peer=2, default_bound=Bound(lag_ms=1000))
        assert src.offer(make_update(), now=0) is None
        assert [b.trigger for b in src.tick(1000)] == [Trigger.TIME]
        assert src.tick(5000) == []


class TestDriftEvaluation:
    def make_state(self, last, drift=10):
        return ContainerState(Bound(drift=drift), shipped_value={"k": last})

    def test_divergence_at_or_past_bound_fires(self):
        state = self.make_state(100.0)
        assert state.drift_exceeded(make_update(value=b"111"))
        assert state.drift_exceeded(make_update(value=b"110"))

    def test_divergence_below_bound_holds(self):
        state = self.make_state(100.0)
        assert not state.drift_exceeded(make_update(value=b"105"))

    def test_no_shipped_history_never_fires(self):
        state = ContainerState(Bound(drift=10))
        assert not state.drift_exceeded(make_update(value=b"1e9"))

    def test_non_numeric_payload_never_fires(self):
        state = self.make_state(100.0)
        assert not state.drift_exceeded(make_update(value=b"blob"))

    def test_disabled_dimension_never_fires(self):
        state = self.make_state(0.0, drift=0.0)
        assert not state.drift_exceeded(make_update(value=b"1e9"))

    @given(last=st.floats(-1e6, 1e6), delta=st.floats(0, 99.999),
           bound=st.floats(100, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_monotone_safety(self, last, delta, bound):
        # False at divergence d stays false for every smaller divergence.
        state = ContainerState(Bound(drift=bound), shipped_value={"k": last})
        value = repr(last + delta).encode()
        assert not state.drift_exceeded(make_update(value=value))


def queued(held):
    """A container queue of ``held`` updates."""
    return [make_update() for _ in range(held)]


class TestCombinedEvaluation:
    def test_any_tripped_dimension_ships(self):
        state = ContainerState(Bound(lag_ms=10**6, pending=3), last_ship_ms=0,
                               queue=queued(3))
        assert state.should_ship(make_update(), now=10) is Trigger.COUNT

    def test_all_inactive_ships_every_arrival(self):
        state = ContainerState(IMMEDIATE, queue=queued(1))
        for _ in range(5):
            assert state.should_ship(make_update(), now=0) is Trigger.COUNT

    def test_no_dimension_tripped_holds(self):
        state = ContainerState(Bound(lag_ms=1000, pending=3, drift=10), last_ship_ms=0,
                               queue=queued(2))
        assert state.should_ship(make_update(value=b"5"), now=500) is None

    def test_should_ship_leaves_the_state_unchanged(self):
        # Whatever trips, the rule only reads: the cache fills the queue
        # and a drain restarts the lag clock.
        bound = Bound(lag_ms=10, pending=5, drift=1)
        for held, now, trigger in ((5, 20, Trigger.COUNT), (1, 20, Trigger.TIME),
                                   (1, 0, Trigger.DELTA)):
            queue = queued(held)
            state = ContainerState(bound, last_ship_ms=0, shipped_value={"k": 0.0},
                                   queue=list(queue))
            assert state.should_ship(make_update(value=b"99"), now) is trigger
            assert state == ContainerState(bound, last_ship_ms=0, shipped_value={"k": 0.0},
                                           queue=queue)


class TestMarkShipped:
    def test_resets_counter_and_remembers_numerics(self):
        # The lag clock restarts at the shipment.
        state = ContainerState(Bound(drift=1), last_ship_ms=100)
        shipped = [make_update(key="a", value=b"7"), make_update(key="b", value=b"x")]
        state.mark_shipped(now=250, updates=shipped)
        assert state.last_ship_ms == 250
        assert state.shipped_value == {"a": 7.0}
        # Without a drift limit nothing reads shipped values, so none are kept.
        plain = ContainerState(Bound(pending=5))
        plain.mark_shipped(now=250, updates=shipped)
        assert plain.last_ship_ms == 250
        assert plain.shipped_value == {}

    def test_last_ship_time_is_monotone(self):
        state = ContainerState(IMMEDIATE, last_ship_ms=300)
        state.mark_shipped(now=200, updates=[])
        assert state.last_ship_ms == 300


class TestPercentResolution:
    def test_large_run(self):
        assert pending_from_percent(0.5, 5_000_000) == 25_000

    def test_bundled_scenario_sizes(self):
        assert pending_from_percent(2, 50_000) == 1_000
        assert pending_from_percent(0.5, 50_000) == 250

    def test_tiny_percent_clamps_to_one(self):
        assert pending_from_percent(0.001, 100) == 1

    def test_half_rounds_up(self):
        assert pending_from_percent(1, 150) == 2  # 1.5 -> 2

    @pytest.mark.parametrize("pct", [0, -1, 100.1])
    def test_percent_out_of_range_rejected(self, pct):
        with pytest.raises(ValueError):
            pending_from_percent(pct, 1000)

    def test_non_positive_total_rejected(self):
        with pytest.raises(ValueError):
            pending_from_percent(1, 0)
