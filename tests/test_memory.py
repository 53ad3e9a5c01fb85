"""What a run holds in memory: its live state, not its history.

Memory is measured with ``tracemalloc``, which counts the bytes the
interpreter allocates and so gives the same figure on every run of the
same code.
"""

import gc
import math
import tracemalloc

import pytest

from georep.bounds import Update
from georep.engine import Simulation, run_scenario
from georep.scenario import load_scenario
from georep.workload import _cdf
from test_workload import reference_zipf_cdf

# One link, a small keyspace, a fixed pending count and one metric
# window: the live state (the stores, the pending queue, the metric
# ledger) is the same size however many ops run.
ONE_LINK = """\
[topology]
clusters = 1 2
links = 1>2

[network]
window_ms = 100000

[bounds]
default = 0 {pending} 0

[workload]
operations = {operations}
write_fraction = 1.0
distribution = uniform
keyspace = 100
value_bytes = {value_bytes}
seed = 5
"""

N = 4_000
# Updates per batch on ONE_LINK unless a test says otherwise.
PENDING = 50


def one_link(tmp_path, operations, value_bytes=100, pending=PENDING):
    """The path of ONE_LINK at ``operations`` ops of ``value_bytes``,
    shipped ``pending`` updates a batch."""
    path = tmp_path / f"one-link-{operations}-{value_bytes}-{pending}.ini"
    path.write_text(ONE_LINK.format(operations=operations, value_bytes=value_bytes,
                                    pending=pending), encoding="utf-8")
    return path


# Clusters 1 and 2 write; cluster 3 hears origin 1 only through the
# relay at cluster 2, which discards the updates it finds stale.  One
# metric window, as on ONE_LINK.
RELAY = """\
[topology]
clusters = 1 2 3
links = 1>2 2>3

[network]
window_ms = 100000000

[bounds]
default = 0 50 0

[workload]
operations = {operations}
write_fraction = 1.0
distribution = uniform
keyspace = 50
value_bytes = 10
origins = 1 2
seed = 42
"""


def relay(tmp_path, operations):
    """The path of RELAY at ``operations`` ops."""
    path = tmp_path / f"relay-{operations}.ini"
    path.write_text(RELAY.format(operations=operations), encoding="utf-8")
    return path


def peak_of(path, keep_batches):
    """Peak traced bytes while a set-up simulation of ``path`` runs, and
    the run's summary."""
    sim = Simulation(load_scenario(path), keep_batches=keep_batches)
    tracemalloc.start()
    try:
        result = sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result.summary


def traced_peak(tmp_path, operations, keep_batches, value_bytes=100, pending=PENDING):
    """Peak traced bytes while a set-up simulation of ONE_LINK runs."""
    peak, summary = peak_of(one_link(tmp_path, operations, value_bytes, pending),
                            keep_batches)
    assert summary["shipped_updates"] == operations
    return peak


class TestRunLength:
    def test_peak_is_flat_without_records(self, tmp_path):
        # Under 2 bytes per extra op: keeping any part of each update
        # would cost more than its 100-byte value, and below RELAY's
        # relay a record of the identities cluster 3 has seen would grow
        # with the seqs it never sees.  A warm-up run takes the one-time
        # allocations, as in ``kept_cost``.
        for scenario in (one_link, relay):
            _, short, long = (peak_of(scenario(tmp_path, ops), False)[0] for ops in (N, N, 4 * N))
            assert long - short < 2 * 3 * N, (scenario.__name__, short, long)

    @pytest.fixture(scope="class")
    def kept_cost(self, tmp_path_factory):
        """Traced bytes that a run keeping its records adds per extra op
        (each op ships one update), by value size and by updates per
        batch."""
        tmp_path = tmp_path_factory.mktemp("kept")
        # A first run in a process can be charged one-time allocations
        # of the interpreter (about 28 KB on 3.10), which would skew
        # whichever cost it fell in.
        traced_peak(tmp_path, N, True)

        def cost(value_bytes, pending):
            short, long = (traced_peak(tmp_path, ops, True, value_bytes, pending)
                           for ops in (N, 4 * N))
            return (long - short) / (3 * N)
        return {(value_bytes, pending): cost(value_bytes, pending)
                for value_bytes, pending in ((10, PENDING), (100, PENDING), (1000, PENDING),
                                             (100, 4 * PENDING))}

    def test_a_kept_update_costs_its_own_fields_only(self, kept_cost):
        # Only the update's identity outlives its delivery, plus its
        # share of the record and its header.  Its value, or the update
        # itself, would push past 32.
        assert all(cost <= 32 for cost in kept_cost.values()), kept_cost

    def test_an_in_order_record_costs_per_batch_not_per_update(self, kept_cost):
        # ONE_LINK ships one origin's seqs in order, so every batch is a
        # seq run, kept as one triple: a batch four times as long costs
        # the same.  An (origin, seq) pair per update would add 16 bytes
        # for each of its 150 extra updates.
        per_batch = {pending: kept_cost[100, pending] * pending
                     for pending in (PENDING, 4 * PENDING)}
        assert abs(per_batch[4 * PENDING] - per_batch[PENDING]) < 16 * PENDING, per_batch

    def test_a_kept_records_cost_does_not_depend_on_the_value_size(self, kept_cost):
        # A record that held an update would keep its value alive.
        assert abs(kept_cost[10, PENDING] - kept_cost[1000, PENDING]) <= 2, kept_cost


def test_a_kept_run_holds_only_the_updates_in_its_stores(tmp_path):
    sim = Simulation(load_scenario(one_link(tmp_path, N)))
    earlier = [o for o in gc.get_objects() if type(o) is Update]
    # ``earlier`` holds its updates, so no new one can reuse their ids.
    held = {id(o) for o in earlier}
    result = sim.run()
    gc.collect()
    live = {id(o) for o in gc.get_objects() if type(o) is Update and id(o) not in held}
    cells = {id(cell) for node in sim.clusters.values()
             for by_key in node.store.values() for cell in by_key.values()}
    assert sum(len(r.batch.updates) for r in result.batches) == N
    assert len(cells) == 100
    assert live == cells


def test_one_origin_keys_are_one_object_per_cell(tmp_path):
    sim = Simulation(load_scenario(one_link(tmp_path, N)), keep_batches=False)
    sim.run()
    for node in sim.clusters.values():
        cells = [(key, cell) for by_key in node.store.values() for key, cell in by_key.items()]
        assert len(cells) == 100
        assert all(key is cell.key for key, cell in cells)


@pytest.mark.parametrize("name", ["ring-partition", "blocks-mixed",
                                  "write-burst-bounded05pct"])
def test_records_do_not_change_the_outputs(name, bundled, scenario_dir, tmp_path):
    kept = bundled(name)
    unkept = run_scenario(load_scenario(scenario_dir / f"{name}.ini"), tmp_path,
                          keep_batches=False)
    assert unkept.batches is None
    assert unkept.rows == kept.rows
    drop_host = lambda summary: {k: v for k, v in summary.items() if k != "ops_per_sec"}
    assert drop_host(unkept.summary) == drop_host(kept.summary)
    assert unkept.csv_path.read_bytes() == kept.csv_path.read_bytes()


class TestKeyCdf:
    KEYS = 100_000

    def test_costs_eight_bytes_a_key(self):
        weights = [1.0 / math.pow(rank + 1, 0.99) for rank in range(self.KEYS)]
        tracemalloc.start()
        try:
            cdf = _cdf(weights, math.fsum)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(cdf) == self.KEYS
        assert held <= 8 * self.KEYS + 4096, held

    def test_entries_equal_the_reference(self):
        weights = [1.0 / math.pow(rank + 1, 0.99) for rank in range(self.KEYS)]
        assert list(_cdf(weights, math.fsum)) == reference_zipf_cdf(self.KEYS, 0.99)
