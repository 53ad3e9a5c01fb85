"""What a run holds in memory: its live state, not its history.

Memory is measured with ``tracemalloc``, which counts the bytes the
interpreter allocates and so gives the same figure on every run of the
same code.
"""

import math
import tracemalloc

import pytest

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
default = 0 50 0

[workload]
operations = {operations}
write_fraction = 1.0
distribution = uniform
keyspace = 100
value_bytes = 100
seed = 5
"""

N = 4_000


def traced_peak(tmp_path, operations, keep_batches):
    """Peak traced bytes while a set-up simulation of ONE_LINK runs."""
    path = tmp_path / f"one-link-{operations}.ini"
    path.write_text(ONE_LINK.format(operations=operations), encoding="utf-8")
    sim = Simulation(load_scenario(path), keep_batches=keep_batches)
    tracemalloc.start()
    try:
        result = sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.summary["shipped_updates"] == operations
    return peak


class TestRunLength:
    def test_peak_is_flat_without_records(self, tmp_path):
        # Under 2 bytes per extra op: keeping any part of each update
        # would cost more than its 100-byte value.
        short, long = (traced_peak(tmp_path, ops, False) for ops in (N, 4 * N))
        assert long - short < 2 * 3 * N, (short, long)

    @pytest.fixture(scope="class")
    def kept_peaks(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("kept")
        return tuple(traced_peak(tmp_path, ops, True) for ops in (N, 4 * N))

    def test_peak_grows_with_records_kept(self, kept_peaks):
        short, long = kept_peaks
        assert long >= 3.5 * short, (short, long)

    def test_a_kept_update_costs_its_own_fields_only(self, kept_peaks):
        # Each extra op keeps its update, value, share of a batch and
        # of a batch record; a second key string per update would push
        # past this.
        short, long = kept_peaks
        assert (long - short) / (3 * N) <= 330, (short, long)


def test_one_origin_keys_are_one_object_per_cell(tmp_path):
    path = tmp_path / "one-link.ini"
    path.write_text(ONE_LINK.format(operations=N), encoding="utf-8")
    sim = Simulation(load_scenario(path), keep_batches=False)
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
