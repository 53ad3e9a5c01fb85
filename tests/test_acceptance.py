"""Acceptance gate: eight structural criteria, one printed verdict each.

Every test exercises a bundled scenario (or a purpose-built probe) and
prints a single PASS/FAIL line so the gate can be read off the terminal
without digging through pytest output.  Criteria 2, 3, 6 and 8 read
the session's shared run of each scenario (the ``bundled`` fixture);
criteria 4 and 5 read each shipped batch's updates, which a kept record
does not hold, and criterion 7 times the engine, so they run their own.
"""

import gc
import random
import statistics
import time
from contextlib import contextmanager

from conftest import held_back, ship_log
from georep.bounds import Bound, ContainerId, Update
from georep.engine import Simulation, run_scenario
from georep.scenario import load_scenario
from georep.shipping import ReplicationSource, Trigger


@contextmanager
def criterion(capsys, number, label):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"criterion {number} [{label}]: {verdict}")


def offer_stream(b, n):
    """Offer n updates to one container under a pending limit of b: the
    (offer index, trigger, size) of each batch cut, and the count the
    cache holds back afterwards."""
    cid = ContainerId("usertable", "family")
    fired = []
    src = ReplicationSource(
        source=1, peer=2, default_bound=Bound(pending=b),
        on_ship=lambda batch: fired.append((i, batch.trigger, len(batch.updates))))
    for i in range(1, n + 1):
        src.offer(Update(cid, "k", b"v", 0, 1, i), 0)
    return fired, held_back(src.cache, cid)


def test_criterion_1_arrival_counter_matches_modular_oracle(capsys):
    """The pending limit ships exactly at arrival indices divisible by
    the bound, b updates at a time, through the replication source."""
    with criterion(capsys, 1, "counter oracle"):
        started = time.perf_counter()
        rng = random.Random(0xC0FFEE)
        deviations = 0
        # The first 10,000 draws of the seeded stream (~1.7M offers);
        # all 100,000 would not fit the time cap below.
        for _ in range(10_000):
            b = min(10_000, max(1, round(10 ** rng.uniform(0.0, 4.0))))
            # Small bounds replay past several firings; large bounds get a
            # short non-firing prefix, with a 2% slice replaying across
            # the boundary so big counters fire too.
            if b <= 200 or rng.random() < 0.02:
                n = rng.randint(1, 3 * b)
            else:
                n = rng.randint(1, 500)
            fired, held = offer_stream(b, n)
            if fired != [(i, Trigger.COUNT, b) for i in range(b, n + 1, b)] \
                    or held != n % b:
                deviations += 1
        assert deviations == 0
        # Decade sweep pinning the exact firing indices at each scale.
        for b in (1, 2, 3, 10, 100, 1000, 10_000):
            fired, held = offer_stream(b, 3 * b)
            assert fired == [(k * b, Trigger.COUNT, b) for k in (1, 2, 3)]
            assert held == 0
        assert time.perf_counter() - started < 10.0


def test_criterion_2_pending_bound_fixes_batch_size(capsys, bundled, tmp_path):
    """Percent bounds cut batches of exactly the resolved size."""
    with criterion(capsys, 2, "batch size bound"):
        for name, size in (("batch-size-2pct", 1000),
                           ("batch-size-05pct", 250)):
            result = bundled(name)
            # The run's own wall time, whenever the session ran it.
            assert result.summary["operations"] / result.summary["ops_per_sec"] < 30.0
            count = [r.batch for r in result.batches
                     if r.batch.trigger is Trigger.COUNT]
            # 50,000 writes divide evenly; every batch is full and no
            # other trigger fires.
            assert len(count) == 50_000 // size
            assert all(len(b.updates) == size for b in count)
            assert len(count) == len(result.batches)
            assert result.summary["shipped_updates"] == 50_000
        # Remainder probe: 1,003 writes at 2% resolve to batches of 20,
        # leaving 3 updates for the final drain.
        probe = tmp_path / "remainder.ini"
        probe.write_text("""\
[topology]
clusters = 1 2
links = 1>2

[bounds]
pending_percent = 2

[workload]
operations = 1003
write_fraction = 1.0
distribution = uniform
keyspace = 5000
value_bytes = 50
seed = 7
""", encoding="utf-8")
        result = Simulation(load_scenario(probe)).run()
        sizes = {}
        for record in result.batches:
            sizes.setdefault(record.batch.trigger, []).append(
                len(record.batch.updates))
        assert sizes[Trigger.COUNT] == [20] * 50
        assert sizes[Trigger.FINAL_DRAIN] == [3]


def test_criterion_3_bounds_flatten_bandwidth_peaks(capsys, bundled):
    """Bursty load: bounded shipping peaks below the plain baseline."""
    with criterion(capsys, 3, "peak reduction"):
        plain = bundled("write-burst-plain")
        tight = bundled("write-burst-bounded05pct")
        loose = bundled("write-burst-bounded2pct")
        assert tight.summary["peak_window_bytes"] \
            < plain.summary["peak_window_bytes"]
        # Looser bound: traffic moves less often, in bigger batches.
        assert len(loose.batches) < len(tight.batches)
        assert max(r.max_batch_bytes for r in loose.rows) \
            > max(r.max_batch_bytes for r in tight.rows)


def test_criterion_4_time_bound_caps_staleness(capsys, scenario_dir):
    """Every update is visible within lag bound + tick + link latency."""
    with criterion(capsys, 4, "staleness bound"):
        sim = Simulation(load_scenario(scenario_dir / "staleness-lag.ini"))
        wall_times = ship_log(sim, lambda source, batch: [u.wall_ms for u in batch.updates])
        result = sim.run()
        limit = 1000 + 100 + 10
        for record, walls in zip(result.batches, wall_times, strict=True):
            assert record.delivered_ms >= 0
            for wall_ms in walls:
                assert record.delivered_ms - wall_ms <= limit
        assert result.summary["shipped_updates"] == 10_000


def test_criterion_5_blocks_ship_atomically(capsys, scenario_dir):
    """1,000 mixed blocks each leave in exactly one batch, on time."""
    with criterion(capsys, 5, "block atomicity"):
        sim = Simulation(load_scenario(scenario_dir / "blocks-mixed.ini"))
        block_of = lambda key: int(key.split("-")[0][1:])  # "b17-p3"
        # Per batch: what its containers hold back right after it is
        # cut, and the block of each update.
        shipped = ship_log(sim, lambda source, batch: (
            sum(held_back(source.cache, cid) for cid in {u.container for u in batch.updates}),
            [block_of(u.key) for u in batch.updates]))
        result = sim.run()
        held_after = [held for held, _ in shipped]

        # Independent replay of the scenario's block schedule: four puts
        # per block alternating orders/payments, one block per ms,
        # pattern IMMEDIATE + 4x ANY, orders bound 5, payments bound 100.
        def predict():
            counters = {"orders:acct": 0, "payments:acct": 0}
            bounds = {"orders:acct": 5, "payments:acct": 100}
            puts = ["orders:acct", "payments:acct"] * 2
            pending: list[int] = []
            batches = []
            for bi in range(1000):
                if bi % 5 == 0:  # IMMEDIATE
                    batches.append((bi, frozenset(pending + [bi]),
                                    Trigger.IMMEDIATE_BLOCK))
                    pending.clear()
                    counters = dict.fromkeys(counters, 0)
                    continue
                tripped = False
                for cid in puts:
                    counters[cid] += 1
                    if counters[cid] >= bounds[cid]:
                        counters[cid] = 0
                        tripped = True
                if tripped:
                    batches.append((bi, frozenset(pending + [bi]),
                                    Trigger.ANY_BLOCK))
                    pending.clear()
                    counters = dict.fromkeys(counters, 0)
                else:
                    pending.append(bi)
            return batches, pending

        predicted, leftovers = predict()
        actual = [(r.batch.created_ms, frozenset(blocks), r.batch.trigger)
                  for r, (_, blocks) in zip(result.batches, shipped, strict=True)]
        # Exact sequence match: membership, shipment instant, trigger.
        # For ANY blocks the instant is the first bound trip that
        # involves one of their containers.
        assert actual[:-1] == predicted
        assert actual[-1][1] == frozenset(leftovers)
        assert actual[-1][2] is Trigger.FINAL_DRAIN
        # Whole blocks only: four puts apiece, hence one batch apiece.
        for record, (_, blocks) in zip(result.batches, shipped, strict=True):
            assert len(record.batch.updates) == 4 * len(set(blocks))
        # Touched containers hold nothing back right after each cut.
        assert held_after == [0] * len(result.batches)


def test_criterion_6_masters_converge_without_echo(capsys, bundled):
    """Partitioned master pair: exactly-once apply, no echo, same digest."""
    with criterion(capsys, 6, "no-echo convergence"):
        result = bundled("ring-partition")
        summary = result.summary
        for cid in ("1", "2"):
            assert summary["applied"][cid] == 10_000
            assert summary["duplicates"][cid] == 0
            assert summary["echoes"][cid] == 0
        assert summary["digests"]["1"] == summary["digests"]["2"]


def test_criterion_7_bounded_ingestion_keeps_pace(capsys, scenario_dir):
    """Bounded shipping ingests within 10% of the plain baseline."""
    with criterion(capsys, 7, "ingestion overhead"):
        plain = load_scenario(scenario_dir / "workload-a-plain.ini")
        bounded = load_scenario(scenario_dir / "workload-a-bounded05pct.ini")
        # Interleave the measurements so drift in host load hits both
        # sides equally, and alternate which side runs first in a pair so
        # an order effect does too; a warmup pass absorbs import and
        # allocator startup costs.
        Simulation(plain).run()
        Simulation(bounded).run()
        # Each pair's ratio sees the host as both its runs did, so the
        # median of the nine ratios is steadier than a ratio of medians.
        ratios = []
        sides = [plain, bounded]
        for _ in range(9):
            rates = []
            for scenario in sides:
                gc.collect()
                rates.append(Simulation(scenario).run().summary["ops_per_sec"])
            plain_rate, bounded_rate = rates if sides[0] is plain else rates[::-1]
            ratios.append(bounded_rate / plain_rate)
            sides.reverse()
        assert statistics.median(ratios) >= 0.9, ratios


def test_criterion_8_reruns_are_byte_identical(capsys, scenario_dir, bundled, tmp_path):
    """Same scenario, same seed: the session's shared run and a fresh
    rerun write the very same CSV bytes."""
    with criterion(capsys, 8, "determinism"):
        for path in sorted(scenario_dir.glob("*.ini")):
            rerun = run_scenario(load_scenario(path), tmp_path)
            assert bundled(path.stem).csv_path.read_bytes() == rerun.csv_path.read_bytes()
