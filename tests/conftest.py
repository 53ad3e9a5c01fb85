"""Shared fixtures and small builders used across the test modules."""

import gc
from pathlib import Path

import pytest

from georep.bounds import ContainerId, Group, Update
from georep.engine import run_scenario
from georep.scenario import load_scenario
from georep.shipping import BATCH_HEADER_BYTES, Batch, Trigger

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"

CID = ContainerId("usertable", "family")


def make_update(key="k", value=b"v", wall_ms=0, origin=1, seq=None,
                container=CID, block=None, _counter=[0]):
    """Update with a fresh (origin, seq) identity unless seq is pinned."""
    if seq is None:
        _counter[0] += 1
        seq = _counter[0]
    return Update(container=container, key=key, value=value, wall_ms=wall_ms,
                  origin=origin, seq=seq, block=block)


def wire_bytes(updates):
    """The bytes ``Batch.build`` charges for ``updates``, less the
    batch header."""
    return Batch.build(list(updates), 1, 2, 0, Trigger.COUNT).total_bytes - BATCH_HEADER_BYTES


def held_back(cache, cid):
    """How many updates ``cache`` holds back for ``cid``: its queue's
    length, 0 for a container the cache never saw."""
    state = cache.containers.get(cid)
    return len(state.queue) if state is not None else 0


def make_group(*containers):
    """A closed write group over ``containers``, given in first-write
    order; its members are the updates built with ``block=`` it."""
    return Group(tuple(containers))


def ship_log(sim, keep):
    """Wrap the ``on_ship`` of every source in ``sim``; return the list
    that ``keep(source, batch)`` is appended to for each batch cut, in
    shipping order, which is the order of ``RunResult.batches``.

    A kept record holds only its updates' ``(origin, seq)``; a test that
    reads their keys, wall times or containers reads them here, from the
    ``Batch`` itself.  ``keep`` runs before the batch is submitted."""
    log = []
    for node in sim.clusters.values():
        for source in node.sources:
            def ship_and_keep(batch, source=source, ship=source.on_ship):
                log.append(keep(source, batch))
                ship(batch)
            source.on_ship = ship_and_keep
    return log


@pytest.fixture
def scenario_dir():
    return SCENARIO_DIR


@pytest.fixture(scope="session")
def bundled(tmp_path_factory):
    """``bundled(name)``: the ``RunResult`` of the bundled scenario
    ``scenarios/<name>.ini``, run through ``run_scenario`` once per test
    session into a session temp dir, so its CSV and summary files are
    written too.

    Every caller gets the same object, so it is read-only: a test that
    mutates a result, its rows, batches or summary, or rewrites
    its files, corrupts every later reader.  Copy first (as the goldens
    copy the summary), and give a test that needs its own run (to patch
    the engine, time it, or compare two runs) a fresh one.

    After each run the heap is collected and frozen, so the cyclic
    collector does not rescan the held results in every later test.
    """
    out = tmp_path_factory.mktemp("bundled")
    runs = {}

    def get(name):
        if name not in runs:
            runs[name] = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.ini"), out)
            gc.collect()
            gc.freeze()
        return runs[name]

    yield get
    gc.unfreeze()
