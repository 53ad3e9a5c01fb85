"""The benchmark's span table against the library it patches.

``bench/tracer.py`` patches each entry point in its ``SPANS`` table by
name, so renaming or deleting one of them in ``georep`` breaks every
traced benchmark run.  Tier-1 does not run ``bench/tests``, so this
test reads the table here; it reads ``tracer.py`` without importing it
as a module file, so nothing is written under ``bench/``.

The tracer's observers also read arguments by position: the staleness
percentiles come from ``note_delivery``'s ``args[2]`` and ``args[3]``,
and the batch counts from ``args[1]`` of ``apply_remote`` and
``submit``.  A reordered signature would corrupt those metrics without
an error, so every patched signature is pinned here."""

import inspect
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# The parameter names of every entry point ``SPANS`` patches, by
# ``owner.attribute``.
SIGNATURES = {
    "georep.load_scenario": ("path", "seed_override"),
    "georep.engine.generate": ("spec",),
    "georep.bounds.parse_numeric": ("value",),
    "ContainerState.should_ship": ("self", "update", "now"),
    "ClientSession.end_block": ("self",),
    "PendingCache.enqueue": ("self", "update"),
    "PendingCache.drain": ("self", "cids", "now"),
    "ReplicationSource.offer": ("self", "update", "now"),
    "ReplicationSource.offer_group": ("self", "updates", "now"),
    "ReplicationSource.ship_group_now": ("self", "updates", "now"),
    "ReplicationSource.tick": ("self", "now"),
    "ReplicationSource.acknowledge": ("self", "batch"),
    "ClusterNode.local_put": ("self", "cid", "key", "value", "block"),
    "ClusterNode.apply_remote": ("self", "batch"),
    "ClusterNode.digest": ("self", "base", "base_digest"),
    "SimNet.schedule": ("self", "at_ms", "fn"),
    "SimNet.submit": ("self", "batch", "deliver"),
    "SimNet.run_until_quiescent": ("self",),
    "MetricsCollector.sample_pending": ("self", "link", "count", "now"),
    "MetricsCollector.note_delivery": ("self", "link", "batch", "now"),
    "MetricsCollector.build_rows": ("self",),
    "Simulation.run": ("self",),
}


def span_table():
    tracer = types.ModuleType("tracer")
    tracer.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer.__dict__)
    return tracer.SPANS


def test_every_patched_entry_point_exists():
    rows = [(owner, attr) for owner, attr, *_ in span_table() if owner is not None]
    assert rows
    missing = [f"{owner.__name__}.{attr}" for owner, attr in rows
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_every_patched_signature_keeps_its_parameters():
    found = {f"{owner.__name__}.{attr}": tuple(inspect.signature(getattr(owner, attr)).parameters)
             for owner, attr, *_ in span_table() if owner is not None}
    assert found == SIGNATURES
