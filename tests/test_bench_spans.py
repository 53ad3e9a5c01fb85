"""The benchmark's span table against the library it patches.

``bench/tracer.py`` patches each entry point in its ``SPANS`` table by
name, so renaming or deleting one of them in ``georep`` breaks every
traced benchmark run.  Tier-1 does not run ``bench/tests``, so this
test reads the table here; it reads ``tracer.py`` without importing it
as a module file, so nothing is written under ``bench/``."""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
