"""The package's public names, and the demos that use them."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import georep

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = {m.name for m in pkgutil.iter_modules(georep.__path__)}


def test_every_exported_name_resolves():
    assert [name for name in georep.__all__ if not hasattr(georep, name)] == []
    assert len(set(georep.__all__)) == len(georep.__all__)


def package_names_used(path):
    """Names a script takes from ``georep`` itself: ``from georep import
    X`` and ``georep.X`` where X is not a submodule."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "georep":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "georep" and node.attr not in SUBMODULES:
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("bench/**/*.py")]),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_scripts_use_only_exported_names(path):
    assert package_names_used(path) - set(georep.__all__) == set()


# Demo 02 runs two full scenarios (several seconds), so it is left out.
@pytest.mark.parametrize("demo", ["01_bound_trips", "03_atomic_groups", "04_ring_partition"])
def test_demo_runs(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
