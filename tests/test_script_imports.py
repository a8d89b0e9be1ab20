"""Import smoke for the scripts that live outside ``tests/``.

Nothing else runs ``examples/`` or the ``benchmarks/bench_*.py``
modules in the tier-1 suite, so an API removal would break them
silently.  Each module is imported (its top-level imports and
constants evaluated) without calling ``main()`` or any bench function.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

pytestmark = pytest.mark.tier1

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    [*REPO_ROOT.glob("examples/*.py"), *REPO_ROOT.glob("benchmarks/bench_*.py")]
)


def test_scripts_found():
    assert {p.parent.name for p in SCRIPTS} == {"examples", "benchmarks"}


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(
        f"_script_import_{path.parent.name}_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
