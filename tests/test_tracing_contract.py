"""Every name the benchmark's tracer wraps must exist in the package.

``bench/tracing.py`` replaces ``(module, attribute)`` pairs on
``dressedmet.<module>`` with timing wrappers.  A refactor that renames,
moves or inlines one of those functions would otherwise break traced
benchmark runs without failing any test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module, attr, span", load_patches())
def test_traced_name_resolves(module, attr, span):
    mod = importlib.import_module(f"dressedmet.{module}")
    assert callable(getattr(mod, attr, None)), f"dressedmet.{module}.{attr} ({span}) is gone"
