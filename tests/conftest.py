"""Shared helpers: seeded random operators and states for property tests.

``pyproject.toml``'s ``pythonpath = ["src"]`` puts this checkout's ``src``
ahead of ``PYTHONPATH``, so pointing ``PYTHONPATH`` at another tree would
silently test this one; the session stops instead.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import dressedmet
from dressedmet.rand import stream


def pytest_configure(config):
    imported = Path(dressedmet.__file__).resolve().parent
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        wanted = Path(entry, "dressedmet").resolve()
        if (wanted / "__init__.py").is_file():
            if wanted != imported:
                raise pytest.UsageError(
                    f"PYTHONPATH names {wanted}, but pytest imported {imported} through "
                    "pyproject.toml's pythonpath; run the tests from a full copy of that tree"
                )
            return


def random_hermitian(rng, dim, scale=1.0):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (m + m.conj().T)


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim, rank=None):
    rank = rank or dim
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.fixture
def rng():
    return stream(20240817)
