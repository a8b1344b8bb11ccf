"""A sweep's two probes in one propagation, when their generator size and dt agree.

``scaling_sweep`` sets up both probes in order, then integrates the probes of
one generator size D and one dt by one ``_propagate`` call over their six
generators, each from its own probe's initial state.  The records must be
bitwise those of one run per probe (``two_runs``, the path before the shared
run), and a refusal must be the one the probes make run one at a time,
protected first: the same exception type and message.
"""

import dataclasses

import numpy as np
import pytest

from dressedmet import simulate
from dressedmet.errors import ToolkitError
from dressedmet.lindblad import BathSpectrum, Regime
from dressedmet.nv import protected_model, unprotected_model
from dressedmet.operators import HermitianOperator
from dressedmet.simulate import (
    SimConfig, _default_delta, _grid_states, _sld_values, scaling_sweep,
)
from dressedmet.tolerances import TOL, Tolerances

GRID = [0.5, 0.75, 1.0, 1.55]
DT = SimConfig(t_final=2.0, dt=0.01)


def two_runs(protected, unprotected, tgrid, cfg, tol=TOL):
    """Fisher values of both probes and the protected coherence, one run per probe in order."""
    series = []
    for model in (protected, unprotected):
        d = _default_delta(model)
        states = _grid_states(model, (0.0, d, -d), tgrid, cfg, tol)
        series.append((_sld_values(states[:, 0], (states[:, 1] - states[:, 2]) / (2.0 * d)),
                       states[:, 0]))
    (qp, center), (qu, _) = series
    return np.column_stack([qp, qu, protected.coherences(center)])


def columns(records):
    return np.array([[r.qfi_protected, r.qfi_unprotected, r.coherence] for r in records])


@pytest.fixture
def runs(monkeypatch):
    """The generator count of every ``_propagate`` call."""
    sizes = []
    propagate = simulate._propagate

    def counted(gens, *args):
        sizes.append(len(gens))
        return propagate(gens, *args)

    monkeypatch.setattr(simulate, "_propagate", counted)
    return sizes


@pytest.mark.parametrize("pair, cfg, calls", [
    # D = 9 for both at one dt: one run over six generators
    ("bare", DT, [6]),
    # the bare probes' defaults differ (9.8e-4 and 3.3e-4), so each takes its own run
    ("bare", None, [3, 3]),
    # one model twice shares its default
    ("twice", None, [6]),
    # D = 36 and D = 9
    ("ancilla", DT, [3, 3]),
])
def test_records_are_bitwise_those_of_one_run_per_probe(runs, pair, cfg, calls):
    protected, unprotected = {
        "bare": (protected_model(), unprotected_model()),
        "twice": (protected_model(), protected_model()),
        "ancilla": (protected_model(ancilla=True), unprotected_model()),
    }[pair]
    tgrid = GRID if cfg is not None else [0.05, 0.1, 0.125]
    want = two_runs(protected, unprotected, tgrid, cfg)
    del runs[:]
    records = scaling_sweep(protected, unprotected, tgrid, cfg=cfg)
    assert runs == calls
    assert np.array_equal(columns(records), want)


def mixed(model, weight):
    d = model.dim
    return dataclasses.replace(model, rho0=(1.0 - weight) * model.rho0 + weight * np.eye(d) / d)


P, U = protected_model(), unprotected_model()
# drift 2.2e-16 on this grid, where P and U read 0
THERMAL = dataclasses.replace(P, spectrum=BathSpectrum.flat(0.3, 3, regime=Regime.FULL_THERMAL))
# decays from I/3 towards a pure state: its smallest eigenvalue is 0.071 at t = 1.55
DECAYING = mixed(dataclasses.replace(
    U, spectrum=BathSpectrum.flat(1.0, 3, regime=Regime.LOW_TEMPERATURE)), 1.0)
# a faster decay from a purer start, first below the floor at another record
DECAYING_FAST = mixed(dataclasses.replace(
    U, spectrum=BathSpectrum.flat(2.0, 3, regime=Regime.LOW_TEMPERATURE)), 0.8)
UNSTABLE = dataclasses.replace(U, h=HermitianOperator(20.0 * U.h.entries))
HALF_TRACE = dataclasses.replace(P, rho0=0.5 * P.rho0)
NOT_HERMITIAN = dataclasses.replace(U, rho0=U.rho0 + np.triu(np.full((3, 3), 1e-3), 1))
NEGATIVE = dataclasses.replace(U, rho0=np.diag([1.1, 0.0, -0.1]).astype(complex))

DRIFT = Tolerances(trace_drift=1e-16)
FLOOR = Tolerances(positivity_floor=0.1)
CASES = {
    "drift, unprotected": (P, THERMAL, DT, DRIFT, "trace drift"),
    "drift, protected": (THERMAL, U, DT, DRIFT, "trace drift"),
    "drift, both": (THERMAL, THERMAL, DT, DRIFT, "trace drift"),
    "positivity, unprotected": (mixed(P, 0.9), DECAYING, DT, FLOOR, "lost positivity"),
    "positivity, protected": (DECAYING, mixed(U, 0.9), DT, FLOOR, "lost positivity"),
    "positivity, both": (DECAYING, DECAYING_FAST, DT, FLOOR, "lost positivity"),
    "stability, unprotected": (P, UNSTABLE, DT, TOL, "stability guard"),
    "stability, protected": (UNSTABLE, U, DT, TOL, "stability guard"),
    "stability after a bad state": (HALF_TRACE, UNSTABLE, DT, TOL, "unit trace"),
    "trace, unprotected": (P, HALF_TRACE, DT, TOL, "unit trace"),
    "trace, protected": (HALF_TRACE, U, None, TOL, "unit trace"),
    "hermiticity, unprotected": (P, NOT_HERMITIAN, DT, TOL, "not Hermitian"),
    "negative, unprotected": (P, NEGATIVE, DT, TOL, "lost positivity"),
    "negative, protected": (NEGATIVE, HALF_TRACE, DT, TOL, "lost positivity"),
    "drift before a bad state": (THERMAL, NEGATIVE, DT, DRIFT, "trace drift"),
    "positivity before a bad state": (DECAYING, HALF_TRACE, DT, FLOOR, "lost positivity"),
    "ancilla, unprotected": (protected_model(ancilla=True), HALF_TRACE, DT, TOL, "unit trace"),
}


def outcome(fn, *args):
    try:
        fn(*args)
    except ToolkitError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_refusal_is_that_of_the_probes_one_at_a_time(case):
    protected, unprotected, cfg, tol, message = CASES[case]
    want = outcome(two_runs, protected, unprotected, GRID, cfg, tol)
    assert want is not None and message in want[1]
    assert outcome(scaling_sweep, protected, unprotected, GRID, cfg, tol) == want
