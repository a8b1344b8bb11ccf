"""Blocked propagation against the per-step core it replaced.

``_reference_propagate`` is ``simulate._propagate`` as it stood before
blocking: one matmul per RK4 step, with the trace renormalized and checked
after every step.  The blocked core advances a block of steps per numpy
call.  It must record every leg of a run (zero-step legs, remainder legs,
runs longer than a block) within 1e-12 of the per-step core, give sweep
Fisher values within 1e-9 relative, and abort at the same step with the same
message when a generator leaks trace.
"""

import math

import numpy as np
import pytest

from dressedmet import simulate
from dressedmet.errors import NumericalError, ValidationError
from dressedmet.nv import protected_model, unprotected_model
from dressedmet.simulate import SimConfig, _block_size, _grid_states, _propagate, _sld_series
from dressedmet.tolerances import TOL, Tolerances

import _reference_propagate as per_step
from test_trajectory_output import RHO0, growing_coherence

MODELS = {
    "bare": protected_model,
    "ancilla": lambda: protected_model(ancilla=True),
    "unprotected": unprotected_model,
}

DT = 0.01
LEGS = {
    "stride 1": [(DT, 1)] * 300,
    "stride 7 and a remainder": [(DT, 7)] * 42 + [(DT, 6)],
    "one leg": [(DT, 300)],
    "zero-step legs in a run": [(DT, 0), (DT, 5), (DT, 0), (DT, 295), (DT, 0)],
    "own dt per leg": [(0.5 / 50, 50), (0.0, 0), (0.7 / 71, 71), (1.8 / 179, 179)],
}


@pytest.mark.parametrize("legs", sorted(LEGS))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_runs_match_the_per_step_core(name, legs):
    model = MODELS[name]()
    gens = model.generators((0.0, 0.02, -0.02))
    assert 300 > _block_size(gens.shape[-1])  # every run spans more than one block
    got, drift = _propagate(gens, model.rho0, LEGS[legs], TOL)
    want, _ = per_step._propagate(gens, model.rho0, LEGS[legs], TOL)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12
    assert 0.0 <= drift < 1e-12


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_repeated_grid_time_records_the_current_state(name, monkeypatch):
    model = MODELS[name]()
    tgrid = [0.3, 0.3, 1.0, 2.5, 2.5, 2.5]
    cfg = SimConfig(t_final=2.5, dt=DT)
    states = _grid_states(model, (0.0, 1e-4), tgrid, cfg, TOL)
    assert np.array_equal(states[0], states[1])
    assert np.array_equal(states[3], states[4]) and np.array_equal(states[3], states[5])
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_propagate", per_step._propagate)
        ref = _grid_states(model, (0.0, 1e-4), tgrid, cfg, TOL)
    assert np.abs(states - ref).max() <= 1e-12


@pytest.mark.parametrize("tgrid", [list(np.geomspace(0.5, 10.0, 12)), [10.0]])
@pytest.mark.parametrize("ancilla", [False, True])
def test_sweep_grids_match_the_per_step_core(ancilla, tgrid, monkeypatch):
    cfg = SimConfig(t_final=10.0, dt=DT)
    for model in (protected_model(ancilla=ancilla), unprotected_model()):
        qfi, states = _sld_series(model, tgrid, cfg, TOL)
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_propagate", per_step._propagate)
            ref_qfi, ref_states = _sld_series(model, tgrid, cfg, TOL)
        assert np.abs(states - ref_states).max() <= 1e-12
        np.testing.assert_allclose(qfi, ref_qfi, rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def _outcome(propagate, gens, legs, tol):
    try:
        propagate(gens, RHO0, legs, tol)
    except NumericalError as exc:
        return str(exc)
    return "ok"


LEAKING = growing_coherence((0.0, 0.1), feed=1e-4)
LEAKING_BLOCK = _block_size(LEAKING.shape[-1])


def _drift_after(steps):
    lenient = Tolerances(trace_drift=math.inf, positivity_floor=-math.inf)
    return per_step._propagate(LEAKING, RHO0, [(DT, steps)], lenient)[1] if steps else 0.0


@pytest.mark.parametrize("first_over", [None, 1, LEAKING_BLOCK, LEAKING_BLOCK + 1])
def test_a_leaking_generator_aborts_at_the_first_step_over_the_threshold(first_over):
    # the off-diagonal feeds rho_00, so the trace error of a step grows with the
    # coherence; the positivity guard is off, so the drift guard alone decides.
    # None keeps the default threshold; otherwise the threshold sits between the
    # drifts of steps first_over - 1 and first_over: the first and last steps of a
    # block, and the first of the next.
    tol = Tolerances(positivity_floor=-math.inf)
    if first_over is None:
        lo, hi = 0, 4000
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _outcome(per_step._propagate, LEAKING, [(DT, mid)], tol) == "ok":
                lo = mid
            else:
                hi = mid
        first_over = hi
        assert first_over > LEAKING_BLOCK
    else:
        threshold = 0.5 * (_drift_after(first_over - 1) + _drift_after(first_over))
        tol = Tolerances(trace_drift=threshold, positivity_floor=-math.inf)
    message = _outcome(per_step._propagate, LEAKING, [(DT, first_over)], tol)
    assert message.startswith("trace drift")
    assert _outcome(per_step._propagate, LEAKING, [(DT, first_over - 1)], tol) == "ok"
    runs = {
        "one leg": lambda n: [(DT, n)],
        "stride 1": lambda n: [(DT, 1)] * n,
        "stride 7": lambda n: [(DT, 7)] * (n // 7) + [(DT, n % 7)],
    }
    for legs in runs.values():
        assert _outcome(_propagate, LEAKING, legs(first_over - 1), tol) == "ok"
        assert _outcome(_propagate, LEAKING, legs(first_over), tol) == message
        assert _outcome(_propagate, LEAKING, legs(first_over + 500), tol) == message


@pytest.mark.parametrize("legs", [[(0.05, 10)], [(0.05, 1)] * 10])
def test_a_nan_trace_aborts(legs):
    gens = growing_coherence((0.0, 1.0))
    gens[1, 0, 0] = np.nan
    assert _outcome(_propagate, gens, legs, TOL) == "trace drift nan exceeds 1e-06"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_initial_state_is_rejected(bad):
    model = protected_model()
    rho0 = model.rho0.copy()
    rho0[0, 1] = rho0[1, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        simulate.evolve(rho0, model.h, model.jump_set(), model.spectrum,
                        SimConfig(t_final=0.1, dt=DT))
