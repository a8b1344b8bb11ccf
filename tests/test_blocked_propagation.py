"""Blocked propagation against the per-step core it replaced.

``_reference_propagate`` is ``simulate._propagate`` as it stood before
blocking: one matmul per RK4 step over legs of ``(dt, steps)``, with the
trace renormalized and checked after every step.  The blocked core steps at
one dt and records at marks ``(k, r)``: the state after ``k`` steps,
advanced by one step of length ``r``.  Record ``i`` must match the per-step
core run on the legs ``[(dt, k_i), (r_i, 1)]`` within 1e-12 on states, for
strided records, zero-step marks, runs longer than a block (both block
sizes: ``B D^2 <= 2^15`` from mark to mark, ``B D <= 2^15`` for records
inside the blocks), repeated and off-lattice grid times and a first time
below dt; sweep Fisher values must match within 1e-9 relative; a generator
that leaks trace must abort at the same step, full or shorter, with the
same message; and a record that loses positivity past the first block must
be named as the per-step core names it.  The core takes every shorter step
in one stacked pass after the lattice run, so three cases pin the abort
order where the steps' drifts differ: a shorter step over the threshold
ahead of a whole step that drifts more, a whole step ahead of a later
mark's shorter step, and a shorter step's record that lost positivity ahead
of a later drift abort.  The stacked SLD values must match the per-state
loop within 1e-13 relative.
"""

import math

import numpy as np
import pytest

from dressedmet import simulate
from dressedmet.errors import NumericalError, ValidationError
from dressedmet.nv import protected_model, unprotected_model
from dressedmet.simulate import (
    SimConfig, _block_size, _grid_marks, _grid_states, _propagate, _sld_probes,
)
from dressedmet.tolerances import TOL, Tolerances

import _reference_propagate as per_step
from test_propagator import reference_sld_value
from test_trajectory_output import RHO0, growing_coherence

MODELS = {
    "bare": protected_model,
    "ancilla": lambda: protected_model(ancilla=True),
    "unprotected": unprotected_model,
}

DT = 0.01


def strided(ends):
    return [(k, 0.0) for k in ends]


def propagate(gens, rho0, dt, marks, tol):
    """``_propagate`` on marks given as ``(k, r)`` pairs."""
    ends = np.array([k for k, _ in marks], dtype=np.int64)
    return _propagate(gens, rho0, dt, ends, np.array([r for _, r in marks], dtype=float), tol)


def reference_records(gens, rho0, dt, marks, tol=TOL):
    """Record ``i`` of the per-step core on the legs ``[(dt, k_i), (r_i, 1)]``; the lattice
    records come from one run through their ends, which takes the same steps."""
    ends = [k for k, _ in marks]
    out, _ = per_step._propagate(gens, rho0, [(dt, b - a) for a, b in zip([0] + ends, ends)], tol)
    for i, (k, r) in enumerate(marks):
        if r:
            out[i] = per_step._propagate(gens, rho0, [(dt, k), (r, 1)], tol)[0][-1]
    return out


def placement(tgrid, dt):
    """Whole steps at or before each time, with 1e-12 slack, and the rest, 0 within 1e-12 dt."""
    marks = []
    for t in tgrid:
        k = int(math.floor(t / dt + 1e-12))
        r = t - k * dt
        marks.append((k, r if r > 1e-12 * dt else 0.0))
    return marks


# 2 B + 301 steps: records inside three blocks of B = 2048 at D = 9, nine of 512 at D = 36
DENSE_STEPS = 4397

CASES = {
    "stride 1": strided(range(1, 301)),
    "stride 1 over three dense blocks": strided(range(1, DENSE_STEPS + 1)),
    "stride 7 over three dense blocks": strided(list(range(7, DENSE_STEPS, 7)) + [DENSE_STEPS]),
    "stride 7 and a remainder": strided(list(range(7, 295, 7)) + [300]),
    "one leg": strided([300]),
    "zero-step legs in a run": strided([0, 5, 5, 300, 300]),
    "partial steps": [(0, 0.4 * DT), (270, 0.0), (270, 0.0), (289, 0.7 * DT), (289, 0.7 * DT),
                      (299, 0.25 * DT)],
}


@pytest.mark.parametrize("marks", sorted(CASES))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_runs_match_the_per_step_core(name, marks):
    model = MODELS[name]()
    gens = model.generators((0.0, 0.02, -0.02))
    assert 270 > _block_size(gens.shape[-1] ** 2)  # every run from mark to mark spans blocks
    assert DENSE_STEPS > 2 * _block_size(gens.shape[-1]) and DENSE_STEPS % 7
    got, drift = propagate(gens, model.rho0, DT, CASES[marks], TOL)
    want = reference_records(gens, model.rho0, DT, CASES[marks])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12
    assert 0.0 <= drift < 1e-12


def test_grid_times_are_placed_on_the_dt_lattice():
    # 0.29 / 0.01 and 0.57 / 0.01 round to just below 29 and 57: the slack puts them
    # on the lattice, where 0.57 - 57 * 0.01 is -1.1e-16
    tgrid = [0.004, 0.29, 0.3, 0.3, 0.57, 1.0, 1.2345, 10.0]
    marks = list(zip(*(a.tolist() for a in _grid_marks(tgrid, DT))))
    assert marks == placement(tgrid, DT)
    assert [k for k, _ in marks] == [0, 29, 30, 30, 57, 100, 123, 1000]
    assert [r == 0.0 for _, r in marks] == [False, True, True, True, True, True, False, True]
    assert all(0.0 <= r < DT for _, r in marks)
    assert abs(marks[0][1] - 0.004) < 1e-18 and abs(marks[6][1] - 0.0045) < 1e-15


GRIDS = {
    "on the lattice": [0.3, 0.3, 1.0, 2.5, 2.5, 2.5],
    "off the lattice": [0.004, 0.3, 0.3, 1.0, 1.2345, 1.2345, 2.5, 2.5, 2.5],
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_repeated_grid_time_records_the_current_state(name):
    model = MODELS[name]()
    cfg = SimConfig(t_final=2.5, dt=DT)
    offsets = (0.0, 1e-4)
    gens = model.generators(offsets)
    for tgrid in GRIDS.values():
        states = _grid_states(model, offsets, tgrid, cfg, TOL)
        for i in np.flatnonzero(np.diff(tgrid) == 0.0):
            assert np.array_equal(states[i], states[i + 1])
        ref = reference_records(gens, model.rho0, DT, placement(tgrid, DT))
        assert np.abs(states - ref).max() <= 1e-12


@pytest.mark.parametrize("tgrid", [list(np.geomspace(0.5, 10.0, 12)), [10.0]])
@pytest.mark.parametrize("ancilla", [False, True])
def test_sweep_grids_match_the_per_step_core(ancilla, tgrid):
    cfg = SimConfig(t_final=10.0, dt=DT)
    for model in (protected_model(ancilla=ancilla), unprotected_model()):
        qfi, center = _sld_probes((model,), tgrid, cfg, TOL)[0]
        d = simulate._default_delta(model)
        ref = reference_records(model.generators((0.0, d, -d)), model.rho0, DT,
                                placement(tgrid, DT))
        assert np.abs(center - ref[:, 0]).max() <= 1e-12
        ref_qfi = [reference_sld_value(c, (p - m) / (2.0 * d)) for c, p, m in ref]
        np.testing.assert_allclose(qfi, ref_qfi, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_sld_values_match_the_per_state_loop(name, grid):
    # one stacked eigh and a masked sum against the loop over each state's eigenpairs;
    # the models start pure, so the early states keep eigenvalue pairs below the floor
    model = MODELS[name]()
    cfg = SimConfig(t_final=2.5, dt=DT)
    d = simulate._default_delta(model)
    states = _grid_states(model, (0.0, d, -d), GRIDS[grid], cfg, TOL)
    qfi, center = _sld_probes((model,), GRIDS[grid], cfg, TOL)[0]
    assert np.array_equal(center, states[:, 0])
    want = [reference_sld_value(c, (p - m) / (2.0 * d)) for c, p, m in states]
    np.testing.assert_allclose(qfi, want, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def _outcome(propagate, gens, *run):
    try:
        propagate(gens, RHO0, *run)
    except NumericalError as exc:
        return str(exc)
    return "ok"


LEAKING = growing_coherence((0.0, 0.1), feed=1e-4)
LEAKING_BLOCK = _block_size(LEAKING.shape[-1] ** 2)  # from mark to mark
LEAKING_DENSE_BLOCK = _block_size(LEAKING.shape[-1])  # records inside the blocks
LENIENT = Tolerances(trace_drift=math.inf, positivity_floor=-math.inf)
NO_POSITIVITY = Tolerances(positivity_floor=-math.inf)


def _drift_after(steps):
    return per_step._propagate(LEAKING, RHO0, [(DT, steps)], LENIENT)[1] if steps else 0.0


def _first_over_the_default_threshold():
    lo, hi = 0, 4000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _outcome(per_step._propagate, LEAKING, [(DT, mid)], NO_POSITIVITY) == "ok":
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("first_over", [None, 1, LEAKING_BLOCK, LEAKING_BLOCK + 1,
                                        LEAKING_DENSE_BLOCK, LEAKING_DENSE_BLOCK + 1])
def test_a_leaking_generator_aborts_at_the_first_step_over_the_threshold(first_over):
    # the off-diagonal feeds rho_00, so the trace error of a step grows with the
    # coherence; the positivity guard is off, so the drift guard alone decides.
    # None keeps the default threshold; otherwise the threshold sits between the
    # drifts of steps first_over - 1 and first_over: the first and last steps of a
    # block, and the first of the next, for both block sizes.  The grid's shorter
    # steps, a quarter step from an earlier state, drift less than the threshold.
    tol = NO_POSITIVITY
    if first_over is None:
        first_over = _first_over_the_default_threshold()
        assert first_over > LEAKING_BLOCK
    else:
        threshold = 0.5 * (_drift_after(first_over - 1) + _drift_after(first_over))
        tol = Tolerances(trace_drift=threshold, positivity_floor=-math.inf)
    message = _outcome(per_step._propagate, LEAKING, [(DT, first_over)], tol)
    assert message.startswith("trace drift")
    assert _outcome(per_step._propagate, LEAKING, [(DT, first_over - 1)], tol) == "ok"
    runs = {
        "one leg": lambda n: strided([n]),
        "stride 1": lambda n: strided(range(1, n + 1)),
        "stride 7": lambda n: strided(list(range(7, n + 1, 7)) + [n]),
        "grid": lambda n: [(n // 3, 0.25 * DT), (n // 2, 0.0), (n, 0.0)],
    }
    for marks in runs.values():
        assert _outcome(propagate, LEAKING, DT, marks(first_over - 1), tol) == "ok"
        assert _outcome(propagate, LEAKING, DT, marks(first_over), tol) == message
        assert _outcome(propagate, LEAKING, DT, marks(first_over + 500), tol) == message


def test_a_shorter_step_over_the_threshold_aborts_the_run():
    # the whole steps before it pass the default threshold, and a step just short
    # of dt from there is the first over it, ahead of the whole steps that follow
    steps = _first_over_the_default_threshold() - 1
    rest = np.nextafter(DT, 0.0)
    message = _outcome(per_step._propagate, LEAKING, [(DT, steps), (rest, 1)], NO_POSITIVITY)
    assert message.startswith("trace drift") and message.endswith("exceeds 1e-06")
    for marks in ([(steps, rest)], [(steps // 2, 0.0), (steps, rest), (steps + 10, 0.0)]):
        assert _outcome(propagate, LEAKING, DT, marks, NO_POSITIVITY) == message
    assert _outcome(propagate, LEAKING, DT, [(steps, 0.0)], NO_POSITIVITY) == "ok"


def test_shorter_steps_count_in_the_drift():
    rest = 0.6 * DT
    assert propagate(LEAKING, RHO0, DT, [(0, 0.0)], LENIENT)[1] == 0.0
    got = propagate(LEAKING, RHO0, DT, [(0, rest)], LENIENT)[1]
    want = per_step._propagate(LEAKING, RHO0, [(DT, 0), (rest, 1)], LENIENT)[1]
    assert got > 0.0 and abs(got - want) <= 1e-9 * want
    steps = 40
    whole = propagate(LEAKING, RHO0, DT, [(steps, 0.0)], LENIENT)[1]
    got = propagate(LEAKING, RHO0, DT, [(steps, np.nextafter(DT, 0.0))], LENIENT)[1]
    assert got > whole


def test_a_shorter_step_that_loses_positivity_is_named():
    # the coherence 0.1 e^t passes 1/2 at t = ln 5 = 1.609: the shorter step to
    # t = 1.635 is the first record that fails, ahead of the whole-step one at t = 2
    gens = growing_coherence((0.0, 1.0))
    dt = 0.05
    marks = [(20, 0.0), (32, 0.0), (32, 0.7 * dt), (40, 0.0)]
    lenient = Tolerances(positivity_floor=-math.inf)
    ref = reference_records(gens, RHO0, dt, marks, lenient)
    with pytest.raises(NumericalError) as want:
        per_step._check_states(ref, TOL)
    with pytest.raises(NumericalError) as first:
        per_step._check_states(ref[:3], TOL)
    assert str(first.value) == str(want.value)
    assert _outcome(propagate, gens, dt, marks, TOL) == str(want.value)
    assert _outcome(propagate, gens, dt, marks[:2], TOL) == "ok"


# the coherence grows about sevenfold per step of 0.1, so half a step from step k
# drifts more than whole step k and less than whole step k + 1
FAST = growing_coherence((0.0, 20.0), feed=1e-4)
FAST_DT = 0.1
HALF = 0.5 * FAST_DT


def _fast_drift(legs):
    return per_step._propagate(FAST, RHO0, legs, LENIENT)[1]


def _fast_tol(lower, upper):
    """Positivity off, the drift threshold between the largest drifts of two leg sets."""
    return Tolerances(trace_drift=0.5 * (_fast_drift(lower) + _fast_drift(upper)),
                      positivity_floor=-math.inf)


def test_a_shorter_step_aborts_ahead_of_a_later_whole_step_that_drifts_more():
    # whole steps 1 and 2 pass, half a step from step 2 is the first over the threshold,
    # and whole step 3 and later drift more: the shorter step's drift is reported
    tol = _fast_tol([(FAST_DT, 2)], [(FAST_DT, 2), (HALF, 1)])
    message = _outcome(per_step._propagate, FAST, [(FAST_DT, 2), (HALF, 1)], tol)
    later = _outcome(per_step._propagate, FAST, [(FAST_DT, 3)], tol)
    assert message.startswith("trace drift") and later.startswith("trace drift")
    assert message != later
    for marks in ([(2, HALF), (5, 0.0)], [(1, 0.0), (2, HALF), (2, 0.0), (5, HALF)]):
        assert _outcome(propagate, FAST, FAST_DT, marks, tol) == message


def test_a_whole_step_aborts_ahead_of_a_later_marks_shorter_step():
    # whole step 5 is the first over the threshold; the shorter step from step 2
    # passes, and the one from step 5, which drifts more, comes after it
    tol = _fast_tol([(FAST_DT, 4)], [(FAST_DT, 5)])
    message = _outcome(per_step._propagate, FAST, [(FAST_DT, 5)], tol)
    assert message.startswith("trace drift")
    assert _outcome(per_step._propagate, FAST, [(FAST_DT, 4)], tol) == "ok"
    assert _outcome(per_step._propagate, FAST, [(FAST_DT, 2), (HALF, 1)], tol) == "ok"
    assert _fast_drift([(FAST_DT, 5), (HALF, 1)]) > _fast_drift([(FAST_DT, 5)])
    for marks in ([(2, HALF), (5, HALF), (7, 0.0)], [(2, HALF), (6, HALF)]):
        assert _outcome(propagate, FAST, FAST_DT, marks, tol) == message


@pytest.mark.parametrize("later", ["whole", "shorter"])
def test_a_shorter_step_that_lost_positivity_is_named_ahead_of_a_later_drift_abort(later):
    # as above, the shorter step to t = 1.635 is the first record that loses positivity,
    # while the lattice record at t = 1.6 keeps it.  With a feed, a drift abort follows:
    # at whole step 36, or at a step of 0.99 dt from step 36, which drifts more than
    # whole step 36 and less than 37.  Either abort names the shorter step's record.
    gens = growing_coherence((0.0, 1.0), feed=1e-4)
    dt = 0.05
    if later == "whole":
        marks = [(32, 0.7 * dt), (40, 0.0)]
        under, over = [(dt, 35)], [(dt, 36)]
    else:
        marks = [(32, 0.7 * dt), (36, 0.99 * dt), (40, 0.0)]
        under, over = [(dt, 36)], [(dt, 36), (0.99 * dt, 1)]
    threshold = 0.5 * sum(per_step._propagate(gens, RHO0, legs, LENIENT)[1] for legs in (under, over))
    drift_only = Tolerances(trace_drift=threshold, positivity_floor=-math.inf)
    message = _outcome(per_step._propagate, gens, over, drift_only)
    assert message.startswith("trace drift")
    assert _outcome(per_step._propagate, gens, under, drift_only) == "ok"
    assert _outcome(per_step._propagate, gens, [(dt, 32), (0.7 * dt, 1)], drift_only) == "ok"
    assert _outcome(propagate, gens, dt, marks, drift_only) == message
    ref = reference_records(gens, RHO0, dt, marks[:1], LENIENT)
    with pytest.raises(NumericalError) as want:
        per_step._check_states(ref, TOL)
    tol = Tolerances(trace_drift=threshold)
    assert _outcome(propagate, gens, dt, marks, tol) == str(want.value)
    assert _outcome(propagate, gens, dt, [(32, 0.0)] + marks[1:], tol) == message


@pytest.mark.parametrize("feed", [0.0, 1.8e-4])
@pytest.mark.parametrize("stride", [1, 7])
def test_a_record_past_the_first_dense_block_that_loses_positivity_is_named(stride, feed):
    # the coherence 0.1 e^(0.0175 t) passes 1/2 at t = ln 5 / 0.0175 = 91.97, step 9197,
    # in the second block of 8192 steps; with the feed, a drift abort follows in that
    # block, near step 9820, and the records that lost positivity are named first
    gens = growing_coherence((0.0, 0.0175), feed=feed)
    steps = 10400
    assert _block_size(gens.shape[-1]) < 9197 < steps < 2 * _block_size(gens.shape[-1])
    ends = list(range(stride, steps, stride)) + [steps]
    legs = [(DT, b - a) for a, b in zip([0] + ends, ends)]
    message = _outcome(per_step._propagate, gens, legs, TOL)
    assert message.startswith("state lost positivity")
    assert _outcome(propagate, gens, DT, strided(ends), TOL) == message
    lenient = _outcome(per_step._propagate, gens, legs, NO_POSITIVITY)
    assert lenient.startswith("trace drift" if feed else "ok")
    assert _outcome(propagate, gens, DT, strided(ends), NO_POSITIVITY) == lenient


@pytest.mark.parametrize("tgrid, dt, message", [
    ([1e-300, 1.0, 1e300], DT, "past int64"),
    ([1.0, 1e300], 1e-300, "a step count is not finite"),
])
def test_a_grid_past_the_step_count_is_refused_before_any_assembly(tgrid, dt, message,
                                                                   monkeypatch):
    def assemble(*args, **kwargs):
        raise AssertionError("a generator was assembled")

    monkeypatch.setattr(simulate, "superoperator", assemble)
    cfg = SimConfig(t_final=max(tgrid), dt=dt)
    for model in (protected_model(), protected_model(ancilla=True)):
        with pytest.raises(ValidationError, match=message):
            _grid_states(model, (0.0, 1e-4), tgrid, cfg, TOL)


@pytest.mark.parametrize("legs", [[(0.05, 10)], [(0.05, 1)] * 10])
def test_a_nan_trace_aborts(legs):
    gens = growing_coherence((0.0, 1.0))
    gens[1, 0, 0] = np.nan
    marks = strided(np.cumsum([n for _, n in legs]).tolist())
    assert _outcome(propagate, gens, 0.05, marks, TOL) == "trace drift nan exceeds 1e-06"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_initial_state_is_rejected(bad):
    model = protected_model()
    rho0 = model.rho0.copy()
    rho0[0, 1] = rho0[1, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        simulate.evolve(rho0, model.h, model.jump_set(), model.spectrum,
                        SimConfig(t_final=0.1, dt=DT))
