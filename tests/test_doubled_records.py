"""Records inside the blocks, by doubling on the state increments, against the table they replaced.

``_reference_table_propagate`` is the dense-record branch of
``simulate._propagate`` as it stood with a table of the increments
``M^j - I``: a block's states came from one matmul with it.  The branch now
doubles on the state increments ``(M^j - I) v``.  On the four models of
the trajectory benchmark, at strides 1, 7 and 100, the records must match
the table's within 1e-13 and the drift within 1e-15.  ``_step_drift`` now
forms its ratios from slices and looks for the first failing step only when
one fails; its drifts and that step must be those of the table's formula,
bit for bit, NaN included.
"""

import numpy as np
import pytest

from dressedmet import simulate
from dressedmet.simulate import _propagate, _step_drift
from dressedmet.tolerances import TOL, Tolerances

import _reference_table_propagate as table
from test_trajectory_output import MODELS

DT = 0.01


@pytest.mark.parametrize("stride", [1, 7, 100])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_records_match_the_increments_table(name, stride):
    model = MODELS[name]()
    gens = simulate._offset_generators(model, model.jump_set(), [0.03], TOL)
    ends = list(range(stride, 1000, stride)) + [1000]
    got, drift = _propagate(gens, model.rho0, DT, np.array(ends), np.zeros(len(ends)), TOL)
    want, want_drift = table._propagate(gens, model.rho0, DT, [(k, 0.0) for k in ends], TOL)
    assert got.shape == want.shape == (len(ends), 1, model.dim, model.dim)
    assert np.abs(got - want).max() <= 1e-13
    assert abs(drift - want_drift) <= 1e-15


# planted (generator, step, trace) entries; a step of None plants the trace before the run
PLANTS = {
    "all pass": [],
    "first step fails": [(1, 0, 2.0)],
    "a middle step fails": [(0, 5, 1.5)],
    "last step fails": [(2, -1, 0.5)],
    "a NaN step": [(1, 6, np.nan)],
    "a NaN before a failing step": [(1, 3, np.nan), (0, 8, 3.0)],
    "a failing step before a NaN": [(1, 2, 3.0), (0, 9, np.nan)],
    "a NaN trace before the run": [(2, None, np.nan)],
    "an infinite trace": [(0, 4, np.inf)],
    "a zero trace": [(2, 7, 0.0)],
}


@pytest.mark.parametrize("steps", [1, 10, 300])
@pytest.mark.parametrize("case", sorted(PLANTS))
def test_step_drift_matches_the_stacked_formula(case, steps):
    rng = np.random.default_rng(steps)
    traces = 1.0 + 1e-7 * rng.standard_normal((3, steps))
    before = 1.0 + 1e-7 * rng.standard_normal(3)
    for row, step, value in PLANTS[case]:
        if step is None:
            before[row] = value
        else:
            traces[row, min(step, steps - 1)] = value
    for tol in (TOL, Tolerances(trace_drift=1e-7), Tolerances(trace_drift=np.inf)):
        with np.errstate(divide="ignore", invalid="ignore"):
            err, passed = _step_drift(before, traces, tol)
            want_err, want_passed = table._step_drift(before, traces.T, tol)
        assert err.tobytes() == want_err.tobytes()
        assert type(passed) is int and passed == want_passed
