"""The propagation core against a per-mark oracle, on drawn runs.

``simulate._propagate`` advances by blocks, by two rules (records inside the
blocks, or from mark to mark by squarings) and takes the shorter steps of
off-lattice marks in one deferred pass.  Its contract is that of the
per-mark core ``oracle`` below: lattice steps one at a time, each mark's
shorter step taken at the mark and not continued from, the first step whose
drift ``|T_j / T_(j-1) - 1|`` is over the threshold (or NaN) aborting after
the positivity of the records before it is checked, and every record checked
at the end.  Drawn runs must end the same way: the same failure message, or
records within 1e-11 of ``max(1, |rho|)`` and the same drift.  A run starts
from one state for every generator, or from one state per generator, as a
sweep's probes that share a run do.

The draws: leaking qubit generators (``growing_coherence``, 1-3 offsets,
rates in [0, 3], feed 0, 1e-4 or 1e-3) at dt 0.01, 0.05 or 0.1 with 1-11
marks below step 120, all on the lattice or each half the time off it,
drift thresholds from 1e-9 to 1e-3 and floors 0, -1e-3 and -inf; and the NV
models (D = 9 and 36) at random offsets, on random grids or strided
records, so that both advance rules run.  Half the runs of each kind start
each generator from one of a pair of states: the model's and a drawn partner
(a qubit matrix with a drawn population and coherence, positive or not, or
the NV state mixed with I/d by a drawn weight).  ``simulate._block_size`` is replaced by a drawn 1-64
steps, which puts block boundaries everywhere.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dressedmet import simulate
from dressedmet.errors import NumericalError
from dressedmet.nv import protected_model
from dressedmet.tolerances import Tolerances

import _reference_propagate as per_step
from test_trajectory_output import RHO0, growing_coherence

NV = {9: protected_model(), 36: protected_model(ancilla=True)}


def oracle(gens, rho0, dt, marks, tol):
    """Records at the ``(k, r)`` marks and each step's drift, one step and one mark at a time,
    from ``rho0``, one ``(d, d)`` state for every generator or a stack of one each."""
    starts = rho0 if rho0.ndim == 3 else rho0[None]
    per_step._check_states(starts[None], tol)
    dim = rho0.shape[-1]
    trace_row = np.eye(dim).reshape(-1)
    records = np.empty((len(marks), len(gens), dim, dim), dtype=complex)

    def step(v, inc, i):
        w = v + np.matmul(inc, v[..., None])[..., 0]
        tr = (w @ trace_row).real
        err = float(np.abs(tr / (v @ trace_row).real - 1.0).max())
        if not err <= tol.trace_drift:
            per_step._check_states(records[:i], tol)
            raise NumericalError(f"trace drift {err:.3e} exceeds {tol.trace_drift:.0e}")
        return w / tr[:, None], err

    inc = simulate._step_increment(gens, dt)
    vecs = np.broadcast_to(starts.reshape(len(starts), -1), (len(gens), dim * dim)).astype(complex)
    drifts, done = [], 0
    for i, (end, rest) in enumerate(marks):
        while done < end:
            vecs, err = step(vecs, inc, i)
            drifts.append(err)
            done += 1
        record = vecs
        if rest:
            record, err = step(vecs, simulate._step_increment(gens, rest), i)
            drifts.append(err)
        records[i] = record.reshape(-1, dim, dim)
    per_step._check_states(records, tol)
    return records, drifts


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NumericalError as exc:
        return str(exc)


def check(gens, rho0, dt, marks, tol, block):
    ends = np.array([k for k, _ in marks], dtype=np.int64)
    rests = np.array([r for _, r in marks], dtype=float)
    with mock.patch.object(simulate, "_block_size", lambda entries: block):
        got = _outcome(simulate._propagate, gens, rho0, dt, ends, rests, tol)
    want = _outcome(oracle, gens, rho0, dt, marks, tol)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    scale = np.maximum(1.0, np.abs(want[0]).max(axis=(-2, -1), keepdims=True))
    assert (np.abs(got[0] - want[0]) <= 1e-11 * scale).all()
    drift = max(want[1], default=0.0)
    assert abs(got[1] - drift) <= 1e-9 * drift + 1e-14


BLOCKS = st.integers(1, 64)
THRESHOLDS = st.floats(-9.0, -3.0).map(lambda e: 10.0 ** e)
LENIENT = Tolerances(trace_drift=math.inf, positivity_floor=-math.inf)


def per_generator(draw, rho0, partner, count):
    """``rho0`` for all ``count`` generators, or for each one of ``rho0`` and ``partner``."""
    if not draw(st.booleans()):
        return rho0
    picks = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    return np.stack([partner if pick else rho0 for pick in picks])


@st.composite
def leaking_runs(draw):
    rates = draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3))
    gens = growing_coherence(rates, feed=draw(st.sampled_from([0.0, 1e-4, 1e-3])))
    dt = draw(st.sampled_from([0.01, 0.05, 0.1]))
    ends = sorted(draw(st.lists(st.integers(0, 119), min_size=1, max_size=11)))
    off = draw(st.booleans())  # else every mark on the lattice: records inside the blocks
    rests = st.one_of(st.just(0.0), st.floats(0.01, 0.99).map(lambda f: f * dt))
    marks = [(k, draw(rests) if off else 0.0) for k in ends]
    pop = draw(st.floats(0.1, 0.9))
    # a coherence past the bound sqrt(pop (1 - pop)) leaves the state indefinite, by 0.009 or more
    bound = draw(st.one_of(st.floats(0.0, 0.9), st.floats(1.05, 1.2)))
    coherence = bound * math.sqrt(pop * (1.0 - pop))
    partner = np.array([[pop, coherence], [coherence, 1.0 - pop]], dtype=complex)
    rho0 = per_generator(draw, RHO0, partner, len(gens))
    threshold = draw(THRESHOLDS)
    if draw(st.booleans()):  # just under a step's drift, where a shorter step can be first over
        drifts = [d for d in oracle(gens, rho0, dt, marks, LENIENT)[1] if d > 1e-10]
        if drifts:
            threshold = 0.999 * draw(st.sampled_from(drifts))
    tol = Tolerances(trace_drift=threshold,
                     positivity_floor=draw(st.sampled_from([0.0, -1e-3, -math.inf])))
    return gens, rho0, dt, marks, tol, draw(BLOCKS)


@st.composite
def nv_runs(draw):
    model = NV[draw(st.sampled_from(sorted(NV)))]
    offsets = draw(st.lists(st.floats(-0.05, 0.05), min_size=1, max_size=3))
    dt = draw(st.sampled_from([0.005, 0.01, 0.02]))
    if draw(st.booleans()):  # a grid: marks from mark to mark, on and off the lattice
        tgrid = sorted(draw(st.lists(st.floats(0.0, 119 * dt), min_size=1, max_size=11)))
        marks = list(zip(*(a.tolist() for a in simulate._grid_marks(tgrid, dt))))
    else:  # strided records, inside the blocks when there are several
        stride, steps = draw(st.integers(1, 9)), draw(st.integers(1, 119))
        marks = [(k, 0.0) for k in list(range(stride, steps, stride)) + [steps]]
    tol = Tolerances(trace_drift=draw(THRESHOLDS),
                     positivity_floor=draw(st.sampled_from([-1e-3, -math.inf])))
    mixed = draw(st.floats(0.0, 1.0))
    partner = (1.0 - mixed) * model.rho0 + mixed * np.eye(model.dim) / model.dim
    rho0 = per_generator(draw, model.rho0, partner, len(offsets))
    return model.generators(offsets), rho0, dt, marks, tol, draw(BLOCKS)


@seed(20261022)
@settings(max_examples=250, deadline=None, database=None)
@given(leaking_runs())
def test_a_leaking_run_ends_as_the_per_mark_core_ends(run):
    check(*run)


@seed(20261023)
@settings(max_examples=60, deadline=None, database=None)
@given(nv_runs())
def test_an_nv_run_ends_as_the_per_mark_core_ends(run):
    check(*run)
