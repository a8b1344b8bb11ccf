"""Trajectory records and CSV output against their reference paths.

``_reference_propagate`` here is the propagation core that checked positivity
once per leg and stacked the legs from a list; the positivity guard must
raise at the same record with the same message, and before a later
trace-drift abort.  ``tests/_reference_propagate.py`` is the per-step core
that blocked propagation replaced: the recorded states must match it within
1e-12 and the times exactly.  ``_reference_csv`` is the row-by-row CSV
writer of ``simulate``: ``t``, ``purity`` and ``trace_drift`` must match it
byte for byte, and coherences within 4 ulp (the entrywise contraction sums
in another order than the per-row dot).
"""

import math

import numpy as np
import pytest

from dressedmet import cli, simulate
from dressedmet.errors import NumericalError, ValidationError
from dressedmet.lindblad import BathSpectrum, Regime
from dressedmet.nv import (
    nv_bare_code, nv_couplings, nv_dressed_hamiltonian, protected_model, signal_generator,
    unprotected_model,
)
from dressedmet.operators import as_matrix
from dressedmet.simulate import ProbeModel, SimConfig
from dressedmet.tolerances import TOL, Tolerances

import _reference_propagate as per_step


def _reference_check_state(rho, tol):
    herm = 0.5 * (rho + np.swapaxes(rho, -2, -1).conj())
    low = float(np.linalg.eigvalsh(herm).min())
    if low < tol.positivity_floor:
        raise NumericalError(f"state lost positivity: min eigenvalue {low:.3e}")


def _reference_propagate(gens, rho0, legs, tol):
    rho0 = as_matrix(rho0)
    if abs(np.trace(rho0).real - 1.0) > 1e-8:
        raise ValidationError("initial state must have unit trace")
    _reference_check_state(rho0, tol)
    dim = rho0.shape[0]
    trace_row = np.eye(dim).reshape(-1)
    vecs = np.repeat(rho0.reshape(1, -1).astype(complex), len(gens), axis=0)
    steppers = {}
    out = []
    drift = 0.0
    for dt, n_steps in legs:
        if n_steps and dt not in steppers:
            steppers[dt] = simulate._step_increment(gens, dt)
        step = steppers.get(dt)
        for _ in range(n_steps):
            vecs = vecs + np.matmul(step, vecs[..., None])[..., 0]
            tr = (vecs @ trace_row).real
            err = max([abs(x - 1.0) for x in tr.tolist()])
            if err > tol.trace_drift:
                raise NumericalError(f"trace drift {err:.3e} exceeds {tol.trace_drift:.0e}")
            drift = max(drift, err)
            vecs = vecs / tr[:, None]
        rhos = vecs.reshape(-1, dim, dim)
        _reference_check_state(rhos, tol)
        out.append(rhos)
    return np.array(out), drift


def _reference_csv(model, traj):
    a, b = model.coherence_frame()
    lines = ["t,coherence,purity,trace_drift\n"]
    for t, rho in zip(traj.times, traj.states):
        coh = float(abs(a.conj() @ rho @ b))
        purity = float(np.trace(rho @ rho).real)
        drift = abs(float(np.trace(rho).real) - 1.0)
        lines.append(f"{t:.11e},{coh:.11e},{purity:.11e},{drift:.11e}\n")
    return "".join(lines)


def thermal_model():
    code = nv_bare_code()
    psi = (code.psi0.amplitudes + code.psi1.amplitudes) / math.sqrt(2.0)
    return ProbeModel(h=nv_dressed_hamiltonian(), g=signal_generator(), couplings=nv_couplings(),
                      spectrum=BathSpectrum.flat(0.3, 3, regime=Regime.FULL_THERMAL),
                      rho0=np.outer(psi, psi.conj()), code=code)


MODELS = {
    "bare": protected_model,
    "ancilla": lambda: protected_model(ancilla=True),
    "unprotected": unprotected_model,
    "thermal": thermal_model,
}


def _columns(text):
    return [line.split(",") for line in text.splitlines()[1:]]


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_records_match_the_per_record_path(name, stride, tmp_path, monkeypatch):
    model = MODELS[name]()
    cfg = SimConfig(t_final=0.5, dt=0.005, record_stride=stride)
    delta = 0.03
    traj = model.evolve(delta, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_propagate", per_step._propagate)
        ref = model.evolve(delta, cfg)
    assert traj.states.shape[0] == (101 if stride == 1 else 16)
    assert np.abs(traj.states - ref.states).max() <= 1e-12
    assert np.array_equal(traj.times, ref.times)
    assert 0.0 <= traj.trace_drift < 1e-12

    model_path, cfg_path, out = tmp_path / "m.json", tmp_path / "c.json", tmp_path / "t.csv"
    model_path.write_text(cli.json_text(model.to_json_dict()))
    cfg_path.write_text(cli.json_text({"t_final": 0.5, "dt": 0.005, "record_stride": stride}))
    rc = cli.dispatch(["simulate", "--model", str(model_path), "--config", str(cfg_path),
                       f"--delta-omega={delta!r}", "--out", str(out)])
    assert rc == cli.EXIT_OK
    text = out.read_text()
    want = _reference_csv(model, traj)
    assert text.splitlines()[0] == want.splitlines()[0]
    got_rows, want_rows = _columns(text), _columns(want)
    assert len(got_rows) == len(want_rows)
    for got, ref_row in zip(got_rows, want_rows):
        assert (got[0], got[2], got[3]) == (ref_row[0], ref_row[2], ref_row[3])
    stacked = model.coherences(traj.states)
    assert [row[1] for row in got_rows] == [f"{c:.11e}" for c in stacked]
    a, b = model.coherence_frame()
    per_row = np.array([float(abs(a.conj() @ rho @ b)) for rho in traj.states])
    assert np.all(np.abs(stacked - per_row) <= 4 * np.spacing(per_row))


def test_single_coherence_is_the_stacked_case():
    model = thermal_model()
    states = np.concatenate([
        model.evolve(delta, SimConfig(t_final=0.5, dt=dt)).states
        for dt in (0.01, 0.007, 0.003, 0.013, 0.005, 0.0023) for delta in (0.0, 0.03, -0.03)])
    assert len(states) == 1956
    stacked = model.coherences(states)
    assert [model.coherence(rho) for rho in states] == stacked.tolist()
    for size in (2, 3, 7, 64):
        parts = [model.coherences(states[i:i + size]) for i in range(0, len(states), size)]
        assert np.concatenate(parts).tolist() == stacked.tolist()


# ---------------------------------------------------------------------------
# positivity guard
# ---------------------------------------------------------------------------


def growing_coherence(rates, feed=0.0):
    """Qubit generators whose off-diagonals grow at ``rates`` with fixed populations.

    ``feed`` moves ``rho_01`` into ``rho_00``, so the trace error of a step
    grows with the coherence and a drift abort follows positivity loss.
    """
    gens = np.zeros((len(rates), 4, 4), dtype=complex)
    for k, rate in enumerate(rates):
        gens[k, 1, 1] = gens[k, 2, 2] = rate
        gens[k, 0, 1] = feed
    return gens


RHO0 = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)


def _error(fn, *args):
    with pytest.raises(NumericalError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("rates", [(0.0, 1.0), (1.0, 0.5), (0.5, 1.0, 0.0)])
def test_positivity_error_names_the_first_failing_record(rates):
    gens = growing_coherence(rates)
    legs = [(0.05, 1)] * 60
    got = _error(simulate._propagate, gens, RHO0, legs, TOL)
    assert got == _error(_reference_propagate, gens, RHO0, legs, TOL)
    assert got.startswith("state lost positivity: min eigenvalue")


def test_positivity_error_comes_before_a_later_drift_abort():
    gens = growing_coherence((0.2, 1.0), feed=1e-5)
    legs = [(0.05, 3)] * 40
    got = _error(simulate._propagate, gens, RHO0, legs, TOL)
    assert got == _error(_reference_propagate, gens, RHO0, legs, TOL)
    assert got.startswith("state lost positivity")
    # without the guard, the same run ends in a drift abort
    lenient = Tolerances(positivity_floor=-math.inf)
    assert _error(simulate._propagate, gens, RHO0, legs, lenient).startswith("trace drift")
