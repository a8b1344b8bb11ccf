"""The step-matrix propagation core against the four-stage RK4 loop it replaced.

The reference copies below are the integrator as it stood before the core
was shared: one trajectory at a time, four generator matvecs per step, and
a superoperator assembled for every offset.  The core must reproduce them
to rounding (1e-12 on states, 1e-9 relative on sweep Fisher values), run
batched offsets exactly as it runs them one at a time, and honor the
thresholds of a caller's ``Tolerances``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedmet import simulate
from dressedmet.errors import NumericalError, ValidationError
from dressedmet.lindblad import BathSpectrum, Regime, jump_operators, superoperator
from dressedmet.nv import protected_model, unprotected_model
from dressedmet.operators import HermitianOperator
from dressedmet.simulate import (
    ProbeModel,
    SimConfig,
    _grid_states,
    evolve,
    qfi_numeric,
    qfi_sld,
    scaling_sweep,
)
from dressedmet.tolerances import TOL, Tolerances

from conftest import random_density, random_hermitian

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)

MODELS = {
    "bare": lambda: protected_model(),
    "ancilla": lambda: protected_model(ancilla=True),
}


# ---------------------------------------------------------------------------
# reference integrator: the loop the propagation core replaced
# ---------------------------------------------------------------------------


def reference_rk4_run(sop, vec, dt, n_steps):
    dim = int(round(math.sqrt(vec.shape[0])))
    trace_idx = np.arange(dim) * (dim + 1)
    drift = 0.0
    for _ in range(n_steps):
        k1 = sop @ vec
        k2 = sop @ (vec + 0.5 * dt * k1)
        k3 = sop @ (vec + 0.5 * dt * k2)
        k4 = sop @ (vec + dt * k3)
        vec = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tr = vec[trace_idx].sum().real
        err = abs(tr - 1.0)
        if err > 1e-6:
            raise NumericalError(f"trace drift {err:.3e} exceeds 1e-6")
        drift = max(drift, err)
        vec = vec / tr
    return vec, drift


def reference_evolve(model, delta_omega, cfg):
    """Recorded times and states of the old ``evolve`` at an explicit dt."""
    sop = superoperator(model.hamiltonian(delta_omega), model.jump_set(), model.spectrum)
    n_steps = max(1, int(math.ceil(cfg.t_final / cfg.dt - 1e-12)))
    dt = cfg.t_final / n_steps
    dim = model.dim
    vec = model.rho0.reshape(-1).astype(complex)
    times, states, done = [0.0], [model.rho0.copy()], 0
    while done < n_steps:
        chunk = min(cfg.record_stride, n_steps - done)
        vec, _ = reference_rk4_run(sop, vec, dt, chunk)
        done += chunk
        times.append(done * dt)
        states.append(vec.reshape(dim, dim).copy())
    return np.array(times), np.array(states)


def reference_grid_states(model, delta_omega, tgrid, dt0):
    """The loop stepping at ``dt0`` through the grid; a time off the ``dt0`` lattice is
    the lattice state before it advanced by one shorter step, not continued from."""
    sop = superoperator(model.hamiltonian(delta_omega), model.jump_set(), model.spectrum)
    vec = model.rho0.reshape(-1).astype(complex)
    dim = model.dim
    out = []
    done = 0
    for t in tgrid:
        steps = int(math.floor(t / dt0 + 1e-12))
        vec, _ = reference_rk4_run(sop, vec, dt0, steps - done)
        done = steps
        rest = t - steps * dt0
        rec = reference_rk4_run(sop, vec, rest, 1)[0] if rest > 1e-12 * dt0 else vec
        out.append(rec.reshape(dim, dim).copy())
    return out


def reference_sld_value(rho, drho, floor=1e-12):
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    d = vecs.conj().T @ drho @ vecs
    total = 0.0
    for j in range(len(vals)):
        for k in range(len(vals)):
            w = vals[j] + vals[k]
            if w > floor:
                total += 2.0 * abs(d[j, k]) ** 2 / w
    return total / 4.0


def reference_sweep_qfi(model, tgrid, dt0):
    gnorm = float(np.abs(np.linalg.eigvalsh(model.g.entries)).max())
    d = 1e-4 / max(gnorm, 1e-12)
    center = reference_grid_states(model, 0.0, tgrid, dt0)
    plus = reference_grid_states(model, +d, tgrid, dt0)
    minus = reference_grid_states(model, -d, tgrid, dt0)
    return [reference_sld_value(c, (p - m) / (2.0 * d)) for c, p, m in zip(center, plus, minus)]


# ---------------------------------------------------------------------------
# the core against the loop
# ---------------------------------------------------------------------------


class TestCoreMatchesLoop:
    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("stride", [1, 100])
    def test_recorded_states(self, name, stride):
        model = MODELS[name]()
        cfg = SimConfig(t_final=3.0, dt=0.01, record_stride=stride)
        traj = model.evolve(0.02, cfg)
        times, states = reference_evolve(model, 0.02, cfg)
        assert traj.states.shape == states.shape
        np.testing.assert_array_equal(traj.times, times)
        assert np.abs(traj.states - states).max() < 1e-12
        assert 0.0 <= traj.trace_drift < 1e-12

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_batched_offsets_match_single_runs(self, name):
        model = MODELS[name]()
        offsets = (0.0, 1e-4, -1e-4, 5e-5)
        tgrid = [0.004, 0.3, 0.3, 1.0, 1.2345, 2.5]
        cfg = SimConfig(t_final=2.5, dt=0.01)
        batched = _grid_states(model, offsets, tgrid, cfg, TOL)
        assert batched.shape == (len(tgrid), len(offsets), model.dim, model.dim)
        for j, delta in enumerate(offsets):
            single = _grid_states(model, (delta,), tgrid, cfg, TOL)[:, 0]
            assert np.abs(batched[:, j] - single).max() < 1e-14
            ref = reference_grid_states(model, delta, tgrid, cfg.dt)
            assert np.abs(batched[:, j] - np.array(ref)).max() < 1e-12

    @pytest.mark.parametrize("ancilla", [False, True])
    def test_sweep_fisher_columns(self, ancilla):
        protected = protected_model(ancilla=ancilla)
        unprotected = unprotected_model()
        tgrid = list(np.geomspace(0.5, 4.0, 5))
        records = scaling_sweep(protected, unprotected, tgrid, cfg=SimConfig(4.0, dt=0.01))
        for which, model in (("qfi_protected", protected), ("qfi_unprotected", unprotected)):
            ref = reference_sweep_qfi(model, tgrid, 0.01)
            got = [getattr(r, which) for r in records]
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0.0)

    def test_gate_8_thermal_model(self):
        model = dataclasses.replace(
            protected_model(), spectrum=BathSpectrum.flat(0.3, 3, regime=Regime.FULL_THERMAL)
        )
        cfg = SimConfig(t_final=2.0, dt=0.01, record_stride=50)
        _, states = reference_evolve(model, 0.0, cfg)
        assert np.abs(model.evolve(0.0, cfg).states - states).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=6),
    n_couplings=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    delta=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_generator_is_affine_in_the_offset(dim, n_couplings, seed, delta):
    rng = np.random.default_rng(seed)
    model = ProbeModel(
        h=HermitianOperator(random_hermitian(rng, dim)),
        g=HermitianOperator(random_hermitian(rng, dim)),
        couplings=tuple(HermitianOperator(random_hermitian(rng, dim))
                        for _ in range(n_couplings)),
        spectrum=BathSpectrum.flat(0.7, n_couplings, regime=Regime.FULL_THERMAL),
        rho0=random_density(rng, dim),
    )
    assembled = superoperator(model.hamiltonian(delta), model.jump_set(), model.spectrum)
    affine = model.generators([delta])[0]
    assert np.abs(affine - assembled).max() < 1e-12 * max(1.0, np.abs(assembled).max())


def old_default_dt(model, offsets):
    """The defaulted dt as each offset computed it, jump set and bath rates included."""
    def one(h):
        lset = model.jump_set()
        hnorm = float(np.abs(np.linalg.eigvalsh(h.entries)).max())
        total_rate = sum(float(np.trace(model.spectrum.rates([nu])[0]).real) for nu in lset.frequencies)
        return 1e-3 / max(hnorm, total_rate, 1e-3)
    return min(one(model.hamiltonian(d)) for d in offsets)


@pytest.mark.parametrize("name", ["bare", "unprotected", "thermal"])
def test_a_defaulted_dt_builds_the_jump_set_and_the_rates_once(name, monkeypatch):
    model = {
        "bare": protected_model,
        "unprotected": unprotected_model,
        "thermal": lambda: dataclasses.replace(
            protected_model(), spectrum=BathSpectrum.flat(0.3, 3, regime=Regime.FULL_THERMAL)),
    }[name]()
    tgrid = [0.01, 0.02]
    offsets = (0.0, 1e-4, -1e-4)
    dt = old_default_dt(model, offsets)
    pinned = _grid_states(model, offsets, tgrid, SimConfig(t_final=0.02, dt=dt), TOL)
    qfi = qfi_numeric(model, 0.02, cfg=SimConfig(t_final=0.02, dt=old_default_dt(
        model, (1e-4, -1e-4, 5e-5, -5e-5))), delta=1e-4)
    jumps, rates = [], []
    counted_jumps = simulate.jump_operators
    counted_rates = BathSpectrum.rates

    def jump_operators(*args, **kwargs):
        jumps.append(1)
        return counted_jumps(*args, **kwargs)

    def stacked_rates(self, *args, **kwargs):
        rates.append(1)
        return counted_rates(self, *args, **kwargs)

    monkeypatch.setattr(simulate, "jump_operators", jump_operators)
    monkeypatch.setattr(BathSpectrum, "rates", stacked_rates)
    assert np.array_equal(_grid_states(model, offsets, tgrid, None, TOL), pinned)
    # one stacked rate evaluation for the generators, one for the step size
    assert len(jumps) == 1 and len(rates) == 2
    assert qfi_numeric(model, 0.02, delta=1e-4) == qfi
    assert len(jumps) == 2 and len(rates) == 4
    scaling_sweep(model, model, tgrid)
    assert len(jumps) == 4 and len(rates) == 8


# ---------------------------------------------------------------------------
# tolerances reach the core
# ---------------------------------------------------------------------------


class TestTolerances:
    def test_trace_drift_threshold(self):
        # gate 8's thermal bath: consecutive traces differ in their last bit, where a
        # driven-dephasing qubit's are exactly equal and its drift reads 0
        model = dataclasses.replace(
            protected_model(), spectrum=BathSpectrum.flat(0.3, 3, regime=Regime.FULL_THERMAL))
        cfg = SimConfig(t_final=1.0, dt=0.01)
        traj = evolve(model.rho0, model.h, model.jump_set(), model.spectrum, cfg)
        assert 0.0 < traj.trace_drift < TOL.trace_drift
        strict = Tolerances(trace_drift=traj.trace_drift / 2.0)
        with pytest.raises(NumericalError, match="trace drift"):
            evolve(model.rho0, model.h, model.jump_set(), model.spectrum, cfg, tol=strict)
        with pytest.raises(NumericalError, match="trace drift"):
            scaling_sweep(model, model, [0.5, 1.0], cfg=cfg, tol=strict)

    def test_qfi_disagreement_threshold(self):
        model = ProbeModel(h=HermitianOperator(np.zeros((2, 2), dtype=complex)),
                           g=HermitianOperator(0.5 * PAULI_Z), couplings=(),
                           spectrum=BathSpectrum.flat(1.0, 0),
                           rho0=np.full((2, 2), 0.5, dtype=complex))
        est = qfi_numeric(model, 3.0, delta=0.5)
        assert not est.reliable and TOL.qfi_disagreement < est.spread < 1.0
        lenient = qfi_numeric(model, 3.0, delta=0.5, tol=Tolerances(qfi_disagreement=1.0))
        assert lenient.reliable
        assert lenient.value == est.value and lenient.spread == est.spread

    def slightly_indefinite(self, low):
        rates = np.diag([0.4, low])
        spectrum = BathSpectrum(Regime.FULL_THERMAL, lambda nu: rates, 2)
        couplings = (HermitianOperator(PAULI_Z), HermitianOperator(PAULI_X))
        return ProbeModel(h=HermitianOperator(PAULI_X), g=HermitianOperator(0.5 * PAULI_Z),
                          couplings=couplings, spectrum=spectrum, rho0=GROUND.copy())

    def test_loose_psd_tolerance_admits_slightly_negative_rates(self):
        model = self.slightly_indefinite(-1e-9)
        with pytest.raises(ValidationError):
            qfi_numeric(model, 0.2)
        loose = Tolerances(psd=1e-6)
        for cfg in (None, SimConfig(t_final=0.2, dt=0.01)):
            assert qfi_numeric(model, 0.2, cfg=cfg, tol=loose).value > 0.0

    def test_strict_psd_tolerance_rejects_the_generator(self):
        model = self.slightly_indefinite(-5e-11)
        assert qfi_sld(model, 0.2) > 0.0
        strict = Tolerances(psd=1e-12)
        with pytest.raises(ValidationError):
            superoperator(model.h, model.jump_set(), model.spectrum, tol=strict)
        with pytest.raises(ValidationError):
            qfi_sld(model, 0.2, tol=strict)

    def test_jump_set_follows_the_gap_tolerances(self):
        h = HermitianOperator(np.diag([0.0, 1.0, 1.0 + 1e-6]).astype(complex))
        couplings = (HermitianOperator(np.ones((3, 3), dtype=complex)),)
        spectrum = BathSpectrum.flat(0.3, 1, regime=Regime.FULL_THERMAL)
        rho0 = np.full((3, 3), 1.0 / 3.0, dtype=complex)
        model = ProbeModel(h=h, g=HermitianOperator(np.diag([0.0, 1.0, -1.0]).astype(complex)),
                           couplings=couplings, spectrum=spectrum, rho0=rho0)
        loose = Tolerances(gap_rel=1e-5)
        lset = jump_operators(h, couplings, tol=loose)
        assert len(lset.frequencies) == 3 and len(model.jump_set().frequencies) == 7
        assert model.jump_set(loose).frequencies == lset.frequencies
        np.testing.assert_array_equal(
            model.generators([0.0], tol=loose)[0], superoperator(h, lset, spectrum))
        cfg = SimConfig(t_final=0.2, dt=0.01)
        np.testing.assert_array_equal(model.evolve(0.0, cfg, tol=loose).states,
                                      evolve(rho0, h, lset, spectrum, cfg).states)
        # a model whose fixed gap_tol is the loose tolerance's gap matches throughout
        pinned = dataclasses.replace(model, gap_tol=1e-5 * (1.0 + 1e-6))
        assert pinned.jump_set().frequencies == lset.frequencies
        assert qfi_sld(model, 0.2, cfg, tol=loose) == qfi_sld(pinned, 0.2, cfg)
        assert qfi_sld(model, 0.2, cfg) != qfi_sld(pinned, 0.2, cfg)
        assert scaling_sweep(model, model, [0.1, 0.2], cfg, tol=loose) == scaling_sweep(
            pinned, pinned, [0.1, 0.2], cfg)


# ---------------------------------------------------------------------------
# probe-model values and JSON form
# ---------------------------------------------------------------------------


class TestProbeModelValues:
    def test_generator_assembles_from_the_jump_set(self):
        model = protected_model()
        before = repr(model)
        np.testing.assert_array_equal(
            model.generators([0.0])[0], superoperator(model.h, model.jump_set(), model.spectrum))
        assert repr(model) == before
        assert "lset" not in before and "generator" not in before

    def test_equality_is_field_equality(self):
        model = protected_model()
        twin = dataclasses.replace(model)
        model.generators([0.0])
        assert model == twin
        assert [f.name for f in dataclasses.fields(ProbeModel)] == [
            "h", "g", "couplings", "spectrum", "rho0", "code", "gap_tol"]

    def test_gap_tol_json_round_trip(self):
        model = dataclasses.replace(unprotected_model(), gap_tol=1e-3)
        obj = model.to_json_dict()
        assert obj["gap_tol"] == 1e-3
        back = ProbeModel.from_json_dict(obj)
        assert back.gap_tol == 1e-3
        assert back.jump_set().frequencies == model.jump_set().frequencies

    def test_unset_gap_tol_stays_unset(self):
        obj = unprotected_model().to_json_dict()
        assert "gap_tol" not in obj
        assert ProbeModel.from_json_dict(obj).gap_tol is None
