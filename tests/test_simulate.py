"""Integrator, Fisher-information estimators, sweeps, and leakage fits.

Frozen oracle values (closed forms, cross-checked against scipy where an
independent route exists):
- Matrix-exponential propagation of the full generator (scipy expm) agrees
  with the fixed-step integrator to 1e-10 on a driven dephasing qubit.
- A resonant flip: H = sigma_x on |0><0| reaches |1><1| at t = pi/2.
- Pure dephasing at rate 1 from a sigma_z coupling decays the |+> coherence
  as (1/2) e^{-2t}.
- Noiseless qubit with generator sigma_z/2: both Fisher routes give t^2/4
  (the package convention is t^2 Var, one quarter of the usual 4 t^2 Var).
  With dephasing at rate 1 the value is t^2 e^{-4t} / 4.
- First-order mixing for diag(0, 1, 2.5) under a fixed generator: per-level
  coefficient norms (0.003026549190084311, 0.00448454134902457,
  0.003357247549870446) at offset 1e-2, worst single ratio 1/300, residual
  order 2.  For sigma_z under sigma_x the diagonal elements and the whole
  second-order correction vanish, so the residual order rises to 3.
- Uhlmann fidelity matches scipy's sqrtm evaluation to 1e-7 (the package
  route floors tiny populations, scipy keeps their noise).
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla

from dressedmet.cli import _csv_text
from dressedmet.codespace import CodeSpace
from dressedmet.errors import NumericalError, ValidationError
from dressedmet.lindblad import BathSpectrum, Regime, jump_operators, superoperator
from dressedmet.operators import HermitianOperator, StateVector, spin_matrices
from dressedmet.simulate import (
    ProbeModel,
    ScalingRecord,
    SimConfig,
    crlb,
    evolve,
    fidelity,
    qfi_numeric,
    qfi_sld,
    scaling_sweep,
)
from dressedmet.tolerances import Tolerances

from _witnesses import loglog_slope, perturbation_leakage, qfi_analytic
from conftest import random_density

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
ZERO2 = np.zeros((2, 2), dtype=complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)


def driven_dephasing():
    """sigma_x drive with a full-thermal sigma_z bath at rate 0.4."""
    h = HermitianOperator(PAULI_X)
    lset = jump_operators(h, (HermitianOperator(PAULI_Z),))
    spec = BathSpectrum.flat(0.4, 1, regime=Regime.FULL_THERMAL)
    return h, lset, spec


def noiseless_probe():
    return ProbeModel(
        h=HermitianOperator(ZERO2),
        g=HermitianOperator(0.5 * PAULI_Z),
        couplings=(),
        spectrum=BathSpectrum.flat(1.0, 0),
        rho0=PLUS.copy(),
    )


def dephasing_probe(gamma=1.0):
    return ProbeModel(
        h=HermitianOperator(ZERO2),
        g=HermitianOperator(0.5 * PAULI_Z),
        couplings=(HermitianOperator(PAULI_Z),),
        spectrum=BathSpectrum.flat(gamma, 1, regime=Regime.DEPHASING_ONLY),
        rho0=PLUS.copy(),
    )


def dressed_pair_code():
    psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    psi1 = np.array([1.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return CodeSpace(StateVector(psi0), StateVector(psi1), 3, 1)


class TestSimConfig:
    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValidationError):
            SimConfig(t_final=0.0)

    def test_rejects_step_beyond_horizon(self):
        with pytest.raises(ValidationError):
            SimConfig(t_final=1.0, dt=2.0)

    def test_rejects_zero_stride(self):
        with pytest.raises(ValidationError):
            SimConfig(t_final=1.0, record_stride=0)

    @pytest.mark.parametrize("kwargs", [
        {"t_final": math.inf}, {"t_final": math.nan}, {"t_final": 1.0, "dt": math.nan},
        {"t_final": 1.0, "record_stride": 2.7}, {"t_final": 1.0, "record_stride": math.inf},
    ])
    def test_rejects_non_finite_and_fractional_values(self, kwargs):
        with pytest.raises(ValidationError):
            SimConfig(**kwargs)

    def test_json_round_trip(self):
        cfg = SimConfig.from_json_dict(
            {"t_final": 2.0, "dt": 0.01, "record_stride": 4}
        )
        assert cfg == SimConfig(t_final=2.0, dt=0.01, record_stride=4)

    def test_json_defaults(self):
        cfg = SimConfig.from_json_dict({"t_final": 1.0})
        assert cfg.dt is None
        assert cfg.record_stride == 1

    def test_json_rejects_unknown_keys(self):
        # a key nothing reads is an error, not a silently ignored knob
        with pytest.raises(ValidationError, match="delta_omega"):
            SimConfig.from_json_dict({"t_final": 1.0, "delta_omega": 1e-3})

    def test_json_names_missing_keys(self):
        with pytest.raises(ValidationError, match="t_final"):
            SimConfig.from_json_dict({"dt": 0.01})

    @pytest.mark.parametrize("stride", [True, "2"])
    def test_json_rejects_non_whole_stride(self, stride):
        with pytest.raises(ValidationError, match="record_stride"):
            SimConfig.from_json_dict({"t_final": 1.0, "record_stride": stride})


class TestEvolve:
    def test_matches_matrix_exponential(self):
        h, lset, spec = driven_dephasing()
        sop = superoperator(h, lset, spec)
        traj = evolve(GROUND, h, lset, spec, SimConfig(t_final=0.7, dt=0.002))
        exact = (sla.expm(0.7 * sop) @ GROUND.reshape(-1)).reshape(2, 2)
        assert np.abs(traj.final - exact).max() < 1e-10
        assert 0.0 <= traj.trace_drift < 1e-12

    def test_default_step_path(self):
        h, lset, spec = driven_dephasing()
        traj = evolve(GROUND, h, lset, spec, SimConfig(t_final=0.3))
        assert math.isclose(traj.times[-1], 0.3, rel_tol=1e-12)
        assert abs(np.trace(traj.final).real - 1.0) < 1e-12

    def test_stride_chunks_recording(self):
        h, lset, spec = driven_dephasing()
        traj = evolve(
            GROUND, h, lset, spec, SimConfig(t_final=1.0, dt=0.01, record_stride=30)
        )
        assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])
        assert traj.states.shape == (5, 2, 2)

    def test_fourth_order_step_scaling(self):
        h, lset, spec = driven_dephasing()
        sop = superoperator(h, lset, spec)
        exact = (sla.expm(sop) @ GROUND.reshape(-1)).reshape(2, 2)
        errs = []
        for dt in (0.01, 0.005):
            traj = evolve(GROUND, h, lset, spec, SimConfig(t_final=1.0, dt=dt))
            errs.append(np.abs(traj.final - exact).max())
        order = math.log2(errs[0] / errs[1])
        assert 3.8 <= order <= 4.2

    def test_rejects_unnormalized_state(self):
        h, lset, spec = driven_dephasing()
        with pytest.raises(ValidationError):
            evolve(2.0 * GROUND, h, lset, spec, SimConfig(t_final=0.1))

    def test_rejects_non_hermitian_state(self):
        h, lset, spec = driven_dephasing()
        bad = np.array([[0.5, 0.8], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError, match="Hermitian"):
            evolve(bad, h, lset, spec, SimConfig(t_final=0.1))
        # the check runs at the caller's tol.hermiticity
        skewed = np.diag([0.5, 0.5]).astype(complex) + np.array([[0.0, 1e-9], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="Hermitian"):
            evolve(skewed, h, lset, spec, SimConfig(t_final=0.1))
        evolve(skewed, h, lset, spec, SimConfig(t_final=0.1), tol=Tolerances(hermiticity=1e-6))

    def test_rejects_negative_state(self):
        h, lset, spec = driven_dephasing()
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(NumericalError):
            evolve(bad, h, lset, spec, SimConfig(t_final=0.1))

    def test_stability_guard(self):
        h, lset, spec = driven_dephasing()
        with pytest.raises(ValidationError):
            evolve(GROUND, h, lset, spec, SimConfig(t_final=1.0, dt=0.1))


class TestProbeModel:
    def test_resonant_flip(self):
        model = ProbeModel(
            h=HermitianOperator(PAULI_X),
            g=HermitianOperator(0.5 * PAULI_Z),
            couplings=(),
            spectrum=BathSpectrum.flat(1.0, 0),
            rho0=GROUND.copy(),
        )
        traj = model.evolve(0.0, SimConfig(t_final=math.pi / 2.0, dt=0.001))
        assert abs(traj.final[1, 1].real - 1.0) < 1e-9

    def test_offset_enters_coherent_part_only(self):
        model = dephasing_probe()
        shifted = model.hamiltonian(0.25)
        assert np.allclose(shifted.entries, 0.125 * PAULI_Z)

    def test_dephasing_coherence_decay(self):
        model = dephasing_probe()
        for t in (0.5, 1.0):
            traj = model.evolve(0.0, SimConfig(t_final=t))
            assert abs(model.coherence(traj.final) - 0.5 * math.exp(-2.0 * t)) < 1e-10

    def test_default_coherence_frame(self):
        assert abs(dephasing_probe().coherence(PLUS) - 0.5) < 1e-14

    def test_code_coherence_frame(self):
        code = dressed_pair_code()
        psi = (code.psi0.amplitudes + code.psi1.amplitudes) / math.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        model = ProbeModel(
            h=HermitianOperator(np.zeros((3, 3), dtype=complex)),
            g=HermitianOperator(np.diag([1.0, 0.0, 1.0]).astype(complex)),
            couplings=(),
            spectrum=BathSpectrum.flat(1.0, 0),
            rho0=rho,
            code=code,
        )
        assert abs(model.coherence(rho) - 0.5) < 1e-12

    def test_json_round_trip(self):
        model = dephasing_probe()
        back = ProbeModel.from_json_dict(model.to_json_dict())
        assert np.allclose(back.h.entries, model.h.entries)
        assert np.allclose(back.g.entries, model.g.entries)
        assert np.allclose(back.rho0, model.rho0)
        assert back.spectrum.descriptor == model.spectrum.descriptor

    def test_custom_spectrum_has_no_json_form(self):
        model = ProbeModel(
            h=HermitianOperator(ZERO2),
            g=HermitianOperator(0.5 * PAULI_Z),
            couplings=(HermitianOperator(PAULI_Z),),
            spectrum=BathSpectrum(Regime.DEPHASING_ONLY, lambda nu: np.eye(1), 1),
            rho0=PLUS.copy(),
        )
        with pytest.raises(ValidationError):
            model.to_json_dict()


class TestFidelity:
    def test_matches_scipy_on_random_pairs(self, rng):
        worst = 0.0
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
            sig = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
            root = sla.sqrtm(rho)
            ref = float(np.real(np.trace(sla.sqrtm(root @ sig @ root))) ** 2)
            worst = max(worst, abs(fidelity(rho, sig) - ref))
        assert worst < 1e-7

    def test_pure_state_overlap(self):
        a = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
        b = np.array([1.0, 0.0], dtype=complex)
        ra, rb = np.outer(a, a.conj()), np.outer(b, b.conj())
        assert abs(fidelity(ra, rb) - 0.5) < 1e-12
        assert abs(fidelity(ra, ra) - 1.0) < 1e-12

    def test_symmetry(self, rng):
        rho = random_density(rng, 3, rank=2)
        sig = random_density(rng, 3, rank=3)
        assert abs(fidelity(rho, sig) - fidelity(sig, rho)) < 1e-10

    @pytest.mark.parametrize("pop, kept", [(5e-14, True), (5e-15, False)])
    def test_populations_below_1e_14_relative_are_cut(self, pop, kept):
        # sqrt(pop) enters the value when the population is kept: a cut at 1e-13
        # would move the first case by 2.2e-7, one at 1e-15 the second by 7e-8
        rho = np.diag([1.0 - pop, pop]).astype(complex)
        sigma = 0.5 * np.eye(2, dtype=complex)
        root = math.sqrt(pop) if kept else 0.0
        want = 0.5 * (math.sqrt(1.0 - pop) + root) ** 2
        assert abs(fidelity(rho, sigma) - want) < 1e-12


class TestQfi:
    def test_noiseless_quadratic_growth(self):
        model = noiseless_probe()
        for t in (1.0, 3.0):
            est = qfi_numeric(model, t)
            assert est.reliable
            assert abs(est.value - t * t / 4.0) < 1e-6 * (t * t / 4.0)
            assert abs(qfi_sld(model, t) - t * t / 4.0) < 1e-5 * (t * t / 4.0)

    def test_dephased_closed_form(self):
        model = dephasing_probe()
        for t in (0.5, 1.0):
            target = t * t * math.exp(-4.0 * t) / 4.0
            est = qfi_numeric(model, t)
            assert est.reliable
            assert abs(est.value - target) < 2e-5 * target
            assert abs(qfi_sld(model, t) - target) < 1e-6 * target

    def test_coarse_offset_flags_unreliable(self):
        est = qfi_numeric(noiseless_probe(), 3.0, delta=0.5)
        assert not est.reliable
        assert est.spread > 0.05

    def test_analytic_uses_code_variance(self):
        code = dressed_pair_code()
        sz = spin_matrices(2)[2]
        assert abs(qfi_analytic(code, sz @ sz, 2.0) - 1.0) < 1e-12


class TestCrlb:
    def test_values(self):
        assert crlb(4.0, 2) == 0.125
        assert crlb(0.0, 1) == math.inf

    def test_validation(self):
        with pytest.raises(ValidationError):
            crlb(1.0, 0)
        with pytest.raises(ValidationError):
            crlb(-1.0, 1)


class TestScalingSweep:
    def test_closed_forms_on_qubit_pair(self):
        records = scaling_sweep(noiseless_probe(), dephasing_probe(), [0.5, 1.0, 2.0])
        assert [r.t for r in records] == [0.5, 1.0, 2.0]
        for r in records:
            protected = r.t ** 2 / 4.0
            unprotected = r.t ** 2 * math.exp(-4.0 * r.t) / 4.0
            assert abs(r.qfi_protected - protected) < 1e-6 * protected
            assert abs(r.qfi_unprotected - unprotected) < 1e-6 * unprotected
            assert abs(r.coherence - 0.5) < 1e-12
            assert abs(r.crlb * r.qfi_protected - 1.0) < 1e-12

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValidationError):
            scaling_sweep(noiseless_probe(), dephasing_probe(), [0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_times(self, bad):
        with pytest.raises(ValidationError):
            scaling_sweep(noiseless_probe(), dephasing_probe(), [0.5, bad])
        with pytest.raises(ValidationError):
            qfi_sld(dephasing_probe(), bad)

    def test_record_validation(self):
        with pytest.raises(ValidationError):
            ScalingRecord(t=1.0, qfi_protected=-1.0, qfi_unprotected=0.0,
                          coherence=0.1, crlb=1.0)
        with pytest.raises(ValidationError):
            ScalingRecord(t=1.0, qfi_protected=1.0, qfi_unprotected=0.0,
                          coherence=0.7, crlb=1.0)

    def test_csv_format(self):
        recs = [ScalingRecord(t=0.5, qfi_protected=0.0625, qfi_unprotected=0.25,
                              coherence=0.5, crlb=16.0),
                ScalingRecord(t=1.0, qfi_protected=0.0, qfi_unprotected=0.0,
                              coherence=0.0, crlb=math.inf)]
        header = "t,qfi_protected,qfi_unprotected,coherence,crlb"
        assert _csv_text(header, np.array([dataclasses.astuple(r) for r in recs])) == (
            header + "\n"
            "5.00000000000e-01,6.25000000000e-02,2.50000000000e-01,"
            "5.00000000000e-01,1.60000000000e+01\n"
            "1.00000000000e+00,0.00000000000e+00,0.00000000000e+00,"
            "0.00000000000e+00,inf\n"
        )


def final_decade_slope(records, which: str) -> float:
    """Log-log slope of the ``which`` field over the last factor-10 span of the records' times."""
    ts = np.array([r.t for r in records])
    vals = np.array([getattr(r, which) for r in records])
    keep = ts >= ts[-1] / 10.0
    return loglog_slope(ts[keep], vals[keep])


class TestSlopes:
    def test_loglog_slope_exact_power_law(self):
        ts = [1.0, 2.0, 5.0, 10.0]
        assert abs(loglog_slope(ts, [3.0 * t ** 2 for t in ts]) - 2.0) < 1e-12

    def test_final_decade_window(self):
        ts = np.logspace(0.0, 2.0, 9)
        records = [
            ScalingRecord(t=float(t), qfi_protected=float(t * t / 4.0),
                          qfi_unprotected=1.0, coherence=0.3,
                          crlb=float(4.0 / (t * t)))
            for t in ts
        ]
        assert abs(final_decade_slope(records, "qfi_protected") - 2.0) < 1e-9
        assert abs(final_decade_slope(records, "qfi_unprotected")) < 1e-9


class TestPerturbationLeakage:
    def test_three_level_first_order(self):
        h0 = HermitianOperator(np.diag([0.0, 1.0, 2.5]).astype(complex))
        g = HermitianOperator(np.array(
            [[0.4, 0.3, 0.1], [0.3, -0.2, 0.5], [0.1, 0.5, 0.7]], dtype=complex))
        report = perturbation_leakage(h0, g, 1e-2)
        expected = (
            1e-2 * math.hypot(0.3, 0.1 / 2.5),
            1e-2 * math.hypot(0.3, 0.5 / 1.5),
            1e-2 * math.hypot(0.1 / 2.5, 0.5 / 1.5),
        )
        assert np.allclose(report.corrections, expected, atol=1e-15)
        assert abs(report.max_ratio - 0.5 / 1.5 * 1e-2) < 1e-15
        assert abs(report.fit_exponent - 2.0) < 0.05

    def test_vanishing_second_order_steepens_fit(self):
        # purely off-diagonal coupling on a qubit kills the second-order
        # eigenvector response, so the residual scales one order higher
        report = perturbation_leakage(
            HermitianOperator(PAULI_Z), HermitianOperator(PAULI_X), 1e-2)
        assert np.allclose(report.corrections, (5e-3, 5e-3), atol=1e-15)
        assert abs(report.max_ratio - 5e-3) < 1e-15
        assert abs(report.fit_exponent - 3.0) < 0.05

    def test_rejects_degenerate_spectrum(self):
        with pytest.raises(ValidationError):
            perturbation_leakage(
                HermitianOperator(np.eye(2, dtype=complex)),
                HermitianOperator(PAULI_X), 1e-2)

    def test_default_gap_reads_the_gap_tolerances(self):
        h0 = HermitianOperator(np.diag([0.0, 1.0, 1.0 + 1e-6]).astype(complex))
        g = HermitianOperator(np.array(
            [[0.0, 0.3, 0.1], [0.3, 0.0, 0.5], [0.1, 0.5, 0.0]], dtype=complex))
        perturbation_leakage(h0, g, 1e-9)
        with pytest.raises(ValidationError, match="degenerate"):
            perturbation_leakage(h0, g, 1e-9, tol=Tolerances(gap_rel=1e-5))

    @pytest.mark.parametrize("gap_tol", [np.nan, -1.0, 0.0, np.inf])
    def test_rejects_a_gap_tol_that_is_not_finite_and_positive(self, gap_tol):
        # nan and -1 used to pass the degeneracy check of a 1e-12 level split
        h0 = HermitianOperator(np.diag([0.0, 1.0, 1.0 + 1e-12]).astype(complex))
        sx = HermitianOperator(spin_matrices(2)[0])
        with pytest.raises(ValidationError, match="finite and positive"):
            perturbation_leakage(h0, sx, 1e-3, gap_tol=gap_tol)

    def test_rejects_nonpositive_offset(self):
        with pytest.raises(ValidationError):
            perturbation_leakage(
                HermitianOperator(PAULI_Z), HermitianOperator(PAULI_X), 0.0)
