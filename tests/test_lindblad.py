"""Frequency-resolved jump operators, bath spectra, and the GKSL generator.

Frozen oracle values (hand derivation, verified against direct arithmetic):
- Pure dephasing with a diagonal coupling A = S_z under any commuting
  Hamiltonian: the single jump operator is S_z at nu = 0, and the dissipator
  multiplies each matrix element by -gamma/2 (m - m')^2.
- Spin-1 ladder: S_x under H = S_z splits at nu = +-1 with
  L(+1)^dag L(+1) = diag(1/2, 1/2, 0) and the mirror for nu = -1, so a
  constant shift coefficient s gives lamb_shift = s diag(1/2, 1, 1/2).
- Qubit amplitude damping: sigma_x under H = diag(1, -1) at low temperature
  leaves one active channel L = |1><0| with rate gamma, so excited population
  drains at gamma and coherence at gamma/2.
"""

import dataclasses

import numpy as np
import pytest

from dressedmet.errors import NumericalError, ValidationError
from dressedmet.lindblad import (
    BathSpectrum,
    LindbladSet,
    Regime,
    _levels,
    jump_operators,
    lamb_shift,
    spectrum_from_json,
    superoperator,
)
from dressedmet.operators import HermitianOperator, spin_matrices
from dressedmet.tolerances import Tolerances

import _reference_lindblad as ref
from conftest import random_density, random_hermitian

SX, SY, SZ = spin_matrices(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def apply(generator, rho):
    """The row-major superoperator ``generator`` applied to ``rho``."""
    return (generator @ rho.reshape(-1)).reshape(rho.shape)


def dissipator(rho, lset, spec):
    """The dissipator on ``rho``: the generator of the zero Hamiltonian, no shift."""
    zero = HermitianOperator(np.zeros((lset.dim, lset.dim), dtype=complex))
    return apply(superoperator(zero, lset, spec), rho)


def random_generator_instance(rng, max_dim=5, max_couplings=3):
    dim = int(rng.integers(2, max_dim + 1))
    h = HermitianOperator(random_hermitian(rng, dim))
    n_c = int(rng.integers(1, max_couplings + 1))
    couplings = [HermitianOperator(random_hermitian(rng, dim)) for _ in range(n_c)]
    return h, couplings


class TestJumpOperators:
    def test_diagonal_coupling_single_zero_frequency(self):
        h = HermitianOperator(np.diag([3.0, 1.0, -2.0]).astype(complex))
        lset = jump_operators(h, [HermitianOperator(SZ)])
        assert lset.frequencies == (0.0,)
        np.testing.assert_allclose(lset.blocks[lset.frequencies.index(0.0)][0], SZ, atol=1e-14)

    def test_ladder_coupling_frequency_pair(self):
        lset = jump_operators(HermitianOperator(SZ), [HermitianOperator(SX)])
        assert lset.frequencies == (-1.0, 1.0)
        # lowering block maps m to m - 1 and is the adjoint of the raising one
        lp = lset.blocks[lset.frequencies.index(1.0)][0]
        lm = lset.blocks[lset.frequencies.index(-1.0)][0]
        np.testing.assert_allclose(lp.conj().T, lm, atol=1e-14)
        np.testing.assert_allclose(lp + lm, SX, atol=1e-14)

    def test_zero_hamiltonian_keeps_coupling_whole(self):
        h = HermitianOperator(np.zeros((3, 3), dtype=complex))
        lset = jump_operators(h, [HermitianOperator(SX)])
        assert lset.frequencies == (0.0,)
        np.testing.assert_allclose(lset.blocks[lset.frequencies.index(0.0)][0], SX, atol=1e-14)

    def test_near_degenerate_gaps_bin_together(self):
        # two gaps differing by 1e-12 collapse onto one binned frequency
        h = HermitianOperator(np.diag([0.0, 1.0, 2.0 + 1e-12]).astype(complex))
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1] = a[1, 0] = 1.0
        a[1, 2] = a[2, 1] = 1.0
        lset = jump_operators(h, [HermitianOperator(a)])
        assert len(lset.frequencies) == 2
        assert lset.frequencies[1] == pytest.approx(1.0, abs=1e-9)

    def test_default_grouping_reads_the_gap_tolerances(self):
        # levels 1e-6 apart stay apart at gap_rel 1e-9 and merge at 1e-5
        h = HermitianOperator(np.diag([0.0, 1.0, 1.0 + 1e-6]).astype(complex))
        coupling = [HermitianOperator(np.ones((3, 3), dtype=complex))]
        assert len(jump_operators(h, coupling).frequencies) == 7
        merged = jump_operators(h, coupling, tol=Tolerances(gap_rel=1e-5))
        assert len(merged.frequencies) == 3

    def test_completeness_and_adjoint_pairing_random(self, rng):
        for _ in range(100):
            h, couplings = random_generator_instance(rng)
            lset = jump_operators(h, couplings)
            scale = max(1.0, *(np.linalg.norm(c.entries) for c in couplings))
            assert lset.adjoint_defect() <= 1e-10 * scale
            assert (
                lset.completeness_defect([c.entries for c in couplings])
                <= 1e-10 * scale
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            jump_operators(HermitianOperator(PAULI_Z), [HermitianOperator(SX)])

    def test_rejects_non_hermitian_coupling(self):
        with pytest.raises(ValidationError):
            jump_operators(HermitianOperator(PAULI_Z), [np.array([[0, 1], [0, 0]])])


def eigendecompose_grouped(h: HermitianOperator, gap_tol: float):
    """(mean energy, projector) of each single-linkage cluster of the spectrum of ``h``:
    the eigenspaces ``lindblad._levels`` groups, as projectors."""
    vals, vecs = np.linalg.eigh(h.entries)
    levels = _levels(vals, gap_tol)
    blocks = [(float(e), vecs[:, levels == e]) for e in np.unique(levels)]
    return [(e, block @ block.conj().T) for e, block in blocks]


class TestEigendecomposeGrouped:
    def test_near_degenerate_pair_merges(self):
        h = HermitianOperator(np.diag([0.0, 1.0, 1.0 + 1e-12]).astype(complex))
        groups = eigendecompose_grouped(h, gap_tol=1e-9)
        assert len(groups) == 2
        ranks = sorted(int(round(np.trace(p).real)) for _, p in groups)
        assert ranks == [1, 2]

    def test_projectors_resolve_identity(self, rng):
        h = HermitianOperator(random_hermitian(rng, 4))
        groups = eigendecompose_grouped(h, gap_tol=1e-9)
        total = sum(p for _, p in groups)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("gap_tol", [np.nan, np.inf])
    def test_rejects_non_finite_gap_tol(self, gap_tol):
        # NaN and inf fail every gap comparison and would merge the whole spectrum
        with pytest.raises(ValidationError, match="gap_tol"):
            eigendecompose_grouped(HermitianOperator(PAULI_Z), gap_tol=gap_tol)

    def test_stretched_cluster_raises(self):
        # adjacent gaps all below tolerance but the chain spans 10.8x it
        vals = np.arange(13) * 0.9
        h = HermitianOperator(np.diag(vals).astype(complex))
        with pytest.raises(NumericalError):
            eigendecompose_grouped(h, gap_tol=1.0)

    def test_rejects_nonpositive_gap_tol(self):
        with pytest.raises(ValidationError):
            eigendecompose_grouped(HermitianOperator(PAULI_Z), gap_tol=0.0)


class TestBathSpectrum:
    def test_flat_low_temperature_blocks_excitation(self):
        spec = BathSpectrum.flat(0.9, 1)
        assert spec.rate(2.0)[0, 0] == pytest.approx(0.9)
        assert spec.rate(0.0)[0, 0] == pytest.approx(0.9)
        assert spec.rate(-2.0)[0, 0] == 0.0

    def test_flat_full_thermal_drives_both_signs(self):
        spec = BathSpectrum.flat(0.9, 2, regime=Regime.FULL_THERMAL)
        np.testing.assert_allclose(spec.rate(-2.0), 0.9 * np.eye(2))
        np.testing.assert_allclose(spec.rate(2.0), 0.9 * np.eye(2))

    def test_peak0_is_dephasing_only(self):
        spec = BathSpectrum.peak0(1.3, 1)
        assert spec.regime is Regime.DEPHASING_ONLY
        assert spec.rate(0.0)[0, 0] == pytest.approx(1.3)
        assert spec.rate(1.0)[0, 0] == 0.0

    def test_ohmic_shape(self):
        spec = BathSpectrum.ohmic(2.0, 5.0, 1)
        assert spec.rate(1.0)[0, 0] == pytest.approx(2.0 * np.exp(-0.2))
        assert spec.rate(0.0)[0, 0] == 0.0
        with pytest.raises(ValidationError):
            BathSpectrum.ohmic(1.0, 0.0, 1)

    @pytest.mark.parametrize("build", [
        lambda rate: BathSpectrum.flat(rate, 1),
        lambda rate: BathSpectrum.ohmic(rate, 5.0, 1),
        lambda rate: BathSpectrum.peak0(rate, 1),
    ], ids=["flat", "ohmic", "peak0"])
    @pytest.mark.parametrize("rate", [-1.0, np.nan])
    def test_built_in_shapes_refuse_a_rate_below_zero(self, build, rate):
        # a peak0 model used to run, since no nu = 0 rate was ever evaluated
        with pytest.raises(ValidationError, match="bath rate must be >= 0"):
            build(rate)
        assert build(0.0).rate(0.0)[0, 0] == 0.0

    @pytest.mark.parametrize("cutoff", [-1.0, np.nan])
    def test_ohmic_refuses_a_cutoff_not_above_zero(self, cutoff):
        with pytest.raises(ValidationError, match="ohmic cutoff must be positive"):
            BathSpectrum.ohmic(1.0, cutoff, 1)

    def test_scalar_rate_broadcasts_to_matrix(self):
        spec = BathSpectrum(Regime.FULL_THERMAL, lambda nu: np.eye(1) * 0.4, 3)
        np.testing.assert_allclose(spec.rate(1.0), 0.4 * np.eye(3))

    def test_rejects_non_hermitian_rate_matrix(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]])
        spec = BathSpectrum(Regime.FULL_THERMAL, lambda nu: bad, 2)
        with pytest.raises(ValidationError):
            spec.rate(1.0)

    def test_rejects_indefinite_rate_matrix(self):
        bad = np.diag([1.0, -0.5])
        spec = BathSpectrum(Regime.FULL_THERMAL, lambda nu: bad, 2)
        with pytest.raises(ValidationError):
            spec.rate(1.0)

    def test_each_call_applies_its_own_psd_tolerance(self):
        # a loose first call must not let the matrix past a stricter one
        slightly_bad = np.diag([1.0, -1e-9])
        spec = BathSpectrum(Regime.FULL_THERMAL, lambda nu: slightly_bad, 2)
        np.testing.assert_allclose(spec.rate(1.0, tol=Tolerances(psd=1e-6)), slightly_bad)
        with pytest.raises(ValidationError):
            spec.rate(1.0)
        np.testing.assert_allclose(spec.rate(1.0, tol=Tolerances(psd=1e-6)), slightly_bad)

    def test_writing_into_a_returned_rate_changes_nothing(self):
        spec = BathSpectrum.flat(0.3, 3, regime=Regime.FULL_THERMAL)
        h = HermitianOperator(np.diag([0.0, 1.0, 3.0]).astype(complex))
        lset = jump_operators(h, [HermitianOperator(m) for m in spin_matrices(2)])
        before = superoperator(h, lset, spec)
        rate = spec.rate(0.0)
        rate[:] = -np.eye(3)
        np.testing.assert_array_equal(spec.rate(0.0), 0.3 * np.eye(3))
        np.testing.assert_array_equal(superoperator(h, lset, spec), before)
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            dataclasses.replace(spec, gamma=lambda nu: rate).rate(0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.gamma = lambda nu: rate

    def test_rejects_shape_mismatch(self):
        spec = BathSpectrum(Regime.FULL_THERMAL, lambda nu: np.eye(3), 2)
        with pytest.raises(ValidationError):
            spec.rate(1.0)

    def test_each_call_applies_its_own_hermiticity_tolerance(self):
        # an anti-Hermitian part of 1e-9 passes at 1e-6 and fails at the default
        skewed = np.eye(2) + 1e-9 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        spec = BathSpectrum(Regime.FULL_THERMAL, lambda nu: skewed, 2)
        loose = Tolerances(hermiticity=1e-6)
        np.testing.assert_allclose(spec.rate(1.0, tol=loose), np.eye(2), atol=1e-15)
        with pytest.raises(ValidationError, match="not Hermitian"):
            spec.rate(1.0)
        np.testing.assert_allclose(spec.rate(1.0, tol=loose), np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        spec = BathSpectrum(Regime.FULL_THERMAL, lambda nu: np.diag([1.0, bad]), 2,
                            lamb_coeffs=lambda nu: np.array([[bad]]))
        with pytest.raises(ValidationError, match="non-finite"):
            spec.rate(1.0)
        with pytest.raises(ValidationError, match="non-finite"):
            spec.lamb(1.0)

    def test_shift_coefficients_go_through_the_same_checks(self):
        spec = BathSpectrum(Regime.FULL_THERMAL, lambda nu: np.eye(2), 2,
                            lamb_coeffs=lambda nu: np.array([[1.0 + 5j]]))
        with pytest.raises(ValidationError, match="not Hermitian"):
            spec.lamb(0.0)
        skewed = np.eye(2) + 1e-9 * np.array([[0.0, 1j], [1j, 0.0]])
        spec = dataclasses.replace(spec, lamb_coeffs=lambda nu: skewed)
        with pytest.raises(ValidationError, match="not Hermitian"):
            spec.lamb(0.0)
        np.testing.assert_allclose(spec.lamb(0.0, tol=Tolerances(hermiticity=1e-6)), np.eye(2))
        spec = dataclasses.replace(spec, lamb_coeffs=lambda nu: np.eye(3))
        with pytest.raises(ValidationError, match="shape"):
            spec.lamb(0.0)

    def test_json_round_trip_flat(self):
        spec = BathSpectrum.flat(0.7, 2, regime=Regime.FULL_THERMAL)
        rebuilt = spectrum_from_json(spec.descriptor, 2)
        for nu in (-1.0, 0.0, 1.0):
            np.testing.assert_allclose(rebuilt.rate(nu), spec.rate(nu))

    def test_json_round_trip_ohmic_and_peak0(self):
        for spec in (BathSpectrum.ohmic(1.1, 3.0, 1), BathSpectrum.peak0(0.5, 1)):
            rebuilt = spectrum_from_json(spec.descriptor, 1)
            for nu in (-2.0, 0.0, 0.7, 2.0):
                np.testing.assert_allclose(rebuilt.rate(nu), spec.rate(nu))

    def test_json_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            spectrum_from_json(
                {"regime": "full-thermal", "gamma": {"kind": "lorentz"}}, 1
            )

    def test_json_rejects_missing_fields(self):
        with pytest.raises(ValidationError):
            spectrum_from_json({"gamma": {"kind": "flat", "rate": 1.0}}, 1)


class TestDissipator:
    def test_pure_dephasing_rates(self):
        # frozen oracle: element decay -gamma/2 (m - m')^2
        gamma = 0.7
        h = HermitianOperator(np.diag([3.0, 1.0, -2.0]).astype(complex))
        lset = jump_operators(h, [HermitianOperator(SZ)])
        spec = BathSpectrum.peak0(gamma, 1)
        rho = np.ones((3, 3), dtype=complex) / 3
        out = dissipator(rho, lset, spec)
        m = np.diag(SZ).real
        expected = np.array(
            [
                [-0.5 * gamma * (m[i] - m[j]) ** 2 * rho[i, j] for j in range(3)]
                for i in range(3)
            ]
        )
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_qubit_amplitude_damping(self):
        # frozen oracle: population gamma, coherence gamma/2
        g = 0.9
        lset = jump_operators(HermitianOperator(PAULI_Z), [HermitianOperator(PAULI_X)])
        spec = BathSpectrum.flat(g, 1)
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        out = dissipator(plus, lset, spec)
        expected = np.array(
            [
                [-g * plus[0, 0], -0.5 * g * plus[0, 1]],
                [-0.5 * g * plus[1, 0], g * plus[0, 0]],
            ]
        )
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_rejects_coupling_count_mismatch(self):
        lset = jump_operators(HermitianOperator(PAULI_Z), [HermitianOperator(PAULI_X)])
        spec = BathSpectrum.flat(1.0, 2)
        with pytest.raises(ValidationError):
            dissipator(np.eye(2) / 2, lset, spec)


class TestGkslGenerator:
    def test_lamb_shift_ladder_example(self):
        # frozen oracle: constant coefficient s gives s diag(1/2, 1, 1/2)
        s = 0.3
        lset = jump_operators(HermitianOperator(SZ), [HermitianOperator(SX)])
        spec = BathSpectrum(
            Regime.FULL_THERMAL,
            lambda nu: np.eye(1),
            1,
            lamb_coeffs=lambda nu: s * np.eye(1),
        )
        shift = lamb_shift(lset, spec)
        np.testing.assert_allclose(
            shift.entries, s * np.diag([0.5, 1.0, 0.5]), atol=1e-14
        )

    def test_lamb_shift_defaults_to_zero(self):
        lset = jump_operators(HermitianOperator(SZ), [HermitianOperator(SX)])
        spec = BathSpectrum.flat(1.0, 1)
        assert np.all(lamb_shift(lset, spec).entries == 0)

    def test_lamb_shift_of_an_empty_jump_set_is_d_by_d(self):
        # no couplings, or couplings that vanish, leave no frequencies
        h = HermitianOperator(SZ)
        shift = lambda nu: np.eye(1)
        for couplings, k in (([], 0), ([np.zeros((3, 3))], 1)):
            lset = jump_operators(h, couplings)
            assert lset.frequencies == () and lset.blocks.shape == (0, k, 3, 3)
            for spec in (BathSpectrum.flat(1.0, k),
                         BathSpectrum(Regime.FULL_THERMAL, shift, k, lamb_coeffs=shift)):
                out = lamb_shift(lset, spec)
                assert out.entries.shape == (3, 3) and np.all(out.entries == 0)
                np.testing.assert_array_equal(
                    superoperator(h, lset, spec),
                    -1j * (np.kron(SZ, np.eye(3)) - np.kron(np.eye(3), SZ.T)))

    def test_trace_and_hermiticity_invariants(self, rng):
        for _ in range(100):
            h, couplings = random_generator_instance(rng, max_dim=4)
            lset = jump_operators(h, couplings)
            spec = BathSpectrum.flat(0.5, len(couplings), regime=Regime.FULL_THERMAL)
            rho = random_density(rng, h.dim)
            rhs = apply(superoperator(h, lset, spec), rho)
            assert abs(np.trace(rhs)) < 1e-12
            assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12

    def test_superoperator_matches_rhs(self, rng):
        # against the right-hand side of the dict-of-lists layer, term by term
        h, couplings = random_generator_instance(rng, max_dim=4)
        lset = jump_operators(h, couplings)
        spec = BathSpectrum.flat(0.8, len(couplings), regime=Regime.FULL_THERMAL)
        sup = superoperator(h, lset, spec)
        old = ref.jump_operators(h, couplings)
        for _ in range(5):
            rho = random_density(rng, h.dim)
            direct = ref.gksl_rhs(rho, h, old, spec)
            np.testing.assert_allclose(apply(sup, rho), direct, atol=1e-12)

    def test_dephasing_only_regime_freezes_populations(self, rng):
        # with only nu = 0 channels the populations never move
        h, couplings = random_generator_instance(rng, max_dim=4)
        lset = jump_operators(h, couplings)
        spec = BathSpectrum.peak0(1.0, len(couplings))
        rho = random_density(rng, h.dim)
        rhs = apply(superoperator(h, lset, spec), rho)
        # rotate to the h eigenbasis where populations are h-diagonal blocks
        vals, vecs = np.linalg.eigh(h.entries)
        r = vecs.conj().T @ rhs @ vecs
        for i in range(h.dim):
            assert abs(r[i, i]) < 1e-12


class TestRegimeEnum:
    def test_wire_values(self):
        assert Regime.DEPHASING_ONLY.value == "dephasing-only"
        assert Regime.LOW_TEMPERATURE.value == "low-temperature"
        assert Regime.FULL_THERMAL.value == "full-thermal"
