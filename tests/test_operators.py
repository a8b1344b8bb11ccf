"""Operator algebra primitives: validation, spans, splits, spin matrices."""

import numpy as np
import pytest

from dressedmet.codespace import code_search, no_go_search, purify_pair
from dressedmet.criteria import linear_span_condition, quadratic_span_condition
from dressedmet.errors import ValidationError
from dressedmet.jsonio import operator_from_json, state_from_json
from dressedmet.lindblad import BathSpectrum, Regime, jump_operators
from dressedmet.operators import (
    HermitianOperator,
    OperatorSpan,
    ScalarField,
    StateVector,
    as_matrix,
    eigh_fixed,
    lift,
    orthonormal_span,
    positive_negative_split,
    project_decompose,
    spin_matrices,
)
from dressedmet.sdp import SdpProblem
from dressedmet.simulate import SimConfig, evolve
from dressedmet.tolerances import TOL, Tolerances

from conftest import random_hermitian

SX1, SY1, SZ1 = spin_matrices(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


class TestHermitianOperator:
    def test_accepts_hermitian(self):
        op = HermitianOperator([[1.0, 1.0j], [-1.0j, 0.0]])
        assert op.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianOperator([[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.zeros((2, 3)))

    def test_symmetrizes_roundoff(self):
        m = np.array([[1.0, 0.3 + 1e-14j], [0.3, 2.0]])
        op = HermitianOperator(m)
        assert np.allclose(op.entries, op.entries.conj().T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        # a NaN deviation compares false, so the Hermiticity test alone
        # would let it through
        with pytest.raises(ValidationError, match="finite"):
            HermitianOperator([[bad, 0.0], [0.0, -1.0]])


class TestStateVector:
    def test_accepts_normalized(self):
        v = StateVector([1.0, 0.0])
        assert v.dim == 2

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            StateVector([1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            StateVector([np.nan, 1.0])


class TestWireFormat:
    @pytest.mark.parametrize("field", ["re", "im"])
    def test_operator_json_rejects_non_finite(self, field):
        data = {"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        data[field][0][1] = data[field][1][0] = float("nan")
        with pytest.raises(ValidationError, match="non-finite"):
            operator_from_json(data)

    @pytest.mark.parametrize("field", ["re", "im"])
    def test_state_json_rejects_non_finite(self, field):
        data = {"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}
        data[field][1] = float("inf")
        with pytest.raises(ValidationError, match="non-finite"):
            state_from_json(data)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_as_matrix_refuses_a_shape_that_is_not_square(shape):
    with pytest.raises(ValidationError, match=r"expected a square matrix, got shape"):
        as_matrix(np.zeros(shape))


def test_tensor_and_lift_shapes():
    lifted = lift(PAULI_Z, 3)
    assert lifted.shape == (6, 6)
    # lifting acts trivially on the ancilla factor
    assert np.allclose(lifted, np.kron(PAULI_Z, np.eye(3)))


class TestOrthonormalSpan:
    def test_orthonormal_basis(self, rng):
        gens = [random_hermitian(rng, 3) for _ in range(5)]
        span = orthonormal_span(gens, ScalarField.REAL)
        for i, a in enumerate(span.basis):
            for j, b in enumerate(span.basis):
                want = 1.0 if i == j else 0.0
                assert abs(np.trace(a.conj().T @ b) - want) < 1e-10

    def test_drops_dependent_generators(self):
        gens = [np.eye(2), PAULI_Z, np.eye(2) + PAULI_Z]
        span = orthonormal_span(gens, ScalarField.REAL)
        assert span.size == 2

    def test_projection_fixes_members(self, rng):
        gens = [np.eye(3), random_hermitian(rng, 3)]
        span = orthonormal_span(gens, ScalarField.REAL)
        member = 0.7 * gens[0] - 2.0 * gens[1]
        assert np.linalg.norm(span.project(member) - member) < 1e-10

    def test_projection_refuses_another_dimension(self):
        span = orthonormal_span([np.eye(2), PAULI_Z], ScalarField.REAL)
        with pytest.raises(ValidationError, match="dimension mismatch in span projection"):
            span.project(np.eye(3))

    def test_real_span_rejects_non_hermitian_basis(self):
        with pytest.raises(ValidationError):
            OperatorSpan(2, ScalarField.REAL, (np.array([[0, 1], [0, 0]]),))


def test_project_decompose_is_exact_orthogonal(rng):
    gens = [np.eye(4)] + [random_hermitian(rng, 4) for _ in range(3)]
    span = orthonormal_span(gens, ScalarField.REAL)
    g = random_hermitian(rng, 4)
    par, perp = project_decompose(g, span)
    assert np.linalg.norm(g - par.entries - perp.entries) < 1e-12
    for b in span.basis:
        assert abs(np.trace(b.conj().T @ perp.entries)) < 1e-10


class TestPositiveNegativeSplit:
    def test_reconstruction_identity(self, rng):
        g = random_hermitian(rng, 5)
        g = g - np.trace(g).real / 5 * np.eye(5)
        rho1, rho0, weight = positive_negative_split(g)
        for rho in (rho1, rho0):
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-12
        assert np.linalg.norm(weight * (rho1 - rho0) - g) < 1e-10

    def test_diagonal_example(self):
        # diag(1/3, -2/3, 1/3): positive part spreads over two levels
        g = np.diag([1 / 3, -2 / 3, 1 / 3])
        rho1, rho0, weight = positive_negative_split(g)
        assert weight == pytest.approx(2 / 3)
        assert np.allclose(rho1, np.diag([0.5, 0.0, 0.5]), atol=1e-12)
        assert np.allclose(rho0, np.diag([0.0, 1.0, 0.0]), atol=1e-12)

    def test_rejects_a_one_sided_spectrum(self):
        # trace 1e-10 passes as traceless at this scale, yet nothing is negative
        with pytest.raises(ValidationError, match="lacks a two-sided spectrum"):
            positive_negative_split(np.diag([1e-10, 0.0, 0.0]))

    def test_rejects_traceful(self):
        with pytest.raises(ValidationError):
            positive_negative_split(np.eye(2))

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            positive_negative_split(np.zeros((2, 2)))


class TestSpinMatrices:
    def test_spin_half_is_half_pauli(self):
        sx, sy, sz = spin_matrices(1)
        assert np.allclose(sx, PAULI_X / 2)
        assert np.allclose(sy, PAULI_Y / 2)
        assert np.allclose(sz, PAULI_Z / 2)

    @pytest.mark.parametrize("two_s", [1, 2, 3, 4])
    def test_su2_commutators(self, two_s):
        sx, sy, sz = spin_matrices(two_s)
        for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
            assert np.linalg.norm(a @ b - b @ a - 1j * c) < 1e-12

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_casimir(self, two_s):
        sx, sy, sz = spin_matrices(two_s)
        s = two_s / 2
        casimir = sx @ sx + sy @ sy + sz @ sz
        assert np.linalg.norm(casimir - s * (s + 1) * np.eye(two_s + 1)) < 1e-12

    def test_spin_one_descending_m_order(self):
        _, _, sz = spin_matrices(2)
        assert np.allclose(np.diag(sz), [1.0, 0.0, -1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            spin_matrices(0)


class TestEighFixed:
    def test_ascending_and_deterministic(self, rng):
        m = random_hermitian(rng, 5)
        vals1, vecs1 = eigh_fixed(m)
        vals2, vecs2 = eigh_fixed(m.copy())
        assert np.all(np.diff(vals1) >= -1e-12)
        assert np.array_equal(vals1, vals2)
        assert np.array_equal(vecs1, vecs2)

    def test_phase_convention(self, rng):
        m = random_hermitian(rng, 4)
        _, vecs = eigh_fixed(m)
        for j in range(4):
            col = vecs[:, j]
            lead = col[np.flatnonzero(np.abs(col) > 1e-9)[0]]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_reconstructs_input(self, rng):
        m = random_hermitian(rng, 6)
        vals, vecs = eigh_fixed(m)
        assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.conj().T - m) < 1e-12


def test_projection_onto_a_span_not_closed_under_the_adjoint_is_refused():
    # span_C{|0><1|} holds no Hermitian part of sigma_x but its own projection
    span = orthonormal_span([np.array([[0.0, 1.0], [0.0, 0.0]])], ScalarField.COMPLEX)
    with pytest.raises(ValidationError, match="not closed under the adjoint"):
        project_decompose(PAULI_X, span)


SZSQ1 = SZ1 @ SZ1
_DEPHASING = jump_operators(HermitianOperator(SZ1), [SZ1])

# Each entry point of a Hermitian matrix input, called with ``plant`` applied
# to that input, and whether it takes a ``tol``.
ONE_RULE = {
    "HermitianOperator": (lambda plant, tol: HermitianOperator(plant(SZ1)), False),
    "linear_span_condition": (
        lambda plant, tol: linear_span_condition(SZSQ1, [plant(SZ1)], tol=tol), True),
    "quadratic_span_condition": (
        lambda plant, tol: quadratic_span_condition(SZSQ1, [plant(SZ1)], tol=tol), True),
    "SdpProblem.from_couplings": (
        lambda plant, tol: SdpProblem.from_couplings(SZSQ1, [plant(SZ1)]), False),
    "jump_operators": (
        lambda plant, tol: jump_operators(HermitianOperator(SZSQ1), [plant(SZ1)], tol=tol), True),
    "no_go_search": (lambda plant, tol: no_go_search([plant(SZ1)], 3, restarts=1), False),
    "code_search": (lambda plant, tol: code_search(SZSQ1, [plant(SZ1)], 3, restarts=1), False),
    "purify_pair": (
        lambda plant, tol: purify_pair(plant(np.diag([1.0, 0.0, 0.0])),
                                       np.diag([0.0, 0.0, 1.0]), tol=tol), True),
    "BathSpectrum.rates": (
        lambda plant, tol: BathSpectrum(
            Regime.FULL_THERMAL, lambda nu: plant(np.eye(3)), 3).rates([1.0], tol=tol), True),
    "evolve": (
        lambda plant, tol: evolve(plant(np.diag([0.5, 0.0, 0.5])), HermitianOperator(SZ1),
                                  _DEPHASING, BathSpectrum.flat(1.0, 1),
                                  SimConfig(t_final=0.01, dt=0.001), tol=tol), True),
}


def _skew(m):
    # an entrywise anti-Hermitian deviation of 1e-11, between the 1e-12 rule
    # and the 1e-9 thresholds some entry points used to apply
    out = np.array(m, dtype=complex)
    out[0, 1] += 1e-11
    return out


def _nan(m):
    out = np.array(m, dtype=complex)
    out[0, 1] = np.nan
    return out


@pytest.mark.parametrize("name", ONE_RULE)
def test_every_matrix_input_follows_one_hermiticity_rule(name):
    call, takes_tol = ONE_RULE[name]
    with pytest.raises(ValidationError, match=r"is not Hermitian \(deviation 1\.000e-11\)"):
        call(_skew, TOL)
    if takes_tol:
        call(_skew, Tolerances(hermiticity=1e-6))
    with pytest.raises(ValidationError, match="has non-finite entries"):
        call(_nan, TOL)


def _huge(m):
    # one decade above the entry bound
    out = np.array(m, dtype=complex)
    out[0, 0] = 1e65
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ONE_RULE)
def test_every_matrix_input_refuses_entries_above_the_bound(name):
    call, _ = ONE_RULE[name]
    with pytest.raises(ValidationError, match=r"has an entry above 1e\+64 in magnitude"):
        call(_huge, TOL)
