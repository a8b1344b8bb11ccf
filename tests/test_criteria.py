"""Span-escape criteria: the three protection tests and their edge behavior.

Frozen oracle values:
- For G = S_z^2 with the spin-1 component triple, the span-orthogonal part is
  G - (2/3)I with Frobenius norm sqrt(2/3) = 0.816496580927726 (eigenvalues
  1/3, -2/3, 1/3 by direct arithmetic).
- sigma_x sigma_z = -i sigma_y, so the quadratic span over complex scalars
  contains sigma_y while the linear real span of {sigma_x, sigma_z} does not.
"""

import numpy as np
import pytest

from dressedmet.criteria import (
    Criterion,
    condition_by_name,
    hnls_condition,
    hnls_generators,
    linear_span_condition,
    quadratic_generators,
    quadratic_span_condition,
)
from dressedmet.errors import ValidationError
from dressedmet.operators import MAX_ENTRY, HermitianOperator, spin_matrices
from dressedmet.rand import stream

from conftest import random_hermitian

SX, SY, SZ = spin_matrices(2)
SZSQ = SZ @ SZ
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)

RESIDUAL_SZSQ = 0.816496580927726


class TestLinearCondition:
    def test_spin1_instance_escapes(self):
        rep = linear_span_condition(SZSQ, [SX, SY, SZ])
        assert rep.verdict
        assert rep.residual_norm == pytest.approx(RESIDUAL_SZSQ, abs=1e-12)
        assert rep.span_dim == 4
        # orthogonal part is the traceless piece of S_z^2
        assert np.allclose(rep.g_perp, SZSQ - (2 / 3) * np.eye(3), atol=1e-12)

    def test_member_fails(self):
        rep = linear_span_condition(SZ, [SX, SY, SZ])
        assert not rep.verdict
        assert rep.residual_norm < 1e-12

    def test_no_couplings_traceless_generator(self):
        rep = linear_span_condition(PAULI_Z, [])
        assert rep.verdict
        assert rep.span_dim == 1
        assert rep.residual_norm == pytest.approx(np.sqrt(2.0))

    def test_real_span_excludes_antihermitian_combos(self):
        # sigma_y is reachable from sigma_x sigma_z only with imaginary weight
        rep = linear_span_condition(PAULI_Y, [PAULI_X, PAULI_Z])
        assert rep.verdict

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            linear_span_condition(PAULI_Z, [SX])


class TestQuadraticCondition:
    def test_products_swallow_sigma_y(self):
        rep = quadratic_span_condition(PAULI_Y, [PAULI_X, PAULI_Z])
        assert not rep.verdict
        assert rep.residual_norm < 1e-12

    def test_spin1_full_triple_swallows_szsq(self):
        rep = quadratic_span_condition(SZSQ, [SX, SY, SZ])
        assert not rep.verdict
        assert rep.span_dim == 9

    def test_single_axis_coupling_escapes(self):
        rep = quadratic_span_condition(SZSQ, [SZ])
        # span{I, S_z, S_z^2} contains S_z^2
        assert not rep.verdict
        rep_x = quadratic_span_condition(SZSQ, [SX])
        assert rep_x.verdict

    def test_generator_count(self):
        gens = quadratic_generators([SX, SY, SZ], 3)
        assert len(gens) == 1 + 3 + 9

    def test_non_hermitian_couplings_rejected(self):
        # the shift's AA and A^dag A differ, so no quadratic span is defined
        from dressedmet.codespace import correctable_code

        shift = np.diag([1.0, 1.0], k=1)
        g = np.diag([1.0, 0.0, -1.0])
        for check in (linear_span_condition, quadratic_span_condition, correctable_code):
            with pytest.raises(ValidationError, match="Hermitian"):
                check(g, [shift])

    def test_quadratic_implies_linear_failure(self, rng):
        # escaping the bigger span implies escaping the smaller one
        for k in range(20):
            r = stream(500 + k)
            dim = int(r.integers(2, 5))
            ops = [random_hermitian(r, dim) for _ in range(int(r.integers(0, 3)))]
            g = random_hermitian(r, dim)
            if quadratic_span_condition(g, ops).verdict:
                assert linear_span_condition(g, ops).verdict


class TestHnlsCondition:
    def test_generator_family(self):
        lowering = np.array([[0.0, 1.0], [0.0, 0.0]])
        gens = hnls_generators([lowering], 2)
        assert len(gens) == 1 + 1 + 1 + 1

    def test_dephasing_jump_blocks_sigma_z(self):
        rep = hnls_condition(PAULI_Z, [PAULI_Z])
        assert not rep.verdict

    def test_lowering_operator_leaves_sigma_z_reachable(self):
        lowering = np.array([[0.0, 1.0], [0.0, 0.0]])
        # L^dag L = diag(0,1) spans sigma_z together with I
        rep = hnls_condition(PAULI_Z, [lowering])
        assert not rep.verdict

    def test_sigma_x_inside_lowering_span(self):
        lowering = np.array([[0.0, 1.0], [0.0, 0.0]])
        # sigma_x = L + L^dag lies inside the span
        rep = hnls_condition(PAULI_X, [lowering])
        assert not rep.verdict

    def test_qutrit_escape(self):
        lowering = np.zeros((3, 3))
        lowering[0, 1] = 1.0
        g = np.diag([1.0, 0.0, -1.0])
        rep = hnls_condition(g, [lowering])
        assert rep.verdict

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_jump_operator_is_refused(self, bad):
        lowering = np.zeros((3, 3))
        lowering[0, 1] = 1.0
        lowering[2, 2] = bad
        with pytest.raises(ValidationError, match="^a jump operator has non-finite entries$"):
            hnls_condition(np.diag([1.0, 0.0, -1.0]), [np.eye(3), lowering])


class TestEntryBound:
    # entries of 1e100 overflowed the norms of A^dag A: the span dropped those
    # directions and read verdict True, residual 0.8165 and span_dim 2, with
    # only a RuntimeWarning to show for it
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("exponent", [0, 8, 16, 32, 48, 56, 60, 64])
    def test_quadratic_verdict_holds_at_every_scale_up_to_the_bound(self, exponent):
        rep = quadratic_span_condition(SZSQ, [10.0 ** exponent * SZ])
        assert not rep.verdict
        assert rep.residual_norm < 1e-12
        assert rep.span_dim == 3

    @pytest.mark.filterwarnings("error")
    def test_one_decade_above_the_bound_is_refused(self):
        big = 10.0 * MAX_ENTRY
        with pytest.raises(ValidationError, match="^a coupling has an entry above 1e\\+64 in magnitude$"):
            quadratic_span_condition(SZSQ, [big * SZ])
        lowering = np.zeros((3, 3))
        lowering[0, 1] = big
        with pytest.raises(ValidationError, match="^a jump operator has an entry above 1e\\+64"):
            hnls_condition(np.diag([1.0, 0.0, -1.0]), [lowering])
        with pytest.raises(ValidationError, match="^operator has an entry above 1e\\+64"):
            HermitianOperator([[1e308, 1e308], [1e308, 0.0]])


class TestDispatchAndReport:
    def test_names(self):
        for name, fn in (
            ("thm1", linear_span_condition),
            ("thm2", quadratic_span_condition),
        ):
            via_name = condition_by_name(name, SZSQ, [SX, SY, SZ])
            direct = fn(SZSQ, [SX, SY, SZ])
            assert via_name.verdict == direct.verdict
            assert via_name.residual_norm == pytest.approx(direct.residual_norm)

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            condition_by_name("thm3", SZSQ, [])

    def test_enum_values(self):
        assert Criterion.LINEAR_REAL.value == "thm1"
        assert Criterion.QUADRATIC_COMPLEX.value == "thm2"
        assert Criterion.HNLS.value == "hnls"

    def test_marginal_flag(self):
        # residual just above threshold: within a decade of the tolerance
        eps = 3e-9
        g = HermitianOperator(SZ.astype(complex) + eps * SZSQ)
        rep = linear_span_condition(g, [SZ])
        assert rep.verdict and rep.marginal

    def test_scale_invariance_of_verdict(self, rng):
        g = random_hermitian(rng, 3)
        ops = [random_hermitian(rng, 3)]
        big = linear_span_condition(1e6 * g, ops)
        small = linear_span_condition(1e-6 * g, ops)
        assert big.verdict == small.verdict

    def test_json_round_trip_fields(self):
        rep = linear_span_condition(SZSQ, [SX, SY, SZ])
        doc = rep.to_json_dict()
        assert doc["criterion"] == "thm1"
        assert set(doc) == {
            "criterion", "verdict", "residual_norm", "span_dim",
            "marginal", "tolerance", "g_perp",
        }
