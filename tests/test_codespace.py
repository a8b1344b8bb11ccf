"""Code spaces: purification, condition checks, control fields, searches.

Frozen oracle values (hand derivation, verified by direct arithmetic):
- Three-qubit repetition pair |000>, |111> against single bit flips: every
  code block is proportional to identity (deviation 0); a single Z error
  gives the block diag(1, -1), deviation sqrt(2).
- Spin-1 dressed pair |0>, (|+1>+|-1>)/sqrt(2) against {S_x, S_y, S_z}:
  dephasing 0, relaxation 1 (from S_y, whose cross element survives),
  signal <S_z^2> difference = 1, quadratic-block deviation sqrt(2).
- Protected-pair penalty floors: a lone S_z admits the zero-penalty pair
  above; the full triple is pinned at 2; lifting the triple with a qubit
  ancilla reopens a zero-penalty pair.
- Stripping S_z^2 of the complex span of {I, S_x, S_x^2} leaves a rank-2/
  rank-1 split whose disjoint-support purification is exactly correctable
  with signal 1.
"""


import numpy as np
import pytest

from dressedmet import codespace
from dressedmet.codespace import (
    MAX_RESTARTS,
    CodeSpace,
    check_conditions,
    code_from_optimizer,
    code_search,
    effective_generator,
    no_go_search,
    partial_trace,
    purify_pair,
    stiefel_minimize,
    two_level_dressing,
    _lift_to_code,
    _pair_penalty_terms,
    _quadratic_search_terms,
)
from dressedmet.errors import NumericalError, ValidationError
from dressedmet.lindblad import jump_operators
from dressedmet.nv import nv_bare_code
from dressedmet.operators import (
    MAX_ENTRY,
    HermitianOperator,
    StateVector,
    lift,
    spin_matrices,
)
from dressedmet.tolerances import KL

from _witnesses import correctable_code, qfi_analytic
from conftest import random_density, random_hermitian

SX, SY, SZ = spin_matrices(2)
SZSQ = SZ @ SZ
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def kron(*ops):
    out = ops[0]
    for o in ops[1:]:
        out = np.kron(out, o)
    return out


def repetition_code():
    zero = np.zeros(8, dtype=complex)
    zero[0] = 1.0
    one = np.zeros(8, dtype=complex)
    one[7] = 1.0
    return CodeSpace(StateVector(zero), StateVector(one), 8, 1)


def dressed_pair_code():
    psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    psi1 = np.array([1.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return CodeSpace(StateVector(psi0), StateVector(psi1), 3, 1)


class TestCodeSpace:
    def test_rejects_non_orthogonal_pair(self):
        v = np.array([1.0, 0.0], dtype=complex)
        w = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        with pytest.raises(ValidationError):
            CodeSpace(StateVector(v), StateVector(w), 2, 1)

    def test_rejects_dimension_mismatch(self):
        v = np.array([1.0, 0.0], dtype=complex)
        w = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(ValidationError):
            CodeSpace(StateVector(v), StateVector(w), 2, 2)

    def test_projector_and_frame(self):
        code = dressed_pair_code()
        p = code.projector
        np.testing.assert_allclose(p @ p, p, atol=1e-14)
        assert np.trace(p).real == pytest.approx(2.0)
        assert code.frame.shape == (3, 2)

    def test_json_round_trip(self):
        code = dressed_pair_code()
        rebuilt = CodeSpace.from_json_dict(code.to_json_dict())
        np.testing.assert_allclose(
            rebuilt.psi0.amplitudes, code.psi0.amplitudes, atol=1e-15
        )
        np.testing.assert_allclose(
            rebuilt.psi1.amplitudes, code.psi1.amplitudes, atol=1e-15
        )
        assert (rebuilt.sys_dim, rebuilt.anc_dim) == (3, 1)


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_s = random_density(rng, 3)
        rho_a = random_density(rng, 2)
        np.testing.assert_allclose(
            partial_trace(np.kron(rho_s, rho_a), 3, 2), rho_s, atol=1e-12
        )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            partial_trace(np.eye(5) / 5, 2, 2)


class TestPurifyPair:
    def test_reproduces_marginals(self, rng):
        rho0 = random_density(rng, 3, rank=1)
        rho1 = random_density(rng, 3, rank=2)
        code = purify_pair(rho0, rho1)
        assert code.anc_dim == 4  # twice the larger rank
        for rho, psi in ((rho0, code.psi0), (rho1, code.psi1)):
            reduced = partial_trace(
                np.outer(psi.amplitudes, psi.amplitudes.conj()), 3, code.anc_dim
            )
            np.testing.assert_allclose(reduced, rho, atol=1e-10)

    def test_disjoint_ancilla_supports_kill_cross_elements(self, rng):
        rho0 = random_density(rng, 3, rank=2)
        rho1 = random_density(rng, 3, rank=2)
        code = purify_pair(rho0, rho1)
        for _ in range(10):
            a = lift(random_hermitian(rng, 3), code.anc_dim)
            cross = code.psi0.amplitudes.conj() @ a @ code.psi1.amplitudes
            assert abs(cross) < 1e-12

    def test_rejects_bad_inputs(self):
        good = np.eye(2) / 2
        with pytest.raises(ValidationError):
            purify_pair(np.array([[0.5, 0.5], [0.0, 0.5]]), good)
        with pytest.raises(ValidationError):
            purify_pair(np.eye(2), good)
        with pytest.raises(ValidationError):
            purify_pair(np.diag([1.5, -0.5]).astype(complex), good)


class TestKnillLaflamme:
    def test_repetition_code_corrects_bit_flips(self):
        code = repetition_code()
        xs = [kron(PAULI_X, np.eye(2), np.eye(2)),
              kron(np.eye(2), PAULI_X, np.eye(2)),
              kron(np.eye(2), np.eye(2), PAULI_X)]
        dev = check_conditions(code, np.zeros((8, 8)), xs).kl_violation
        assert dev <= KL
        assert dev == pytest.approx(0.0, abs=1e-14)

    def test_repetition_code_fails_phase_flip(self):
        code = repetition_code()
        dev = check_conditions(code, np.zeros((8, 8)),
                               [kron(PAULI_Z, np.eye(2), np.eye(2))]).kl_violation
        assert not dev <= KL
        assert dev == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestCheckConditions:
    def test_dressed_pair_against_triple(self):
        # frozen oracle: dephasing 0, relaxation 1, kl sqrt(2), signal 1
        rep = check_conditions(dressed_pair_code(), SZSQ, [SX, SY, SZ])
        assert rep.dephasing_violation == pytest.approx(0.0, abs=1e-12)
        assert rep.relaxation_violation == pytest.approx(1.0, abs=1e-12)
        assert rep.kl_violation == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert rep.signal == pytest.approx(1.0, abs=1e-12)
        assert rep.excitation_violation is None

    def test_excitation_requires_context(self):
        code = dressed_pair_code()
        outside = StateVector(
            np.array([1.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
        )
        rep = check_conditions(code, SZSQ, [SZ], eigencontext=[outside])
        # S_z maps psi1 to the orthogonal combination, a real escape channel
        assert rep.excitation_violation == pytest.approx(1.0, abs=1e-12)

    def test_lifts_system_operators(self):
        code = purify_pair(np.diag([0, 1.0, 0]).astype(complex),
                           np.diag([0.5, 0, 0.5]).astype(complex))
        rep = check_conditions(code, SZSQ, [SX, SY, SZ])
        # disjoint ancilla supports remove the relaxation channel entirely
        assert rep.relaxation_violation < 1e-12
        assert rep.signal == pytest.approx(1.0, abs=1e-10)

    def test_report_json_fields(self):
        rep = check_conditions(dressed_pair_code(), SZSQ, [SZ])
        obj = rep._asdict()
        assert list(obj) == [
            "dephasing_violation",
            "relaxation_violation",
            "excitation_violation",
            "kl_violation",
            "signal",
        ]


class TestEffectiveGenerator:
    def test_dressed_pair_values(self):
        eff = effective_generator(dressed_pair_code(), SZSQ)
        assert eff.g00 == pytest.approx(0.0, abs=1e-14)
        assert eff.g11 == pytest.approx(1.0, abs=1e-14)
        assert eff.delta == pytest.approx(1.0, abs=1e-14)
        assert eff.var == pytest.approx(0.25, abs=1e-14)


class TestEntryBound:
    # NaN couplings used to read nan violations with no warning, couplings at
    # 1e200 overflowed in the code blocks, and a NaN generator read delta = nan
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coupling, message", [
        (np.full((3, 3), np.nan), "^a coupling has non-finite entries$"),
        (1e200 * SZ, "^a coupling has an entry above 1e\\+64 in magnitude$"),
    ], ids=["nan", "huge"])
    def test_check_conditions_refuses_unbounded_couplings(self, coupling, message):
        with pytest.raises(ValidationError, match=message):
            check_conditions(nv_bare_code(), np.zeros((3, 3)), [coupling])

    @pytest.mark.filterwarnings("error")
    def test_a_non_finite_generator_is_refused(self):
        nan = np.full((3, 3), np.nan)
        for call in (lambda: effective_generator(nv_bare_code(), nan),
                     lambda: check_conditions(nv_bare_code(), nan, [SZ]),
                     lambda: qfi_analytic(nv_bare_code(), nan, 1.0)):
            with pytest.raises(ValidationError, match="^the generator has non-finite entries$"):
                call()

    @pytest.mark.filterwarnings("error")
    def test_bounded_and_non_hermitian_couplings_are_accepted(self):
        raising = SX + 1j * SY
        for coupling in (raising, MAX_ENTRY * SZ):
            rep = check_conditions(nv_bare_code(), MAX_ENTRY * SZSQ, [coupling])
            assert np.isfinite([rep.dephasing_violation, rep.relaxation_violation,
                                rep.kl_violation, rep.signal]).all()


def control_hamiltonian(
    code: CodeSpace,
    h_free: HermitianOperator,
    lambda0: float = 0.0,
    lambda1: float = 1.0,
    complement: float = 10.0,
) -> HermitianOperator:
    """Static control making the code states exact, separated eigenstates.

    Cancels the free Hamiltonian and re-pins the spectrum: psi0 at lambda0,
    psi1 at lambda1, everything orthogonal at ``complement``.  The three
    energies must be pairwise distinct or eigenspaces would merge.
    """
    levels = (lambda0, lambda1, complement)
    if len(set(levels)) != 3:
        raise ValidationError(f"energy levels must be pairwise distinct: {levels}")
    hf = _lift_to_code(h_free, code)
    p0 = np.outer(code.psi0.amplitudes, code.psi0.amplitudes.conj())
    p1 = np.outer(code.psi1.amplitudes, code.psi1.amplitudes.conj())
    rest = np.eye(code.total_dim) - p0 - p1
    hc = -hf + lambda0 * p0 + lambda1 * p1 + complement * rest
    total = hf + hc
    for lam, psi in ((lambda0, code.psi0), (lambda1, code.psi1)):
        resid = np.linalg.norm(total @ psi.amplitudes - lam * psi.amplitudes)
        if resid > 1e-10 * max(1.0, abs(lam), abs(complement)):
            raise NumericalError(f"control residual {resid:.2e} too large")
    return HermitianOperator(hc)


class TestControlHamiltonian:
    def test_pins_full_spectrum(self, rng):
        code = dressed_pair_code()
        h_free = HermitianOperator(random_hermitian(rng, 3))
        hc = control_hamiltonian(code, h_free, lambda0=0.0, lambda1=1.0,
                                 complement=10.0)
        total = h_free.entries + hc.entries
        np.testing.assert_allclose(
            np.linalg.eigvalsh(total), [0.0, 1.0, 10.0], atol=1e-10
        )
        np.testing.assert_allclose(
            total @ code.psi1.amplitudes, code.psi1.amplitudes, atol=1e-10
        )

    def test_signed_levels_with_zero_complement(self, rng):
        code = dressed_pair_code()
        h_free = HermitianOperator(random_hermitian(rng, 3))
        hc = control_hamiltonian(code, h_free, lambda0=-1.0, lambda1=1.0,
                                 complement=0.0)
        total = h_free.entries + hc.entries
        np.testing.assert_allclose(
            np.linalg.eigvalsh(total), [-1.0, 0.0, 1.0], atol=1e-10
        )

    def test_rejects_degenerate_levels(self):
        code = dressed_pair_code()
        h_free = HermitianOperator(np.zeros((3, 3), dtype=complex))
        with pytest.raises(ValidationError):
            control_hamiltonian(code, h_free, lambda0=0.0, lambda1=1.0,
                                complement=0.0)


class TestTwoLevelDressing:
    def test_three_frequency_structure(self):
        code = dressed_pair_code()
        hc = two_level_dressing(code, nu0=5.0)
        lset = jump_operators(hc, [SX, SY, SZ])
        assert lset.frequencies == (-5.0, 0.0, 5.0)
        # control acts only on the complement
        np.testing.assert_allclose(
            hc.entries @ code.frame, np.zeros((3, 2)), atol=1e-12
        )

    def test_zero_blocks_commute_with_projector(self):
        code = dressed_pair_code()
        lset = jump_operators(two_level_dressing(code, nu0=2.0), [SX, SY, SZ])
        p = code.projector
        for block in lset.blocks[lset.frequencies.index(0.0)]:
            np.testing.assert_allclose(block @ p, p @ block, atol=1e-12)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValidationError):
            two_level_dressing(dressed_pair_code(), nu0=0.0)


class TestSearchGradients:
    def directional_check(self, fn, v, rng):
        f0, grad = fn(v)
        u = rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape)
        t = 1e-7
        fp = fn(v + t * u)[0]
        fm = fn(v - t * u)[0]
        numeric = (fp - fm) / (2 * t)
        analytic = 2.0 * float(np.real(np.sum(u.conj() * grad)))
        assert numeric == pytest.approx(analytic, rel=1e-5, abs=1e-8)

    def test_pair_penalty_gradient(self, rng):
        fn = _pair_penalty_terms([SX, SY, SZ])
        for _ in range(5):
            v = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            self.directional_check(fn, v, rng)

    def test_quadratic_search_gradient(self, rng):
        fn = _quadratic_search_terms(SZSQ, [SX, SZ], 0.3)
        for _ in range(5):
            v = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            self.directional_check(fn, v, rng)


class TestStiefelMinimize:
    def test_quadratic_model_reaches_bottom_eigenpair(self, rng):
        a = random_hermitian(rng, 5)
        vals = np.linalg.eigvalsh(a)

        def fn(v):
            av = a @ v
            return float(np.real(np.sum(v.conj() * av))), av

        v0 = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        f, v = stiefel_minimize(fn, v0)[:2]
        assert f == pytest.approx(vals[0] + vals[1], abs=1e-8)
        np.testing.assert_allclose(
            v.conj().T @ v, np.eye(2), atol=1e-12
        )


class TestNoGoSearch:
    def test_single_coupling_admits_protected_pair(self):
        assert no_go_search([SZ], 3, restarts=10, seed=3) < 1e-10

    def test_triple_floor_pinned_at_two(self):
        floor = no_go_search([SX, SY, SZ], 3, restarts=20, seed=11)
        assert floor == pytest.approx(2.0, abs=1e-9)

    def test_ancilla_lift_reopens_protection(self):
        lifted = [lift(a, 2) for a in (SX, SY, SZ)]
        assert no_go_search(lifted, 6, restarts=10, seed=3) < 1e-10

    def test_the_restart_bound_is_inclusive(self, monkeypatch):
        # a count at the bound reaches the streams; one more is refused before them
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(codespace, "stream", reached)
        with pytest.raises(Reached):
            no_go_search([SZ], 3, restarts=MAX_RESTARTS)
        with pytest.raises(ValidationError, match=f"restarts must be from 1 to {MAX_RESTARTS}"):
            no_go_search([SZ], 3, restarts=MAX_RESTARTS + 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            no_go_search([SZ], 3, restarts=0)
        with pytest.raises(ValidationError):
            no_go_search([PAULI_Z], 3, restarts=1)

    # both used to return inf, the strongest no-go verdict
    @pytest.mark.parametrize("couplings", [
        [np.where(np.eye(3, k=1, dtype=bool), np.nan, SZ), SX],
        [np.diag([np.inf] * 3) + SZ],
    ], ids=["nan", "inf"])
    def test_rejects_non_finite_couplings(self, couplings):
        with pytest.raises(ValidationError, match="finite"):
            no_go_search(couplings, 3, restarts=3)


class TestCodeSearch:
    def test_free_generator_maximizes_signal(self):
        res = code_search(SZSQ, [], 3, restarts=6, seed=2)
        assert res.kl_penalty == pytest.approx(0.0, abs=1e-12)
        assert abs(res.signal) == pytest.approx(1.0, abs=1e-8)

    def test_quadratic_obstruction_leaves_residual(self):
        # the S_z^2 term of the quadratic error set cannot be silenced while
        # keeping signal; the seeded search lands on the dressed pair
        res = code_search(SZSQ, [SZ], 3, restarts=8, seed=5)
        assert res.kl_penalty == pytest.approx(0.5, abs=1e-6)
        assert abs(res.signal) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError, match="restarts"):
            code_search(SZSQ, [SZ], 3, restarts=0)
        with pytest.raises(ValidationError, match="dimension"):
            code_search(SZSQ, [SZ], 4, restarts=1)
        with pytest.raises(ValidationError, match="dimension"):
            code_search(SZSQ, [PAULI_Z], 3, restarts=1)

    # both used to return a code with a nan kl_penalty
    @pytest.mark.parametrize("g, couplings", [
        (SZSQ, [np.where(np.eye(3, k=1, dtype=bool), np.nan, SZ)]),
        (SZSQ + np.diag([0.0, 0.0, np.inf]), [SZ]),
    ], ids=["nan coupling", "inf generator"])
    def test_rejects_non_finite_operators(self, g, couplings):
        with pytest.raises(ValidationError, match="finite"):
            code_search(g, couplings, 3, restarts=2)


class TestCorrectableCode:
    def test_escaping_generator_yields_correctable_code(self):
        code = correctable_code(SZSQ, [SX])
        assert code is not None
        assert (code.sys_dim, code.anc_dim) == (3, 2)
        rep = check_conditions(code, SZSQ, [SX])
        assert rep.kl_violation < 1e-9
        assert rep.signal == pytest.approx(1.0, abs=1e-9)

    def test_in_span_generator_returns_none(self):
        assert correctable_code(SX @ SX, [SX]) is None

    def test_random_instances_pass_their_own_check(self, rng):
        found = 0
        for _ in range(10):
            g = random_hermitian(rng, 3)
            couplings = [random_hermitian(rng, 3)]
            code = correctable_code(g, couplings)
            if code is None:
                continue
            found += 1
            rep = check_conditions(code, g, couplings)
            assert rep.kl_violation < 1e-9
            assert abs(rep.signal) > 1e-6
        assert found > 0


class TestCodeFromOptimizer:
    def test_traceless_split_round_trip(self):
        g_tilde = np.diag([0.5, 0.0, -0.5]).astype(complex)
        code = code_from_optimizer(g_tilde)
        assert code.sys_dim == 3
        assert code.anc_dim == 2
        # the pair sees the generator difference encoded by the split
        eff = effective_generator(code, np.diag([1.0, 0.0, -1.0]).astype(complex))
        assert abs(eff.delta) == pytest.approx(2.0, abs=1e-10)
