"""Signal optimization: constructive bound, barrier dual, primal read off its path.

Frozen oracle values (direct arithmetic on eigenvalues):
- Spin-1 instance G = S_z^2, couplings {S_x, S_y, S_z}: orthogonal part has
  eigenvalues (1/3, 1/3, -2/3), so constructive = 2*(2/3)/(4/3) = 1, and the
  shift c_I = 1/2 gives || S_z^2 - I/2 ||_op = 1/2, so dual = 1.  The three
  values coincide: the sandwich is tight at exactly 1.
- Lone qubit G = sigma_z, no couplings: all three values are 2.
- Collective two-qubit G = diag(3,1,-1,-3), couplings {}: constructive
  = 2*20/8 = 5 but the optimum is 2*||G||_op = 6 (top/bottom eigenstate pair
  beats the constructive split, which spreads weight over all four levels).
"""

import time

import numpy as np
import pytest

from dressedmet.codespace import code_from_optimizer
from dressedmet.errors import ValidationError
from dressedmet.operators import spin_matrices
from dressedmet.rand import stream
from dressedmet.sdp import (
    SdpProblem,
    _certifies,
    constructive_bound,
    solve_dual,
    solve_primal,
)

from conftest import random_hermitian

SX, SY, SZ = spin_matrices(2)
SZSQ = SZ @ SZ
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
COLLECTIVE = np.diag([3.0, 1.0, -1.0, -3.0]).astype(complex)


def random_instance(seed):
    rng = stream(seed)
    dim = int(rng.integers(2, 7))
    n_c = int(rng.integers(0, 5))
    g = random_hermitian(rng, dim)
    couplings = [random_hermitian(rng, dim) for _ in range(n_c)]
    return g, couplings


class TestConstructiveBound:
    def test_spin1_instance(self):
        cb = constructive_bound(SZSQ, [SX, SY, SZ])
        assert cb.value == pytest.approx(1.0, abs=1e-12)
        assert cb.weight == pytest.approx(2 / 3)
        # feasibility of the constructed pair: a valid optimizer candidate
        g_tilde = cb.rho1 - cb.rho0
        assert abs(np.trace(g_tilde)) < 1e-12
        for a in (SX, SY, SZ):
            assert abs(np.trace(a @ g_tilde)) < 1e-12

    def test_noiseless_qubit(self):
        cb = constructive_bound(PAULI_Z, [])
        assert cb.value == pytest.approx(2.0, abs=1e-12)

    def test_collective_diagonal(self):
        cb = constructive_bound(COLLECTIVE, [np.eye(4)])
        assert cb.value == pytest.approx(5.0, abs=1e-12)

    def test_in_span_returns_zero(self):
        cb = constructive_bound(SZ, [SX, SY, SZ])
        assert cb.value == 0.0
        assert cb.rho0 is None and cb.rho1 is None

    def test_value_is_feasible_signal(self, rng):
        g = random_hermitian(rng, 4)
        couplings = [random_hermitian(rng, 4) for _ in range(2)]
        cb = constructive_bound(g, couplings)
        if cb.value > 0:
            signal = np.trace(g @ (cb.rho1 - cb.rho0)).real
            assert signal == pytest.approx(cb.value, rel=1e-10)


class TestSolveDual:
    def test_spin1_witness(self):
        problem = SdpProblem.from_couplings(SZSQ, [SX, SY, SZ])
        dual = solve_dual(problem)
        assert dual.value == pytest.approx(1.0, abs=1e-7)
        assert dual.certified
        assert dual.coeffs[0] == pytest.approx(0.5, abs=1e-6)
        assert np.max(np.abs(dual.coeffs[1:])) < 1e-6

    def test_traceless_identity_only(self):
        problem = SdpProblem.from_couplings(PAULI_Z, [])
        dual = solve_dual(problem)
        assert dual.value == pytest.approx(2.0, abs=1e-8)
        assert abs(dual.coeffs[0]) < 1e-8

    def test_generator_in_span(self):
        problem = SdpProblem.from_couplings(PAULI_Z, [PAULI_Z])
        dual = solve_dual(problem)
        assert dual.value == pytest.approx(0.0, abs=1e-8)
        assert dual.iterations == 0

    def test_target_off_the_value_is_not_certified(self):
        # the spin-1 dual value is 1: a target well below or above it is no
        # evidence of optimality
        problem = SdpProblem.from_couplings(SZSQ, [SX, SY, SZ])
        value = solve_dual(problem).value
        assert _certifies(value, 1.0, 1.0)
        assert not _certifies(value, 0.5, 1.0)
        assert not _certifies(value, 1.5, 1.0)

    def test_certification_window_is_relative(self):
        # at ||G|| = 1e-3 a gap of 5e-9 is a relative 5e-6, outside the
        # 1e-6 window, however small it is in absolute terms
        scale = 1e-3
        problem = SdpProblem.from_couplings(scale * SZSQ, [SX, SY, SZ])
        value = solve_dual(problem).value
        assert value == pytest.approx(scale, rel=1e-9)
        assert _certifies(value, value - 5e-10, scale)
        assert not _certifies(value, value - 5e-9, scale)
        assert not _certifies(value, value + 5e-9, scale)
        assert solve_primal(problem).certified

    def test_a_negative_lower_value_counts_as_zero(self):
        # a primal tr(G Gt) below 0 at rounding is the value 0 of Gt = 0: an upper
        # value within the window of 0 certifies, though not within it of the raw value
        scale = 2.0
        upper, lower = 1.5e-6, -1.5e-6
        assert abs(upper - lower) > 1e-6 * scale >= abs(upper - 0.0)
        assert _certifies(upper, lower, scale)
        assert not _certifies(upper + 1e-6, lower, scale)

    def test_collective_optimum_beats_constructive(self):
        problem = SdpProblem.from_couplings(COLLECTIVE, [])
        dual = solve_dual(problem)
        assert dual.value == pytest.approx(6.0, abs=1e-7)

    def test_upper_bounds_every_shift(self, rng):
        g = random_hermitian(rng, 4)
        cons = [random_hermitian(rng, 4) for _ in range(2)]
        problem = SdpProblem.from_couplings(g, cons)
        dual = solve_dual(problem)
        for _ in range(10):
            c = rng.standard_normal(3)
            shifted = problem.g - sum(
                ck * mk for ck, mk in zip(c, problem.constraints)
            )
            assert dual.value <= 2 * np.abs(np.linalg.eigvalsh(shifted)).max() + 1e-7


class TestSolvePrimal:
    def test_spin1_instance(self):
        start = time.monotonic()
        problem = SdpProblem.from_couplings(SZSQ, [SX, SY, SZ])
        sol = solve_primal(problem)
        elapsed = time.monotonic() - start
        assert sol.primal_value == pytest.approx(1.0, abs=1e-6)
        assert sol.gap < 1e-6
        assert sol.certified
        assert elapsed < 1.0

    def test_optimizer_feasibility(self):
        problem = SdpProblem.from_couplings(SZSQ, [SX, SY, SZ])
        sol = solve_primal(problem)
        gt = sol.g_tilde.entries
        x = sol.x_certificate.entries
        assert abs(np.trace(gt)) < 1e-8
        for a in (SX, SY, SZ):
            assert abs(np.trace(a @ gt)) < 1e-8
        assert np.linalg.eigvalsh(x - gt).min() > -1e-8
        assert np.linalg.eigvalsh(x + gt).min() > -1e-8
        assert np.trace(x).real < 2 + 1e-8

    def test_in_span_gives_zero(self):
        problem = SdpProblem.from_couplings(SZ, [SX, SY, SZ])
        sol = solve_primal(problem)
        assert sol.primal_value < 1e-7

    def test_degenerate_single_coupling_instance(self):
        # optimum exactly at the constructive bound with a rank-deficient
        # optimizer; the read-off must still certify, with X = |Gt| on the
        # dressed pair's support
        problem = SdpProblem.from_couplings(SZSQ, [SZ])
        sol = solve_primal(problem)
        assert sol.primal_value == pytest.approx(1.0, abs=1e-6)
        assert sol.gap < 1e-6
        assert sol.certified
        assert np.allclose(np.diag(sol.x_certificate.entries).real,
                           [0.5, 1.0, 0.5], atol=1e-5)

    def test_collective_diagonal_value(self):
        problem = SdpProblem.from_couplings(COLLECTIVE, [])
        sol = solve_primal(problem)
        assert sol.primal_value == pytest.approx(6.0, abs=1e-6)

    def test_scale_equivariance(self):
        problem = SdpProblem.from_couplings(SZSQ, [SX, SY, SZ])
        base = solve_primal(problem)
        scaled = solve_primal(SdpProblem.from_couplings(7.5 * SZSQ, [SX, SY, SZ]))
        assert scaled.primal_value == pytest.approx(7.5 * base.primal_value, rel=1e-6)
        assert scaled.dual_value == pytest.approx(7.5 * base.dual_value, rel=1e-6)
        # the optimizer itself is scale-free
        assert np.linalg.norm(scaled.g_tilde.entries - base.g_tilde.entries) < 1e-4

    def test_small_generator_is_not_in_the_span(self):
        # the in-span shortcut is relative to the scale of g, so a generator
        # at 1e-9 keeps the optimizer and the code that unit scale gives
        base = solve_primal(SdpProblem.from_couplings(SZSQ, [SZ]))
        small = solve_primal(SdpProblem.from_couplings(1e-9 * SZSQ, [SZ]))
        assert small.primal_value == pytest.approx(1e-9 * base.primal_value, rel=1e-9)
        assert small.dual_value == pytest.approx(1e-9 * base.dual_value, rel=1e-9)
        assert np.linalg.norm(small.g_tilde.entries - base.g_tilde.entries) < 1e-9
        code_from_optimizer(small.g_tilde)

    def test_extra_constraint_never_helps(self, rng):
        g = random_hermitian(rng, 4)
        cons = [random_hermitian(rng, 4)]
        extra = random_hermitian(rng, 4)
        small = solve_primal(SdpProblem.from_couplings(g, cons))
        big = solve_primal(SdpProblem.from_couplings(g, cons + [extra]))
        assert big.primal_value <= small.primal_value + 1e-7

    @pytest.mark.parametrize("seed", range(3))
    def test_dependent_coupling_before_an_independent_one(self, seed):
        # a repeated coupling ahead of an independent one must neither drop
        # the later constraint nor make the barrier singular
        rng = stream(5, seed)
        g, a, b = (random_hermitian(rng, 3) for _ in range(3))
        reference = solve_primal(SdpProblem.from_couplings(g, [a, b]))
        for couplings in ([a, a, b], [a, 2 * a, b]):
            sol = solve_primal(SdpProblem.from_couplings(g, couplings))
            for c in couplings:
                assert abs(np.trace(c @ sol.g_tilde.entries)) < 1e-8
            assert sol.primal_value == pytest.approx(reference.primal_value, abs=1e-9)
            assert sol.certified

    def test_thirty_instance_sandwich(self):
        start = time.monotonic()
        worst_gap = 0.0
        for seed in range(30):
            g, couplings = random_instance(1000 + seed)
            cb = constructive_bound(g, couplings)
            sol = solve_primal(SdpProblem.from_couplings(g, couplings))
            assert cb.value <= sol.primal_value + 1e-8
            assert sol.primal_value <= sol.dual_value + 1e-8
            assert sol.gap < 1e-6
            assert sol.certified
            worst_gap = max(worst_gap, sol.gap)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0

    def test_requires_identity_first(self):
        with pytest.raises(ValidationError):
            SdpProblem(SZ, (SX,))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            SdpProblem.from_couplings(PAULI_Z, [SX])


class TestProblemValidation:
    # both solvers take an SdpProblem, so neither sees a g it rejects; a
    # non-Hermitian g once got the dual value 4e-16 certified
    @pytest.mark.parametrize("g, match", [
        (np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),
         "generator is not Hermitian"),
        (np.diag([np.nan, 0.0, -1.0]), "generator has non-finite entries"),
    ])
    def test_generator_is_validated(self, g, match):
        with pytest.raises(ValidationError, match=match):
            SdpProblem.from_couplings(g, [SZ])

    def test_constraints_must_be_finite(self):
        with pytest.raises(ValidationError, match="a constraint has non-finite entries"):
            SdpProblem.from_couplings(SZSQ, [np.diag([np.inf, 0.0, 0.0])])
