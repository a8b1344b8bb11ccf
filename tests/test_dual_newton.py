"""The Newton barrier dual against the duals it replaced.

``_reference_dual.solve_dual`` is the subgradient descent as it stood before
the barrier.  Both return an upper bound ``2 ||G - sum c_k C_k||_op`` on the
primal optimum, so on every instance the barrier's value must sit no higher
than the reference's (to rounding), no lower than the primal value that
``solve_primal`` reads off the path (weak duality, to rounding), and be
reproduced by one ``eigvalsh`` at the returned coefficients.  The instances
cover d in 2..6, k in 0..4, couplings that depend linearly on earlier
constraints, and generators inside the span.

``_reference_barrier.solve_dual`` is the same barrier with ``mu`` cut 5x per
level and no rounding floor in its centering test.  The long-step path must
reach the same values and primal point, in fewer Newton steps, and end at
the path's end where the old centering test ran to ``_MAX_STEPS``.

``_reference_long_step.solve_dual`` is the long-step path before its line
search bounded the step, centered at ``1e-3 mu``.  With ``sdp._CENTERING``
set back to 1e-3, the step bound may only skip trials that the old line
search rejected, so the two must agree bitwise.
"""

import time

import numpy as np
import pytest

from dressedmet import sdp
from dressedmet.operators import ScalarField, orthonormal_span
from dressedmet.rand import stream
from dressedmet.sdp import SdpProblem, solve_dual, solve_primal

from _reference_barrier import solve_dual as short_step_solve_dual
from _reference_long_step import solve_dual as long_step_solve_dual
from _reference_dual import solve_dual as reference_solve_dual
from conftest import random_hermitian


def instance(i):
    rng = stream(6100, i)
    dim, k = 2 + i % 5, (i // 5) % 5
    couplings = [random_hermitian(rng, dim) for _ in range(k)]
    g = random_hermitian(rng, dim)
    if k and i % 4 == 1:
        # a coupling dependent on the identity and the others
        mix = np.tensordot(rng.standard_normal(k), np.array(couplings), axes=1)
        couplings.append(mix + 0.5 * np.eye(dim))
    if i % 6 == 3:
        # inside the span: no signal, dual value 0
        g = 0.7 * np.eye(dim) + sum(c * a for c, a in zip(rng.standard_normal(k), couplings))
    return SdpProblem.from_couplings(g, couplings)


def op_norm(m):
    return float(np.abs(np.linalg.eigvalsh(m)).max())


@pytest.mark.parametrize("i", range(40))
def test_barrier_dual_matches_reference(i):
    problem = instance(i)
    scale = op_norm(problem.g)
    dual = solve_dual(problem)
    assert dual.certified
    assert dual.value <= reference_solve_dual(problem).value + 1e-12 * scale
    assert dual.value >= solve_primal(problem).primal_value - 1e-9 * scale
    shifted = problem.g - np.tensordot(dual.coeffs, np.array(problem.constraints), axes=1)
    assert abs(2.0 * op_norm(shifted) - dual.value) <= 1e-12 * scale


def test_heavy_tail_instance_is_fast():
    # d = 3, k = 4: the subgradient dual took 15 s here
    rng = stream(91, 14)
    g = random_hermitian(rng, 3)
    problem = SdpProblem.from_couplings(g, [random_hermitian(rng, 3) for _ in range(4)])
    start = time.monotonic()
    dual = solve_dual(problem)
    elapsed = time.monotonic() - start
    assert dual.certified
    assert elapsed < 0.5
    assert dual.iterations <= 45


def chain_instance(dim, k, i):
    """G and k couplings drawn as the benchmark's certify chains draw them."""
    rng = stream(6200 + 10 * dim + k, i)
    g = random_hermitian(rng, dim)
    return SdpProblem.from_couplings(g, [random_hermitian(rng, dim) for _ in range(k)])


DIFFERENTIAL = ([pytest.param(instance(i), id=f"instance{i}") for i in range(40)]
                + [pytest.param(chain_instance(d, k, i), id=f"chain-d{d}-k{k}-{i}")
                   for d in (3, 6) for k in (1, 2, 3, 4) for i in range(3)])


@pytest.mark.parametrize("problem", DIFFERENTIAL)
def test_long_step_path_matches_short_step_path(problem):
    scale = op_norm(problem.g)
    new, old = solve_dual(problem), short_step_solve_dual(problem)
    assert new.stop == old.stop == "path_end"
    assert new.iterations <= old.iterations
    assert abs(new.value - old.value) <= 1e-11 * scale
    np.testing.assert_allclose(new.g_tilde, old.g_tilde, rtol=0.0, atol=1e-9)
    primal_new = float(np.trace(problem.g @ new.g_tilde).real)
    primal_old = float(np.trace(problem.g @ old.g_tilde).real)
    assert abs(primal_new - primal_old) <= 1e-11 * scale


@pytest.mark.parametrize("shrink", [15.0, 30.0])
@pytest.mark.parametrize("i", [109, 73])
def test_centering_floor_ends_the_path(monkeypatch, shrink, i):
    # without the rounding floor in the centering test, 15x cuts ran
    # instance(109) and 30x cuts instance(73) to _MAX_STEPS: at the last
    # level Armijo accepted steps that only moved the barrier's rounding
    monkeypatch.setattr(sdp, "_MU_SHRINK", shrink)
    dual = solve_dual(instance(i))
    assert dual.stop == "path_end"
    assert dual.iterations < 60


def test_every_sampled_path_ends_within_45_steps():
    # the 5x path took 80 to 88 steps on this sample
    duals = [solve_dual(instance(i)) for i in range(200)]
    assert {d.stop for d in duals} == {"path_end"}
    assert max(d.iterations for d in duals) <= 45


def assert_same_path(new, old):
    assert (new.iterations, new.stop, new.value) == (old.iterations, old.stop, old.value)
    assert new.duality_measure == old.duality_measure
    assert np.array_equal(new.coeffs, old.coeffs)
    assert np.array_equal(new.g_tilde, old.g_tilde)


@pytest.mark.parametrize("block", range(12))
def test_step_bound_skips_only_rejected_trials(monkeypatch, block):
    # at the old centering factor the bounded line search must retrace the
    # old path bit for bit: a skipped trial is one the old search read as
    # outside the cone
    monkeypatch.setattr(sdp, "_CENTERING", 1e-3)
    for i in range(50 * block, 50 * block + 50):
        problem = instance(i)
        assert_same_path(solve_dual(problem), long_step_solve_dual(problem))


@pytest.mark.parametrize("problem", DIFFERENTIAL)
def test_step_bound_retraces_the_long_step_path(monkeypatch, problem):
    monkeypatch.setattr(sdp, "_CENTERING", 1e-3)
    assert_same_path(solve_dual(problem), long_step_solve_dual(problem))


def test_no_eigendecomposition_for_a_trial_outside_the_cone(monkeypatch):
    # one eigh at the start and one per accepted trial, `iterations` in all
    # (the last Newton step ends the path before its line search); a trial
    # outside the cone takes none, and on this sample at most three trials
    # a solve lie inside it and fail the Armijo test
    calls = [0]
    eigh = np.linalg.eigh

    def counted(m):
        calls[0] += 1
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for i in range(200):
        calls[0] = 0
        dual = solve_dual(instance(i))
        assert calls[0] <= dual.iterations + 3


@pytest.mark.parametrize("i", [i for i in range(60) if i % 4 == 1 or i % 6 == 3])
def test_dual_basis_maps_back_to_the_constraints(i):
    # the dual's Newton basis B_j and its map T to constraint coefficients
    # come from the span layer: sum_k (T y)_k C_k = sum_j y_j B_j, also
    # where a coupling depends on the identity and the others
    problem = instance(i)
    cons = np.array(problem.constraints)
    span = orthonormal_span(cons, ScalarField.REAL)
    if i % 4 == 1 and len(cons) > 1:
        assert span.size == min(len(cons) - 1, problem.dim ** 2)
    y = stream(6300, i).standard_normal(span.size)
    back = np.tensordot(span.to_generators @ y, cons, axes=1)
    want = np.tensordot(y, span.basis, axes=1)
    assert np.abs(back - want).max() <= 1e-13 * max(1.0, float(np.linalg.norm(y)))
