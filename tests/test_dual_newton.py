"""The Newton barrier dual against the subgradient dual it replaced.

``_reference_dual.solve_dual`` is the subgradient descent as it stood before
the barrier.  Both return an upper bound ``2 ||G - sum c_k C_k||_op`` on the
primal optimum, so on every instance the barrier's value must sit no higher
than the reference's (to rounding), no lower than the primal value that
``solve_primal`` reads off the path (weak duality, to rounding), and be
reproduced by one ``eigvalsh`` at the returned coefficients.  The instances
cover d in 2..6, k in 0..4, couplings that depend linearly on earlier
constraints, and generators inside the span.
"""

import time

import numpy as np
import pytest

from dressedmet.rand import stream
from dressedmet.sdp import SdpProblem, solve_dual, solve_primal

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
