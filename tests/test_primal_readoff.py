"""The primal read off the dual's central path against the barrier it replaced.

``_reference_primal.solve_primal`` is the d^2-coordinate log-det barrier on
the primal SDP as it stood before ``solve_primal`` read its point off
``solve_dual``.  On every instance the read-off must close the sandwich at
least as tightly as the reference (or to 1e-10 of the scale), reach at least
the reference's primal value, and hand out an exactly feasible ``Gt`` with
``X = |Gt|`` as its trace-norm certificate.  The instances are the 30
``test_sdp`` random instances, the gate-1 design problem, the degenerate
single-coupling one, the collective generator and couplings that depend on
earlier ones.
"""

import numpy as np
import pytest

from dressedmet.operators import spin_matrices
from dressedmet.rand import stream
from dressedmet.sdp import SdpProblem, solve_primal

from _reference_primal import solve_primal as reference_solve_primal
from conftest import random_hermitian
from test_sdp import COLLECTIVE, random_instance

SX, SY, SZ = spin_matrices(2)
SZSQ = SZ @ SZ


def dependent_cases():
    rng = stream(5, 0)
    g, a, b = (random_hermitian(rng, 3) for _ in range(3))
    return {"dependent-repeat": (g, [a, a, b]), "dependent-double": (g, [a, 2 * a, b])}


CASES = {
    **{f"random-{seed}": random_instance(1000 + seed) for seed in range(30)},
    "gate-1": (SZSQ, [SX, SY, SZ]),
    "degenerate-sz": (SZSQ, [SZ]),
    "collective": (COLLECTIVE, []),
    **dependent_cases(),
}


@pytest.mark.parametrize("name", list(CASES))
def test_readoff_matches_reference(name):
    g, couplings = CASES[name]
    problem = SdpProblem.from_couplings(g, couplings)
    scale = float(np.abs(np.linalg.eigvalsh(problem.g)).max())
    sol = solve_primal(problem)
    ref = reference_solve_primal(problem)

    assert sol.certified
    assert sol.gap <= max(ref.gap, 1e-10 * scale)
    assert sol.primal_value >= ref.primal_value - 1e-12 * scale

    feasible = 1e-12 * max(1.0, scale)
    gt = sol.g_tilde.entries
    x = sol.x_certificate.entries
    assert abs(np.trace(gt)) <= feasible
    for c in couplings:
        assert abs(np.trace(c @ gt)) <= feasible
    # Gt = 0 only when G lies in the span, trace norm 2 otherwise
    norm = np.abs(np.linalg.eigvalsh(gt)).sum()
    if norm == 0.0:
        assert sol.dual_value <= 1e-10 * scale
    else:
        assert abs(norm - 2.0) <= feasible
    assert np.linalg.eigvalsh(x - gt).min() >= -1e-12
    assert np.linalg.eigvalsh(x + gt).min() >= -1e-12
    assert np.trace(x).real <= 2.0 + 1e-12
