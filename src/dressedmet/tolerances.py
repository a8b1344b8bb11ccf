"""Central tolerance configuration.

Every numerical threshold used by the package lives in this one record so the
test suite, the CLI and library callers agree on what "zero" means at each
stage.  Functions take an optional ``tol`` argument defaulting to ``TOL``.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # entrywise Hermiticity deviation accepted when wrapping a matrix
    hermiticity: float = 1e-12
    # |norm - 1| accepted for state vectors
    state_norm: float = 1e-12
    # pairwise orthonormality deviation of span bases
    orthonormality: float = 1e-10
    # Gram-Schmidt residual below which a generator counts as dependent
    span_drop: float = 1e-10
    # Frobenius residual below which an operator counts as inside a span
    membership: float = 1e-9
    # residuals within this factor of `membership` are flagged marginal
    marginal_factor: float = 10.0
    # Hermiticity deviation accepted for projection outputs (adjoint-closed spans)
    decomposition: float = 1e-10
    # |trace| accepted for operators that must be traceless
    traceless: float = 1e-10
    # relative eigenvalue cut separating supports in a positive/negative split
    rank: float = 1e-10
    # max Knill-Laflamme deviation for a code to count as protected
    kl: float = 1e-8
    # PSD check slack for bath-rate matrices
    psd: float = 1e-10
    # relative factor for eigenvalue grouping: gap_tol = gap_rel * ||h||_op
    gap_rel: float = 1e-9
    # absolute floor for the grouping tolerance when ||h|| ~ 0
    gap_abs: float = 1e-12
    # trace drift aborting the integrator
    trace_drift: float = 1e-6
    # most negative density eigenvalue the integrator accepts
    positivity_floor: float = -1e-6
    # dt * ||generator|| must stay below this for the fixed-step integrator
    stability: float = 0.1
    # relative Richardson disagreement above which a QFI estimate is unreliable
    qfi_disagreement: float = 0.05


TOL = Tolerances()
