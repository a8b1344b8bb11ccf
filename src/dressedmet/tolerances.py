"""Central tolerance configuration.

The thresholds of validation, span membership, code protection and
integrator aborts live in this one module, so the test suite, the CLI and
library callers agree on what "zero" means at each stage.  A caller varies
the six fields of :class:`Tolerances` through an optional ``tol`` (default
``TOL``); the rest are the constants below it.  Fixed constants of one
algorithm stay in its module: the barrier's stopping rules in ``sdp``,
spectral floors in ``simulate``, descent settings in ``codespace``, the
field-ratio limit in ``nv`` and the entry bound in ``operators``.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # entrywise Hermiticity deviation accepted when wrapping a matrix
    hermiticity: float = 1e-12
    # PSD check slack for bath-rate matrices
    psd: float = 1e-10
    # relative factor for eigenvalue grouping: gap_tol = gap_rel * ||h||_op
    gap_rel: float = 1e-9
    # trace drift aborting the integrator
    trace_drift: float = 1e-6
    # most negative density eigenvalue the integrator accepts
    positivity_floor: float = -1e-6
    # relative Richardson disagreement above which a QFI estimate is unreliable
    qfi_disagreement: float = 0.05


TOL = Tolerances()
# |norm - 1| accepted for state vectors
STATE_NORM = 1e-12
# pairwise orthonormality deviation of span bases
ORTHONORMALITY = 1e-10
# spans drop a generator of smaller norm, and a direction whose singular
# value over the generators scaled to unit norm is at most this
SPAN_DROP = 1e-10
# Frobenius residual below which an operator counts as inside a span
MEMBERSHIP = 1e-9
# residuals within this factor of `MEMBERSHIP` are flagged marginal
MARGINAL_FACTOR = 10.0
# Hermiticity deviation accepted for projection outputs (adjoint-closed spans)
DECOMPOSITION = 1e-10
# |trace| accepted for operators that must be traceless
TRACELESS = 1e-10
# relative eigenvalue cut separating supports in a positive/negative split
RANK = 1e-10
# max Knill-Laflamme deviation for a code to count as protected
KL = 1e-8
# absolute floor for the grouping tolerance when ||h|| ~ 0
GAP_ABS = 1e-12
# dt * ||generator|| must stay below this for the fixed-step integrator
STABILITY = 0.1
# rounding floor of a decrease per unit of max(1, |value|), 16 machine
# epsilons (16 * 2**-52): the dual's centering test and the Stiefel descent's stop
ROUNDING = 2.0**-48
