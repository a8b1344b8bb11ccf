"""Algebraic reachability criteria for Heisenberg-limited sensing.

Each criterion asks whether the signal generator G escapes an operator span
built from the noise couplings; sensitivity beyond the standard quantum limit
survives the corresponding noise class exactly when it does.

This module owns the criterion spans and the quadratic error set:
:func:`error_set` builds ``[A_alpha] + [A_alpha^dag A_beta]`` as one stacked
array for the span criteria here and for :mod:`.codespace`; the constructive
bound in :mod:`.sdp` takes its orthogonal remainder ``g_perp`` from the
criterion reports.  Every span here, and the
certified dual's basis of the :func:`linear_generators` span in :mod:`.sdp`,
comes from :func:`.operators.orthonormal_span` and its one drop rule.

* :func:`linear_span_condition` - real span of the identity and the Hermitian
  couplings.  Escaping it is what dephasing-plus-relaxation protection (with a
  noiseless ancilla available) requires.
* :func:`quadratic_span_condition` - complex span that additionally contains
  all pairwise coupling products.  Escaping it is required once every thermal
  transition channel is open, and is what full error-correctability demands.
* :func:`hnls_condition` - the Lindblad-operator version of the same test,
  spanning the identity, each jump operator, its adjoint, and all pairwise
  adjoint products.

Verdicts are residual-threshold decisions; residuals within a factor
``MARGINAL_FACTOR`` of the threshold are flagged marginal so callers can
treat borderline instances with suspicion.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .jsonio import operator_to_json
from .operators import (
    ScalarField,
    as_matrix,
    frobenius,
    orthonormal_span,
    project_decompose,
    require_bounded,
    require_hermitian,
)
from .tolerances import MARGINAL_FACTOR, MEMBERSHIP, TOL, Tolerances

__all__ = [
    "Criterion",
    "CriterionReport",
    "linear_span_condition",
    "quadratic_span_condition",
    "hnls_condition",
    "condition_by_name",
]


class Criterion(Enum):
    # the .value strings double as the CLI/JSON interface vocabulary
    LINEAR_REAL = "thm1"
    QUADRATIC_COMPLEX = "thm2"
    HNLS = "hnls"


class CriterionReport(NamedTuple):
    criterion: Criterion
    verdict: bool
    residual_norm: float
    span_dim: int
    marginal: bool
    g_perp: np.ndarray
    tolerance: float

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion.value,
            "verdict": self.verdict,
            "residual_norm": self.residual_norm,
            "span_dim": self.span_dim,
            "marginal": self.marginal,
            "tolerance": self.tolerance,
            "g_perp": operator_to_json(self.g_perp),
        }


def _span_report(
    criterion: Criterion, field: ScalarField, generators, g, ops, tol: Tolerances
) -> CriterionReport:
    """Span ``generators(ops, d)`` and report how far ``g`` escapes it."""
    gm = as_matrix(g)
    mats = [as_matrix(a) for a in ops]
    if any(m.shape != gm.shape for m in mats):
        raise ValidationError("generator and noise operators must share one dimension")
    stack = np.array(mats, dtype=complex).reshape(-1, *gm.shape)
    if criterion is Criterion.QUADRATIC_COMPLEX:  # a real span checks its own generators
        require_hermitian(stack, "a coupling", tol)
    elif criterion is Criterion.HNLS:  # jump operators need not be Hermitian
        require_bounded(stack, "a jump operator")
    span = orthonormal_span(generators(mats, gm.shape[0]), field, tol=tol)
    _, perp = project_decompose(gm, span, tol=tol)
    residual = frobenius(perp.entries)
    lo = MEMBERSHIP / MARGINAL_FACTOR
    hi = MEMBERSHIP * MARGINAL_FACTOR
    return CriterionReport(
        criterion=criterion,
        verdict=residual > MEMBERSHIP,
        residual_norm=residual,
        span_dim=span.size,
        marginal=lo <= residual <= hi,
        g_perp=perp.entries,
        tolerance=MEMBERSHIP,
    )


def linear_generators(couplings, dim: int) -> list[np.ndarray]:
    """Identity and the couplings."""
    return [np.eye(dim, dtype=complex)] + [as_matrix(a) for a in couplings]


def linear_span_condition(g, couplings, *, tol: Tolerances = TOL) -> CriterionReport:
    """Does G escape span_R{1, A_alpha}?

    True means a protected two-dimensional code with nonzero signal exists
    under dephasing and relaxation by the Hermitian couplings ``couplings``
    (allowing a noiseless ancilla); false means none exists.
    """
    return _span_report(
        Criterion.LINEAR_REAL, ScalarField.REAL, linear_generators, g, couplings, tol
    )


def error_set(ops, dim: int) -> np.ndarray:
    """``[A_alpha] + [A_alpha^dag A_beta]`` stacked as one ``(k + k^2, d, d)`` array.

    Pair ``(alpha, beta)`` sits at ``k + alpha k + beta``; an empty ``ops``
    gives a ``(0, d, d)`` array.
    """
    a = np.array([as_matrix(m) for m in ops], dtype=complex).reshape(-1, dim, dim)
    pairs = np.matmul(a.conj().transpose(0, 2, 1)[:, None], a[None])
    return np.concatenate([a, pairs.reshape(-1, dim, dim)])


def quadratic_generators(couplings, dim: int) -> np.ndarray:
    """Identity, couplings, and all ordered pairwise products.

    The products are ``A_alpha^dag A_beta``, which equal ``A_alpha A_beta``
    only for Hermitian couplings; :func:`quadratic_span_condition` checks
    them.
    """
    return np.concatenate([np.eye(dim, dtype=complex)[None], error_set(couplings, dim)])


def quadratic_span_condition(g, couplings, *, tol: Tolerances = TOL) -> CriterionReport:
    """Does G escape span_C{1, A_alpha, A_alpha A_beta}?

    True means an error-corrected sensing code with nonzero signal survives
    arbitrary bath temperature (every transition channel open); false means
    the signal is unrecoverable in that regime.  The couplings must be
    Hermitian, as for :func:`linear_span_condition`.
    """
    return _span_report(
        Criterion.QUADRATIC_COMPLEX, ScalarField.COMPLEX, quadratic_generators, g, couplings, tol
    )


def hnls_generators(lindblads, dim: int) -> np.ndarray:
    """Identity, each jump operator, its adjoint, and all ``L_i^dag L_j``."""
    mats = [as_matrix(l) for l in lindblads]
    errs = error_set(mats, dim)
    k = len(mats)
    adjoints = errs[:k].conj().transpose(0, 2, 1)
    return np.concatenate([np.eye(dim, dtype=complex)[None], errs[:k], adjoints, errs[k:]])


def hnls_condition(g, lindblads, *, tol: Tolerances = TOL) -> CriterionReport:
    """Hamiltonian-not-in-Lindblad-span test for an explicit jump-operator list.

    True iff G escapes span_C{1, L_i, L_i^dag, L_i^dag L_j}; this is the
    standard correctability criterion stated directly on a Lindblad set
    rather than on the physical couplings.
    """
    return _span_report(Criterion.HNLS, ScalarField.COMPLEX, hnls_generators, g, lindblads, tol)


def condition_by_name(name: str, g, ops, *, tol: Tolerances = TOL) -> CriterionReport:
    """Dispatch a criterion by its interface name ('thm1' | 'thm2' | 'hnls')."""
    table = {
        Criterion.LINEAR_REAL.value: linear_span_condition,
        Criterion.QUADRATIC_COMPLEX.value: quadratic_span_condition,
        Criterion.HNLS.value: hnls_condition,
    }
    if name not in table:
        raise ValidationError(f"unknown criterion {name!r}; expected one of {sorted(table)}")
    return table[name](g, ops, tol=tol)
