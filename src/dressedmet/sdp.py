"""Certified optimization of the code-signal objective.

The primal semidefinite program maximizes ``tr(G Gt)`` over Hermitian ``Gt``
subject to ``tr(Gt) = 0``, ``tr(A_k Gt) = 0`` for every coupling, and a trace
norm bound ``tr|Gt| <= 2`` expressed through an auxiliary matrix ``X`` with
``-X <= Gt <= X`` (in the PSD order) and ``tr(X) <= 2``.  Its optimum equals
the largest signal gap achievable by a protected code pair.  Its dual is
``2 min_c ||G - sum_k c_k C_k||_op``, the eigenvalue problem ``min t``
subject to ``-tI <= G - sum_k c_k C_k <= tI``.  One barrier method brackets
the optimum from both sides, and a closed form gives a third bound:

* :func:`solve_dual` follows the central path of the eigenvalue problem by
  Newton steps on its log-det barrier in the ``k + 2`` variables ``(c, t)``,
  cutting the barrier weight 20x per centered level, and names its exit.
  Its basis of the constraint span comes from the criteria's span builder.
  The center carries the primal multipliers ``Z+- = mu (tI -+ M)^-1``, and
  at the stop ``Z+ - Z-``, linearized along the last Newton step, projected
  off the constraint span and scaled to trace norm 2, is the primal ``Gt``;
* :func:`solve_primal` reports that ``Gt`` with ``X = |Gt|`` next to the dual
  value and certifies the pair when the two agree;
* :func:`constructive_bound` - the closed-form feasible value
  ``2 tr(P^2) / tr|P|`` from the span-orthogonal component ``P`` of ``G``
  (a lower bound, tight at the optimum's support structure).  It is a
  witness for acceptance gate 2 and the tests; no command reports it, and
  it stays here because the benchmark wraps it.

Both sides of the sandwich come off one path, yet each carries its own
witness, valid whatever the iterate.  ``Gt`` is orthogonal to every
constraint and has trace norm 2 by construction, checked to rounding, and
``X = |Gt|`` certifies that norm exactly, so ``tr(G Gt)`` is a lower bound.
The dual value is one ``eigvalsh`` of ``G - sum_k c_k C_k`` at the returned
coefficients, an upper bound by weak duality.  A poor iterate can therefore
only widen the gap; it cannot certify a wrong value.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .criteria import linear_generators, linear_span_condition
from .errors import NumericalError, ValidationError
from .jsonio import operator_to_json
from .operators import (HermitianOperator, ScalarField, as_matrix, hermitian_part, orthonormal_span,
                        positive_negative_split, require_hermitian)
from .tolerances import ROUNDING, TOL, Tolerances

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "ConstructiveBound",
    "DualSolution",
    "constructive_bound",
    "solve_dual",
    "solve_primal",
]


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Objective matrix plus trace-orthogonality constraints (identity first)."""

    g: np.ndarray
    constraints: tuple

    def __post_init__(self):
        gm = as_matrix(self.g)
        mats = tuple(as_matrix(c) for c in self.constraints)
        if not mats:
            raise ValidationError("constraint list must at least contain the identity")
        if not np.allclose(mats[0], np.eye(gm.shape[0]), atol=1e-12):
            raise ValidationError("the first constraint must be the identity matrix")
        if any(m.shape != gm.shape for m in mats):
            raise ValidationError("constraints must match the generator dimension")
        require_hermitian(gm, "generator")
        require_hermitian(np.array(mats), "a constraint")
        object.__setattr__(self, "g", gm)
        object.__setattr__(self, "constraints", mats)

    @classmethod
    def from_couplings(cls, g, couplings) -> "SdpProblem":
        gm = as_matrix(g)
        return cls(gm, tuple(linear_generators(couplings, gm.shape[0])))

    @property
    def dim(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True, eq=False)
class ConstructiveBound:
    value: float
    rho0: Optional[np.ndarray]
    rho1: Optional[np.ndarray]
    g_perp: np.ndarray
    weight: float


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Dual value and coefficients, plus what the barrier path read off.

    ``stop`` names the exit: ``"path_end"`` when the central path was
    followed to its end (or ``g`` is zero or inside the span),
    ``"max_steps"`` at ``_MAX_STEPS`` Newton steps, and
    ``"rounding_floor"`` when a line search found no representable decrease
    down to a step of 1e-12 (halvings past the feasible step bound, which
    take no eigendecomposition, count toward that floor).
    ``g_tilde`` is the feasible primal point read off the last center (zero
    when ``g`` is zero or inside the span) and ``duality_measure`` is
    ``2 d mu`` there, in the units of ``g`` (zero when no barrier step ran).
    :func:`solve_dual` sets ``g_tilde`` on every return.
    """

    value: float
    coeffs: np.ndarray
    iterations: int
    stop: str
    g_tilde: Optional[np.ndarray] = None
    duality_measure: float = 0.0

    @property
    def certified(self) -> bool:
        """Whether the central path was followed to its end."""
        return self.stop == "path_end"


@dataclass(frozen=True, eq=False)
class SdpSolution:
    primal_value: float
    g_tilde: HermitianOperator
    x_certificate: HermitianOperator
    dual_value: float
    dual_coeffs: np.ndarray
    gap: float
    iterations: int
    duality_measure: float
    certified: bool
    stop: str

    def to_json_dict(self) -> dict:
        return {
            "primal_value": self.primal_value,
            "g_tilde": operator_to_json(self.g_tilde),
            "x_certificate": operator_to_json(self.x_certificate),
            "dual_value": self.dual_value,
            "dual_coeffs": [float(c) for c in self.dual_coeffs],
            "gap": self.gap,
            "iterations": self.iterations,
            "duality_measure": self.duality_measure,
            "certified": self.certified,
            "stop": self.stop,
        }


def constructive_bound(g, couplings, *, tol: Tolerances = TOL) -> ConstructiveBound:
    """Closed-form feasible value from the span-orthogonal part of G.

    With ``P`` the component of G orthogonal to span_R{1, A_alpha}, the pair
    of density matrices on the signed eigenspaces of ``P`` realizes the value
    ``2 tr(P^2) / tr|P|``.  Returns value 0 with empty states when G sits
    inside the span (zero signal available).
    """
    report = linear_span_condition(g, couplings, tol=tol)
    p = report.g_perp
    if not report.verdict:
        return ConstructiveBound(0.0, None, None, p, 0.0)
    rho1, rho0, weight = positive_negative_split(p, tol=tol)
    trace_norm = 2.0 * weight
    value = 2.0 * float(np.trace(p @ p).real) / trace_norm
    return ConstructiveBound(value, rho0, rho1, p, weight)


# ---------------------------------------------------------------------------
# dual: Newton log-det barrier on (c, t) for min t s.t. -tI <= M(c) <= tI
# ---------------------------------------------------------------------------


# Newton steps after which the path is abandoned uncertified; a safeguard
# only, the path ends within fifty steps on the instances tried
_MAX_STEPS = 20000
# factor by which mu falls at each center: long steps take fewer Newton steps
# in total (Boyd & Vandenberghe, *Convex Optimization*, sec. 11.3.3)
_MU_SHRINK = 20.0
# a point is centered once half the squared Newton decrement is at most this
# multiple of mu: the next level's long step recenters it anyway (sec. 11.5);
# 0.5 took the fewest eigendecompositions of the factors 0.1 to 0.5 tried
_CENTERING = 0.5
# relative slack on the feasible step bound: a line-search trial is skipped
# unseen only where it lies clearly outside the cone
_STEP_MARGIN = 1e-9


def solve_dual(problem: SdpProblem) -> DualSolution:
    """Minimize the dual objective ``2 ||g - sum c_k C_k||_op`` by a barrier method.

    With ``g`` scaled to unit operator norm and ``M(c) = g - sum_j c_j B_j``
    over the basis ``B_j`` of :func:`.operators.orthonormal_span` of the
    constraints (dropping a singular value at most ``SPAN_DROP`` of the
    unit-norm constraints keeps the Newton system nonsingular), the
    solver follows the central path of ``min t`` subject to
    ``-tI <= M(c) <= tI``: Newton steps on
    ``t - mu (log det(tI - M) + log det(tI + M))`` over the ``k + 2``
    variables ``(c, t)``, each from one eigendecomposition of ``M``, with an
    Armijo backtrack that reads a step leaving the interior as ``+inf``.
    The backtrack starts from a unit step and first halves it, with no
    eigendecomposition, while it lies past the largest feasible step by more
    than ``_STEP_MARGIN`` relative: in ``M``'s eigenbasis the slacks move as
    ``diag(t -+ lam) + alpha (dt I +- D)``, so one stacked ``eigvalsh`` of
    ``W^1/2 (dt I +- D) W^1/2`` bounds the step (Boyd & Vandenberghe,
    *Convex Optimization*, sec. 11.5).  It skips only trials that the
    ``+inf`` test would reject.
    ``mu`` starts at 0.1 and shrinks 20x (``_MU_SHRINK``) once the point is
    centered, until the duality measure ``2 d mu`` is below 1e-11.  A point
    is centered once half the squared Newton decrement, ``-slope / 2``, is
    at most ``max(_CENTERING mu, 16 eps max(1, |phi|))``, with ``_CENTERING``
    0.5 and ``phi`` the barrier value ``t - mu log det``: the next level's
    long step recenters a loosely centered point, and at the last levels
    ``_CENTERING mu`` falls below the rounding of ``phi``, where Armijo
    would accept noise until ``_MAX_STEPS``.  Should the line search find no
    representable decrease down to a step of 1e-12 before the path's end,
    the solve stops at ``"rounding_floor"`` with the point it reached.
    Generators inside the span, to 1e-12 of their own scale, stop at their
    least-squares projection.

    Whatever the iterate, the value is one ``eigvalsh`` of
    ``g - sum c_k C_k`` at the returned coefficients, mapped back onto
    ``problem.constraints`` by the span's map: an upper bound by weak duality.
    ``iterations`` counts Newton steps, and ``stop`` names the exit, as
    :class:`DualSolution` lists them.

    Where the path stops, the primal point ``g_tilde`` is read off its last
    center ``(y, t, mu)``: the barrier's multipliers ``Z+- = mu S+-^-1`` of
    ``S+- = tI -+ M``, linearized along the Newton step ``(dy, dt)`` just
    computed there, are ``mu (S^-1 - S^-1 dS S^-1)`` with
    ``dS+- = dt I -+ dM``; ``W = Z+ - Z-`` projected off the span and
    scaled to ``tr|W| = 2`` is feasible to rounding (Boyd & Vandenberghe,
    *Convex Optimization*, ch. 11; Vandenberghe & Boyd, SIAM Review 1996).
    Without the step term the center alone left relative gaps up to 2e-3.
    """
    g = problem.g
    cons = np.array(problem.constraints)
    dim = problem.dim
    zero = np.zeros((dim, dim), dtype=complex)
    scale = float(np.linalg.norm(np.linalg.eigvalsh(g), np.inf))
    if scale == 0.0:
        return DualSolution(0.0, np.zeros(len(cons)), 0, "path_end", zero)
    gn = g / scale

    span = orthonormal_span(cons, ScalarField.REAL)
    basis, flat_basis = span.basis, span.basis.reshape(span.size, -1)

    def value(y):
        coeffs = span.to_generators @ y
        m = gn - np.tensordot(coeffs, cons, axes=1)
        return 2.0 * float(np.abs(np.linalg.eigvalsh(m)).max()), coeffs

    def result(y, steps, stop, g_tilde=zero, mu=0.0):
        f, coeffs = value(y)
        return DualSolution(f * scale, coeffs * scale, steps, stop, g_tilde, 2 * dim * mu * scale)

    # the least-squares projection onto the span is optimal when g lies in
    # it, to the rounding at which dependent constraint directions drop; the
    # test is relative, so that a small g keeps its primal point
    y = (flat_basis.conj() @ gn.ravel()).real
    if value(y)[0] <= 1e-12:
        return result(y, 0, "path_end")

    def spectrum(yy, tt):
        """Eigenpairs of M(yy) and log det(tI - M) + log det(tI + M), -inf outside."""
        lam, vecs = np.linalg.eigh(gn - (yy @ flat_basis).reshape(dim, dim))
        if tt <= np.abs(lam).max():
            return -np.inf, lam, vecs
        return float(np.log(tt - lam).sum() + np.log(tt + lam).sum()), lam, vecs

    def primal():
        """Gt from W = Z+ - Z- at the current point along ``step``, formed in M's
        eigenbasis; mu cancels."""
        dm = -np.tensordot(step[:-1], yb, axes=1)
        w = ww.sum(0) * dm
        w[np.diag_indices(dim)] += wa - wb - step[-1] * (wa * wa - wb * wb)
        w = vecs @ w @ vecs.conj().T
        w = hermitian_part(w)
        w -= span.project(w)
        return 2.0 * w / np.abs(np.linalg.eigvalsh(w)).sum()

    # ||g||_op = 1 puts the start strictly inside the feasible cone
    y = np.zeros(len(basis))
    t = 1.5 + 1e-3
    mu = 0.1
    logdet, lam, vecs = spectrum(y, t)
    for steps in itertools.count(1):
        # gradient and negated Hessian of the log-det term, in M's eigenbasis
        wa, wb = 1.0 / (t - lam), 1.0 / (t + lam)
        ww = np.array([np.outer(wa, wa), np.outer(wb, wb)])
        yb = vecs.conj().T @ basis @ vecs
        diag = np.einsum("jaa->ja", yb).real
        yf = yb.reshape(len(basis), -1)
        hess = np.empty((len(basis) + 1, len(basis) + 1))
        hess[:-1, :-1] = ((yf * ww.sum(0).ravel()) @ yf.conj().T).real
        hess[:-1, -1] = hess[-1, :-1] = diag @ (wa * wa - wb * wb)
        hess[-1, -1] = float((wa * wa + wb * wb).sum())
        dlog = np.append(diag @ (wa - wb), (wa + wb).sum())
        while True:
            grad = -mu * dlog
            grad[-1] += 1.0
            step = -np.linalg.solve(mu * hess, grad)
            slope = float(grad @ step)
            phi = t - mu * logdet
            # the rounding of phi bounds the decrease a step can show
            if -slope / 2.0 > max(_CENTERING * mu, ROUNDING * max(1.0, abs(phi))):
                break
            if 2 * dim * mu < 1e-11:
                return result(y, steps, "path_end", primal(), mu)
            mu /= _MU_SHRINK
        if steps >= _MAX_STEPS:
            return result(y, steps, "max_steps", primal(), mu)
        # in M's eigenbasis the slacks move as diag(t -+ lam) + alpha (dt I +- D),
        # with D = sum_j dy_j V^dag B_j V, and stay in the cone while I + alpha K
        # does, for K = W^1/2 (dt I +- D) W^1/2 at W = diag(wa), diag(wb): one
        # eigvalsh of both K bounds the step, and halving past it takes no eigh
        dd = (step[:-1] @ yf).reshape(dim, dim)
        low = np.linalg.eigvalsh((np.array([dd, -dd]) + step[-1] * np.eye(dim)) * np.sqrt(ww)).min()
        alpha = 1.0
        while alpha > 1e-12 and 1.0 + alpha * low < -_STEP_MARGIN:
            alpha *= 0.5
        while alpha > 1e-12:
            trial = spectrum(y + alpha * step[:-1], t + alpha * step[-1])
            if t + alpha * step[-1] - mu * trial[0] <= phi + 0.25 * alpha * slope:
                break
            alpha *= 0.5
        else:
            # no representable decrease along the Newton direction: the
            # centering has hit the rounding floor before the path's end
            return result(y, steps, "rounding_floor", primal(), mu)
        y, t = y + alpha * step[:-1], t + alpha * step[-1]
        logdet, lam, vecs = trial


def _certifies(upper: float, lower: float, scale: float) -> bool:
    """Whether an upper and a lower bound close the sandwich on the optimum.

    They must agree within ``1e-6 * scale``, with ``scale`` the operator norm
    of ``g``, on either side: a lower bound above the upper one beyond that
    window is no lower bound at all.  The window is relative only, so it
    means the same at every scale of ``g``.  A negative lower value counts as
    0, the value of ``Gt = 0``.
    """
    return abs(upper - max(0.0, lower)) <= 1e-6 * scale


def solve_primal(problem: SdpProblem) -> SdpSolution:
    """The primal point read off the dual's central path, with its certificates.

    Runs :func:`solve_dual` once, checks the ``Gt`` it read off for
    feasibility to rounding (orthogonal to every constraint, trace norm 2
    unless it is zero), forms ``X = |Gt|`` and reports the primal value
    ``tr(G Gt)`` next to the dual value.  ``certified`` means the two pass
    :func:`_certifies`.  ``iterations`` counts the path's Newton steps,
    ``duality_measure`` is its ``2 d mu`` at the stop, in the units of ``G``,
    and ``stop`` names the path's exit (:class:`DualSolution`).
    """
    dual = solve_dual(problem)
    cons = np.array(problem.constraints)
    overlap = np.abs(np.einsum("kab,ba->k", cons, dual.g_tilde))
    if not (overlap <= 1e-12 * np.linalg.norm(cons, axis=(1, 2))).all():
        raise NumericalError(f"primal read-off leaves a constraint overlap of {overlap.max():.3e}")
    g_tilde = HermitianOperator(dual.g_tilde).entries
    vals, vecs = np.linalg.eigh(g_tilde)
    norm = float(np.abs(vals).sum())
    if norm and abs(norm - 2.0) > 1e-12:
        raise NumericalError(f"primal read-off has trace norm {norm!r}, not 2")
    x = (vecs * np.abs(vals)) @ vecs.conj().T

    scale = float(np.linalg.norm(np.linalg.eigvalsh(problem.g), np.inf))
    primal_value = float(np.trace(problem.g @ g_tilde).real)
    return SdpSolution(
        primal_value=primal_value,
        g_tilde=HermitianOperator(g_tilde),
        x_certificate=HermitianOperator(x),
        dual_value=dual.value,
        dual_coeffs=dual.coeffs,
        gap=dual.value - primal_value,
        iterations=dual.iterations,
        duality_measure=dual.duality_measure,
        certified=_certifies(dual.value, primal_value, scale),
        stop=dual.stop,
    )
