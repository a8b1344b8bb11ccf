"""Certified optimization of the code-signal objective.

The primal semidefinite program maximizes ``tr(G Gt)`` over Hermitian ``Gt``
subject to ``tr(Gt) = 0``, ``tr(A_k Gt) = 0`` for every coupling, and a trace
norm bound ``tr|Gt| <= 2`` expressed through an auxiliary matrix ``X`` with
``-X <= Gt <= X`` (in the PSD order) and ``tr(X) <= 2``.  Its optimum equals
the largest signal gap achievable by a protected code pair, and three
independent computations bracket it:

* :func:`constructive_bound` - the closed-form feasible value
  ``2 tr(P^2) / tr|P|`` from the span-orthogonal component ``P`` of ``G``
  (a lower bound, tight at the optimum's support structure);
* :func:`solve_primal` - a self-contained log-det barrier interior-point
  method (a certified lower bound up to the duality measure);
* :func:`solve_dual` - the dual objective ``2 min_c ||G - sum_k c_k C_k||_op``
  (an upper bound for every ``c``), minimized as the eigenvalue problem
  ``min t`` subject to ``-tI <= G - sum_k c_k C_k <= tI`` by Newton steps on
  its own log-det barrier in the ``k + 2`` variables ``(c, t)``.

The dual solver deliberately shares no machinery with the interior-point
method so the two sides of the sandwich fail independently: it works in its
own variables and basis, and its value is always re-read from one
eigendecomposition at the coefficients it returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .criteria import linear_span_condition
from .errors import NumericalError, ValidationError
from .operators import HermitianOperator, as_matrix, dagger, positive_negative_split
from .tolerances import TOL, Tolerances

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
        for m in mats:
            if m.shape != gm.shape:
                raise ValidationError("constraints must match the generator dimension")
            if np.max(np.abs(m - dagger(m))) > 1e-10 * max(1.0, np.max(np.abs(m))):
                raise ValidationError("constraints must be Hermitian")
        object.__setattr__(self, "g", gm)
        object.__setattr__(self, "constraints", mats)

    @classmethod
    def from_couplings(cls, g, couplings) -> "SdpProblem":
        gm = as_matrix(g)
        return cls(gm, tuple([np.eye(gm.shape[0], dtype=complex)] + [as_matrix(a) for a in couplings]))

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
    value: float
    coeffs: np.ndarray
    iterations: int
    certified: bool


@dataclass(frozen=True, eq=False)
class SdpSolution:
    primal_value: float
    g_tilde: HermitianOperator
    x_certificate: HermitianOperator
    dual_value: float
    dual_coeffs: np.ndarray
    gap: float
    iterations: int
    dual_iterations: int
    duality_measure: float
    certified: bool

    def to_json_dict(self) -> dict:
        from .jsonio import operator_to_json

        return {
            "primal_value": self.primal_value,
            "g_tilde": operator_to_json(self.g_tilde),
            "x_certificate": operator_to_json(self.x_certificate),
            "dual_value": self.dual_value,
            "dual_coeffs": [float(c) for c in self.dual_coeffs],
            "gap": self.gap,
            "iterations": self.iterations,
            "dual_iterations": self.dual_iterations,
            "duality_measure": self.duality_measure,
            "certified": self.certified,
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


def solve_dual(
    problem: SdpProblem,
    tol: float = 1e-8,
    *,
    target: Optional[float] = None,
    max_iter: int = 20000,
    cert_tol: float = 1e-6,
) -> DualSolution:
    """Minimize the dual objective ``2 ||g - sum c_k C_k||_op`` by a barrier method.

    With ``g`` scaled to unit operator norm and ``M(c) = g - sum_j c_j B_j``
    over an orthonormal Hermitian basis ``B_j`` of the constraint span, the
    solver follows the central path of ``min t`` subject to
    ``-tI <= M(c) <= tI``: Newton steps on
    ``t - mu (log det(tI - M) + log det(tI + M))`` over the ``k + 2``
    variables ``(c, t)``, each from one eigendecomposition of ``M``, with an
    Armijo backtrack that reads a step leaving the interior as ``+inf``.
    ``mu`` starts at 0.1 and shrinks 5x once the Newton decrement is at
    ``1e-3 mu`` scale, until the duality measure ``2 d mu`` is below 1e-11.
    Generators inside the span stop at their least-squares projection.

    Whatever the iterate, the value is one ``eigvalsh`` of
    ``g - sum c_k C_k`` at the returned coefficients, mapped back onto
    ``problem.constraints``, so it is a valid upper bound by weak duality.
    ``iterations`` counts Newton steps, capped by ``max_iter``.
    ``certified`` records evidence of optimality.  Given ``target`` (a known
    lower bound, e.g. a primal value), it means the value landed within
    ``max(10 tol, cert_tol)`` of it on either side, relative to the operator
    scale of ``g``: a target above the value beyond that window is no lower
    bound at all.  Without ``target`` it means the central path was followed
    to its end.
    """
    g = problem.g
    cons = np.array(problem.constraints)
    dim = problem.dim
    scale = float(np.linalg.norm(np.linalg.eigvalsh(g), np.inf))
    if scale == 0.0:
        return DualSolution(0.0, np.zeros(len(cons)), 0, True)
    gn = g / scale
    tol_n = max(tol / scale, 1e-15)

    # orthonormal basis of span_R{C_k} in real coordinates; dropping the
    # dependent directions keeps the Newton system nonsingular, and the
    # rows' SVD maps basis coefficients y back by the least-squares
    # solution x = U S^-1 y of sum x_k C_k = sum y_j B_j
    flat = cons.reshape(len(cons), -1)
    u, s, vt = np.linalg.svd(np.concatenate([flat.real, flat.imag], axis=1), full_matrices=False)
    keep = s > 1e-12 * s[0]
    to_cons = u[:, keep] / s[keep]
    n = dim * dim
    flat_basis = vt[keep, :n] + 1j * vt[keep, n:]
    basis = flat_basis.reshape(-1, dim, dim)

    def value(y):
        coeffs = to_cons @ y
        m = gn - np.tensordot(coeffs, cons, axes=1)
        return 2.0 * float(np.abs(np.linalg.eigvalsh(m)).max()), coeffs

    def result(y, steps, done):
        f, coeffs = value(y)
        if target is not None:
            done = abs(f - max(0.0, target / scale)) <= max(10 * tol_n, cert_tol)
        return DualSolution(f * scale, coeffs * scale, steps, bool(done))

    # the least-squares projection onto the span is optimal when g lies in it
    y = vt[keep, :n] @ gn.real.ravel() + vt[keep, n:] @ gn.imag.ravel()
    if value(y)[0] <= tol_n:
        return result(y, 0, True)

    def spectrum(yy, tt):
        """Eigenpairs of M(yy) and log det(tI - M) + log det(tI + M), -inf outside."""
        lam, vecs = np.linalg.eigh(gn - (yy @ flat_basis).reshape(dim, dim))
        if tt <= np.abs(lam).max():
            return -np.inf, lam, vecs
        return float(np.log(tt - lam).sum() + np.log(tt + lam).sum()), lam, vecs

    # ||g||_op = 1 puts the start strictly inside the feasible cone
    y = np.zeros(len(basis))
    t = 1.5 + 1e-3
    mu = 0.1
    logdet, lam, vecs = spectrum(y, t)
    for steps in range(1, max_iter + 1):
        # gradient and negated Hessian of the log-det term, in M's eigenbasis
        wa, wb = 1.0 / (t - lam), 1.0 / (t + lam)
        yb = vecs.conj().T @ basis @ vecs
        diag = np.einsum("jaa->ja", yb).real
        yf = yb.reshape(len(basis), -1)
        hess = np.empty((len(basis) + 1, len(basis) + 1))
        hess[:-1, :-1] = ((yf * (wa[:, None] * wa + wb[:, None] * wb).ravel()) @ yf.conj().T).real
        hess[:-1, -1] = hess[-1, :-1] = diag @ (wa * wa - wb * wb)
        hess[-1, -1] = float((wa * wa + wb * wb).sum())
        dlog = np.append(diag @ (wa - wb), (wa + wb).sum())
        while True:
            grad = -mu * dlog
            grad[-1] += 1.0
            step = -np.linalg.solve(mu * hess, grad)
            slope = float(grad @ step)
            if -slope / 2.0 > 1e-3 * mu:
                break
            if 2 * dim * mu < 1e-11:
                return result(y, steps, True)
            mu /= 5.0
        phi = t - mu * logdet
        alpha = 1.0
        while alpha > 1e-12:
            trial = spectrum(y + alpha * step[:-1], t + alpha * step[-1])
            if t + alpha * step[-1] - mu * trial[0] <= phi + 0.25 * alpha * slope:
                break
            alpha *= 0.5
        else:
            # no representable decrease along the Newton direction: the
            # centering has hit the rounding floor before the path's end
            return result(y, steps, False)
        y, t = y + alpha * step[:-1], t + alpha * step[-1]
        logdet, lam, vecs = trial
    return result(y, max_iter, False)


# ---------------------------------------------------------------------------
# primal: equality-constrained Newton on the log-det barrier
# ---------------------------------------------------------------------------

_BASIS_CACHE: dict[int, np.ndarray] = {}


def _herm_basis(dim: int) -> np.ndarray:
    """Stack of d^2 orthonormal Hermitian matrices (real coordinates for Herm(d))."""
    cached = _BASIS_CACHE.get(dim)
    if cached is not None:
        return cached
    mats = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        mats.append(e)
    r = 1.0 / np.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = r
            e[j, i] = r
            mats.append(e)
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1j * r
            e[j, i] = -1j * r
            mats.append(e)
    stack = np.stack(mats)
    stack.setflags(write=False)
    _BASIS_CACHE[dim] = stack
    return stack


def _coords(m: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.einsum("kij,ji->k", basis, m).real


def _mat(u: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.einsum("k,kij->ij", u, basis)


def _logdet_pd(s: np.ndarray) -> float:
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return -np.inf
    return 2.0 * float(np.sum(np.log(np.diag(chol).real)))


def _barrier_hessian(inv_s: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """K_ij = tr(s^-1 B_i s^-1 B_j) for the Hermitian coordinate basis."""
    w = inv_s[None, :, :] @ basis
    return np.einsum("iab,jba->ij", w, w).real


def _max_step(s: np.ndarray, ds: np.ndarray) -> float:
    """Largest t with s + t*ds still PSD (inf if unbounded)."""
    chol = np.linalg.cholesky(s)
    y = np.linalg.solve(chol, ds)
    m = np.linalg.solve(chol, y.conj().T).conj().T
    m = (m + m.conj().T) / 2.0
    lam_min = float(np.linalg.eigvalsh(m)[0])
    return np.inf if lam_min >= -1e-16 else -1.0 / lam_min


def solve_primal(problem: SdpProblem, tol: float = TOL.sdp) -> SdpSolution:
    """Interior-point solve of the primal SDP plus the independent dual bound.

    Newton steps on the log-det barrier with backtracking line search; the
    barrier parameter starts at 1 and shrinks geometrically by 5x until the
    duality measure ``mu * (2 dim + 1)`` drops below ``tol``.  The iterate is
    warm-started at the constructive-bound states.  The returned solution
    carries the independently computed dual value and their gap.
    """
    g = problem.g
    cons = problem.constraints
    dim = problem.dim
    n = dim * dim
    basis = _herm_basis(dim)

    scale = float(np.linalg.norm(np.linalg.eigvalsh(g), np.inf))
    couplings = [np.asarray(c) for c in cons[1:]]
    bound = constructive_bound(g, couplings)

    if scale == 0.0:
        gt = HermitianOperator(np.zeros((dim, dim), dtype=complex))
        x = HermitianOperator(np.eye(dim, dtype=complex) / dim)
        return SdpSolution(0.0, gt, x, 0.0, np.zeros(len(cons)), 0.0, 0, 0, 0.0, True)

    gn = g / scale
    gvec = _coords(gn, basis)
    tau = _coords(np.eye(dim, dtype=complex), basis)

    # orthonormal basis for the row space of the equality constraints; an
    # unpivoted QR would drop the direction of a later constraint along the
    # arbitrary column it makes up for a dependent one, so use the SVD
    rows = np.stack([_coords(c, basis) for c in cons])
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    a_eq = vt[sv > 1e-12 * max(1.0, float(np.max(np.abs(rows))))]

    # strictly feasible warm start
    if bound.weight > 1e-12:
        shrink = 0.8
        g0 = shrink * (bound.rho1 - bound.rho0)
        eps = (2.0 - 2.0 * shrink) / (2.0 * dim)
        x0 = shrink * (bound.rho1 + bound.rho0) + eps * np.eye(dim)
    else:
        g0 = np.zeros((dim, dim), dtype=complex)
        x0 = np.eye(dim, dtype=complex) / dim
    u = _coords(g0, basis)
    u -= a_eq.T @ (a_eq @ u)
    v = _coords(x0, basis)

    nu = 2 * dim + 1  # total barrier degree
    mu = 1.0
    newton_steps = 0
    n_eq = a_eq.shape[0]

    def barrier_value(uu, vv, m):
        s_plus = _mat(vv + uu, basis)
        s_minus = _mat(vv - uu, basis)
        s3 = 2.0 - float(tau @ vv)
        if s3 <= 0:
            return np.inf
        ld_p = _logdet_pd(s_plus)
        ld_m = _logdet_pd(s_minus)
        if not np.isfinite(ld_p) or not np.isfinite(ld_m):
            return np.inf
        return -float(gvec @ uu) - m * (ld_p + ld_m + np.log(s3))

    while True:
        stalls = 0
        for _ in range(80):
            s_plus = _mat(v + u, basis)
            s_minus = _mat(v - u, basis)
            s3 = 2.0 - float(tau @ v)
            inv_p = np.linalg.inv(s_plus)
            inv_m = np.linalg.inv(s_minus)
            cp = _coords((inv_p + dagger(inv_p)) / 2, basis)
            cm = _coords((inv_m + dagger(inv_m)) / 2, basis)
            grad_u = -gvec - mu * (cp - cm)
            grad_v = -mu * (cp + cm) + mu * tau / s3
            k_p = _barrier_hessian(inv_p, basis)
            k_m = _barrier_hessian(inv_m, basis)
            h_uu = mu * (k_p + k_m)
            h_uv = mu * (k_p - k_m)
            h_vv = mu * (k_p + k_m) + mu * np.outer(tau, tau) / (s3 * s3)

            kkt = np.zeros((2 * n + n_eq, 2 * n + n_eq))
            kkt[:n, :n] = h_uu
            kkt[:n, n : 2 * n] = h_uv
            kkt[n : 2 * n, :n] = h_uv.T
            kkt[n : 2 * n, n : 2 * n] = h_vv
            kkt[:n, 2 * n :] = a_eq.T
            kkt[2 * n :, :n] = a_eq
            rhs = np.concatenate([-grad_u, -grad_v, np.zeros(n_eq)])
            # near a degenerate optimum the barrier Hessian spans ~1e18 in
            # scale and LU sees an exactly singular system; restrict the
            # step to the numerically determined subspace in that case and
            # let the decrement test decide whether centering is done
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(kkt, rhs, rcond=1e-13)[0]
            if not np.all(np.isfinite(sol)):
                sol = np.linalg.lstsq(kkt, rhs, rcond=1e-13)[0]
            du, dv = sol[:n], sol[n : 2 * n]
            newton_steps += 1

            decrement2 = -(grad_u @ du + grad_v @ dv)
            if decrement2 / 2.0 <= max(1e-14, 1e-3 * mu):
                break

            d_plus = _mat(dv + du, basis)
            d_minus = _mat(dv - du, basis)
            alpha = min(1.0, 0.99 * _max_step(s_plus, d_plus), 0.99 * _max_step(s_minus, d_minus))
            ds3 = -float(tau @ dv)
            if ds3 < 0:
                alpha = min(alpha, 0.99 * s3 / (-ds3))
            f0 = barrier_value(u, v, mu)
            slope = grad_u @ du + grad_v @ dv
            ok = False
            for _ in range(60):
                f_trial = barrier_value(u + alpha * du, v + alpha * dv, mu)
                if f_trial <= f0 + 0.25 * alpha * slope:
                    ok = True
                    break
                alpha *= 0.5
            if not ok:
                raise NumericalError(
                    f"interior-point line search failed at mu={mu:.3e} "
                    f"(decrement^2={decrement2:.3e}); problem may be ill-conditioned"
                )
            u = u + alpha * du
            v = v + alpha * dv
            # on degenerate problems the decrement bottoms out at its
            # rounding floor while the barrier is already minimized to float
            # resolution; two consecutive unmeasurable improvements mean
            # further centering cannot move the iterate
            if f0 - f_trial <= 1e-14 * max(1.0, abs(f0)):
                stalls += 1
                if stalls >= 2:
                    break
            else:
                stalls = 0
        else:
            raise NumericalError(f"Newton centering did not converge at mu={mu:.3e}")

        if mu * nu < tol:
            break
        mu /= 5.0

    g_tilde = _mat(u, basis)
    x_mat = _mat(v, basis)
    primal_value = float(np.trace(g @ g_tilde).real)

    dual = solve_dual(problem, tol=min(tol * 0.1, 1e-9), target=primal_value)
    gap = dual.value - primal_value
    return SdpSolution(
        primal_value=primal_value,
        g_tilde=HermitianOperator(g_tilde),
        x_certificate=HermitianOperator(x_mat),
        dual_value=dual.value,
        dual_coeffs=dual.coeffs,
        gap=gap,
        iterations=newton_steps,
        dual_iterations=dual.iterations,
        duality_measure=mu * nu * scale,
        certified=bool(dual.certified),
    )
