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
* :func:`solve_dual` - Polyak-style subgradient descent on the dual objective
  ``2 min_c ||G - sum_k c_k C_k||_op`` (an upper bound for every ``c``).

The dual solver deliberately shares no machinery with the interior-point
method so the two sides of the sandwich fail independently.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
# dual: subgradient descent on c -> 2 ||g - sum_k c_k C_k||_op
# ---------------------------------------------------------------------------

def _dual_objective(c: np.ndarray, g: np.ndarray, cons: Sequence[np.ndarray]):
    m = g - sum(ck * Ck for ck, Ck in zip(c, cons))
    vals, vecs = np.linalg.eigh(m)
    f = 2.0 * float(np.abs(vals).max())
    return f, vals, vecs


def _min_norm_point(points: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Min-norm point of the convex hull of the rows (Wolfe's algorithm).

    Plain Frank-Wolfe converges too slowly here: the directions feed a line
    search whose descent guarantee needs the hull optimality inequality
    ``<p, x> >= <x, x>`` to hold tightly for every row ``p``.  Wolfe's corral
    scheme reaches that exactly in finitely many minor cycles, and the systems
    involved stay tiny (rows = near-active eigenvalue branches).
    """
    norms = np.einsum("ij,ij->i", points, points)
    scale2 = float(norms.max())
    if scale2 <= 0.0:
        return points[0] * 0.0
    corral = [int(np.argmin(norms))]
    w = np.array([1.0])
    x = points[corral[0]].copy()
    for _ in range(16 * len(points) + 64):
        scores = points @ x
        j = int(np.argmin(scores))
        if scores[j] >= float(x @ x) - tol * scale2 or j in corral:
            break
        corral.append(j)
        w = np.append(w, 0.0)
        while True:
            p = points[corral]
            k = len(corral)
            # affine min-norm point over the corral via its KKT system
            a = np.zeros((k + 1, k + 1))
            a[:k, :k] = p @ p.T
            a[:k, k] = 1.0
            a[k, :k] = 1.0
            b = np.zeros(k + 1)
            b[k] = 1.0
            v = np.linalg.lstsq(a, b, rcond=None)[0][:k]
            if np.all(v > 1e-12):
                w, x = v, v @ p
                break
            diff = w - v
            mask = diff > 1e-15
            if not np.any(mask):
                w, x = v, v @ p
                break
            theta = min(1.0, float(np.min(w[mask] / diff[mask])))
            w = (1.0 - theta) * w + theta * v
            keep = w > 1e-12
            if keep.all():
                keep[int(np.argmin(w))] = False
            corral = [ci for ci, kf in zip(corral, keep) if kf]
            w = w[keep]
            total = w.sum()
            if total <= 0.0 or not corral:
                return x
            w = w / total
            x = w @ points[corral]
    return x


def _steepest_subgradient(
    vals: np.ndarray,
    vecs: np.ndarray,
    cons: Sequence[np.ndarray],
    f: float,
    window: float,
) -> np.ndarray:
    """Minimum-norm element of the near-active subdifferential.

    Eigenvalues with ``2|lam| >= f - window`` mark the near-active branches of
    the objective.  The subdifferential there is generated by arbitrary density
    matrices on the near-top and near-bottom eigenspaces, so when those spaces
    are (near) degenerate the per-eigenvector subgradients alone miss the
    coherent directions; a fully corrective Frank-Wolfe loop fixes that by
    asking an exact linear oracle (extreme eigenvector of the direction matrix
    projected onto each eigenspace) for better rank-one vertices until none
    improves the current min-norm point.
    """
    thresh = f - window
    plus = [i for i, lam in enumerate(vals) if lam >= 0 and 2.0 * lam >= thresh]
    minus = [i for i, lam in enumerate(vals) if lam < 0 and -2.0 * lam >= thresh]
    vp = vecs[:, plus] if plus else None
    vm = vecs[:, minus] if minus else None

    def vertex(w: np.ndarray, sign: float) -> np.ndarray:
        return np.array(
            [-2.0 * sign * float((w.conj() @ (Ck @ w)).real) for Ck in cons]
        )

    stack = np.stack(
        [vertex(vecs[:, i], 1.0) for i in plus]
        + [vertex(vecs[:, i], -1.0) for i in minus]
    )
    d = _min_norm_point(stack)
    for _ in range(12):
        dmat = sum(dk * Ck for dk, Ck in zip(d, cons))
        best = None
        if vp is not None:
            sub = vp.conj().T @ dmat @ vp
            w = vp @ np.linalg.eigh(sub)[1][:, -1]
            cand = vertex(w, 1.0)
            score = float(cand @ d)
            if best is None or score < best[0]:
                best = (score, cand)
        if vm is not None:
            sub = vm.conj().T @ dmat @ vm
            w = vm @ np.linalg.eigh(sub)[1][:, 0]
            cand = vertex(w, -1.0)
            score = float(cand @ d)
            if best is None or score < best[0]:
                best = (score, cand)
        nrm2 = float(d @ d)
        if best is None or best[0] >= nrm2 - 1e-15 * max(1.0, nrm2):
            break
        stack = np.vstack([stack, best[1]])
        d = _min_norm_point(stack)
    return d


def solve_dual(
    problem: SdpProblem,
    tol: float = 1e-8,
    *,
    target: Optional[float] = None,
    max_iter: int = 20000,
    cert_tol: float = 1e-6,
) -> DualSolution:
    """Minimize the dual objective by line-searched subgradient descent.

    Every iterate yields a valid upper bound ``2 ||g - sum c_k C_k||_op``; the
    method is monotone, so the last iterate is also the best.  The descent
    direction is the min-norm element of the eps-active subdifferential, where
    the window ``eps`` adapts to the progress actually made: a step that gains
    less than ``eps / 4`` halves the window (branches further apart than the
    gain do not belong in the tradeoff), a strong step grows it back.  Each
    step starts from a capped Polyak length and backtracks, then extends, until
    the objective drops.  Stops once the value reaches ``target`` (a known
    lower bound, e.g. a primal value) within ``tol``, once the window is at
    tolerance scale with a vanishing direction (zero in the eps-active
    subdifferential puts the value within ``eps`` of optimal), once no
    representable step improves, or at ``max_iter``.  ``certified`` records
    evidence of optimality: the best value landed within ``cert_tol`` of
    ``target`` (both relative to the operator scale of ``g``), or descent
    stalled only at tolerance scale.
    """
    g = problem.g
    cons = problem.constraints
    scale = float(np.linalg.norm(np.linalg.eigvalsh(g), np.inf))
    if scale == 0.0:
        return DualSolution(0.0, np.zeros(len(cons)), 0, True)
    gn = g / scale
    tgt = None if target is None else max(0.0, target / scale)
    tol_n = max(tol / scale, 1e-15)

    # warm start: Frobenius least-squares projection onto the constraint span
    # (exact optimum whenever g lies in the span), then the identity shift that
    # centers the residual spectrum, which is optimal along that direction
    gram = np.array([[np.trace(a.conj().T @ b).real for b in cons] for a in cons])
    rhs = np.array([np.trace(a.conj().T @ gn).real for a in cons])
    c = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    vals = np.linalg.eigvalsh(gn - sum(ck * mk for ck, mk in zip(c, cons)))
    c[0] += 0.5 * (vals[-1] + vals[0])

    f, vals, vecs = _dual_objective(c, gn, cons)
    f_best, c_best = f, c.copy()
    it = 0
    certified = False
    eps = 0.25 * f_best
    eps_floor = max(tol_n, 1e-15)
    eps_cert = max(10.0 * tol_n, 1e-14)

    def descend(f_cur, d, nrm, t0):
        """Backtrack along -d to the first improving step, then extend it."""
        t = t0
        hit = None
        while t * nrm > 1e-17:
            trial = _dual_objective(c - t * d, gn, cons)
            if trial[0] < f_cur - 1e-16:
                hit = (t, trial)
                break
            t *= 0.5
        if hit is None:
            return None
        t, (f_t, va, ve) = hit
        for _ in range(8):
            trial = _dual_objective(c - 2.0 * t * d, gn, cons)
            if trial[0] >= f_t - 1e-16:
                break
            t *= 2.0
            f_t, va, ve = trial
        return c - t * d, f_t, va, ve

    for it in range(1, max_iter + 1):
        if tgt is not None and f - tgt <= tol_n:
            certified = True
            break
        d = _steepest_subgradient(vals, vecs, cons, f, eps)
        nrm2 = float(d @ d)
        if nrm2 < 1e-24:
            # zero in the eps-active subdifferential: f is within eps of the
            # optimum, which certifies at tolerance scale and otherwise only
            # says the window is too wide to resolve a direction
            if eps <= eps_cert:
                certified = True
                break
            eps = max(0.5 * eps, eps_floor)
            continue
        nrm = float(np.sqrt(nrm2))
        lead = max(eps, 10 * tol_n, 0.0 if tgt is None else f - tgt)
        # Polyak length capped at an O(1) move: the optimum lives at O(1) in
        # normalized coordinates and the extension phase can grow back
        t0 = min(lead / nrm2, 2.0 / nrm)
        moved = descend(f, d, nrm, t0)
        if moved is None:
            if eps <= eps_floor:
                # no representable improving step along the tightest direction;
                # a stall is not a certificate, so stop without one and let the
                # final target comparison judge the Polyak mode
                break
            eps = max(0.5 * eps, eps_floor)
            continue
        gain = f - moved[1]
        c, f, vals, vecs = moved
        f_best, c_best = f, c.copy()
        if gain < 0.25 * eps:
            eps = max(0.5 * eps, eps_floor)
        else:
            eps = min(2.0 * eps, 0.5 * f_best)
    if tgt is not None and f_best - tgt <= max(10 * tol_n, cert_tol):
        certified = True
    return DualSolution(f_best * scale, c_best * scale, it, certified)


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

    # orthonormal basis for the row space of the equality constraints
    rows = np.stack([_coords(c, basis) for c in cons])
    q, r = np.linalg.qr(rows.T)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.max(np.abs(rows))))
    a_eq = q.T[keep]

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
