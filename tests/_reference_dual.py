"""The subgradient dual solver that the Newton barrier dual replaced.

Kept verbatim as the reference for ``test_dual_newton.py``: Polyak-style
subgradient descent on ``2 min_c ||G - sum_k c_k C_k||_op`` with a min-norm
eps-subgradient direction (Wolfe's algorithm plus an exact linear oracle on
the near-active eigenspaces).  Every iterate is a valid upper bound, so the
new solver's value must never sit above this one's.  One edit: the two
returns pass ``"path_end"`` or ``"max_steps"`` where they passed the boolean
``certified``, since ``DualSolution`` names its exit and derives
``certified`` from it.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from dressedmet.sdp import DualSolution, SdpProblem


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
        return DualSolution(0.0, np.zeros(len(cons)), 0, "path_end")
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
    return DualSolution(f_best * scale, c_best * scale, it, "path_end" if certified else "max_steps")
