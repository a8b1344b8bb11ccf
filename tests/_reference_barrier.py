"""The short-step barrier dual that the long-step path replaced.

Kept verbatim as the reference for ``test_dual_newton.py``: the same Newton
barrier on ``(c, t)`` as ``sdp.solve_dual``, with ``mu`` cut 5x per level and
the centering test ``-slope / 2 > 1e-3 mu`` alone.  Two edits: where it
passed ``bool(done)`` or ``True`` as ``DualSolution.certified``, it passes
the name of the exit as ``stop``, since ``DualSolution`` now names its exit.
"""
from __future__ import annotations

import itertools

import numpy as np

from dressedmet.sdp import DualSolution, SdpProblem


# Newton steps after which the path is abandoned uncertified; a safeguard
# only, the path ends within a hundred steps on the instances tried
_MAX_STEPS = 20000


def solve_dual(problem: SdpProblem) -> DualSolution:
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
    Generators inside the span, to 1e-12 of their own scale, stop at their
    least-squares projection.

    Whatever the iterate, the value is one ``eigvalsh`` of
    ``g - sum c_k C_k`` at the returned coefficients, mapped back onto
    ``problem.constraints``, so it is a valid upper bound by weak duality.
    ``iterations`` counts Newton steps, capped by ``_MAX_STEPS``, and
    ``certified`` means the central path was followed to its end.

    Where the path stops, the primal point ``g_tilde`` is read off its last
    center ``(y, t, mu)``: the barrier's multipliers ``Z+- = mu S+-^-1`` of
    ``S+- = tI -+ M``, linearized along the Newton step ``(dy, dt)`` just
    computed there, are ``mu (S^-1 - S^-1 dS S^-1)`` with
    ``dS+- = dt I -+ dM``; ``W = Z+ - Z-`` projected off the ``B_j`` and
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

    def result(y, steps, done, g_tilde=zero, mu=0.0):
        f, coeffs = value(y)
        stop = "path_end" if done else "max_steps" if steps >= _MAX_STEPS else "rounding_floor"
        return DualSolution(f * scale, coeffs * scale, steps, stop, g_tilde,
                            2 * dim * mu * scale)

    # the least-squares projection onto the span is optimal when g lies in
    # it, to the rounding at which dependent constraint directions drop; the
    # test is relative, so that a small g keeps its primal point
    y = vt[keep, :n] @ gn.real.ravel() + vt[keep, n:] @ gn.imag.ravel()
    if value(y)[0] <= 1e-12:
        return result(y, 0, True)

    def spectrum(yy, tt):
        """Eigenpairs of M(yy) and log det(tI - M) + log det(tI + M), -inf outside."""
        lam, vecs = np.linalg.eigh(gn - (yy @ flat_basis).reshape(dim, dim))
        if tt <= np.abs(lam).max():
            return -np.inf, lam, vecs
        return float(np.log(tt - lam).sum() + np.log(tt + lam).sum()), lam, vecs

    def primal(wa, wb, vecs, yb, step):
        """Gt from W = Z+ - Z- along ``step``, formed in M's eigenbasis; mu cancels."""
        dm = -np.tensordot(step[:-1], yb, axes=1)
        w = (np.outer(wa, wa) + np.outer(wb, wb)) * dm
        w[np.diag_indices(dim)] += wa - wb - step[-1] * (wa * wa - wb * wb)
        w = vecs @ w @ vecs.conj().T
        w = (w + w.conj().T) / 2.0
        w -= np.tensordot((flat_basis.conj() @ w.ravel()).real, basis, axes=1)
        return 2.0 * w / np.abs(np.linalg.eigvalsh(w)).sum()

    # ||g||_op = 1 puts the start strictly inside the feasible cone
    y = np.zeros(len(basis))
    t = 1.5 + 1e-3
    mu = 0.1
    logdet, lam, vecs = spectrum(y, t)
    for steps in itertools.count(1):
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
                return result(y, steps, True, primal(wa, wb, vecs, yb, step), mu)
            mu /= 5.0
        if steps >= _MAX_STEPS:
            return result(y, steps, False, primal(wa, wb, vecs, yb, step), mu)
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
            return result(y, steps, False, primal(wa, wb, vecs, yb, step), mu)
        y, t = y + alpha * step[:-1], t + alpha * step[-1]
        logdet, lam, vecs = trial
