"""The d^2-coordinate primal barrier that the read-off from the dual's path replaced.

Kept verbatim as the reference for ``test_primal_readoff.py``: an
equality-constrained Newton method on the log-det barrier of the primal SDP
in real coordinates of Herm(d), with its own Hermitian basis, KKT system and
backtracking line search, warm-started at the constructive-bound states.
Its dual side calls the package's ``solve_dual``.  Two edits: the default
``tol``, which read ``TOL.sdp`` (1e-8) before that field was deleted, and the
``solve_dual`` call, which passed ``tol=min(tol * 0.1, 1e-9)`` and
``target=primal_value`` before those arguments were deleted.  Neither moved
the dual's path or value, so ``gap`` is as it was; ``certified`` now only
records that the dual's path reached its end.
"""
from __future__ import annotations

import numpy as np

from dressedmet.errors import NumericalError
from dressedmet.operators import HermitianOperator, dagger
from dressedmet.sdp import SdpProblem, SdpSolution, constructive_bound, solve_dual


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


def solve_primal(problem: SdpProblem, tol: float = 1e-8) -> SdpSolution:
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

    dual = solve_dual(problem)
    gap = dual.value - primal_value
    return SdpSolution(
        primal_value=primal_value,
        g_tilde=HermitianOperator(g_tilde),
        x_certificate=HermitianOperator(x_mat),
        dual_value=dual.value,
        dual_coeffs=dual.coeffs,
        gap=gap,
        iterations=newton_steps,
        duality_measure=mu * nu * scale,
        certified=bool(dual.certified),
    )
