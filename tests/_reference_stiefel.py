"""The Stiefel search kernel and objectives before the leaner descent step.

Kept verbatim as the reference for ``test_stiefel.py``: ``stiefel_minimize``
with a per-step ``np.finfo`` floor, ``np.stack`` of the three transported
vectors and two ``np.outer`` in the BFGS update; the pair-penalty and
code-search objectives with the generator in its own product, and
``_kl_deviation`` with a fresh ``np.eye(2)``.  The retraction is unchanged
and is taken from the package.
"""
from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from dressedmet.codespace import _retract
from dressedmet.criteria import error_set
from dressedmet.errors import ValidationError
from dressedmet.operators import hermitian_part


def _kl_deviation(blocks: np.ndarray) -> np.ndarray:
    """Each of stacked 2x2 blocks minus its best multiple of I."""
    mean = 0.5 * (blocks[:, 0, 0] + blocks[:, 1, 1])
    return blocks - mean[:, None, None] * np.eye(2)


def _tangent(v: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return grad - v @ hermitian_part(v.conj().T @ grad)


_ARMIJO = 1e-4  # sufficient-decrease fraction of the line search


def stiefel_minimize(
    fn: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    v0: np.ndarray,
    max_iter: int = 400,
) -> Tuple[float, np.ndarray]:
    """Riemannian BFGS on d x 2 frames (Huang, Gallivan & Absil 2015).

    ``fn`` gives the objective and its conjugate-coordinate gradient; ``g``
    is that gradient projected onto the frame's tangent space.  Steps go
    along ``-g / 2`` until a curvature pair exists, then along ``-H g``
    projected, for a dense inverse-Hessian model ``H`` on the 4d real
    coordinates (``-g / 2`` again if that does not descend); a monotone
    Armijo search halves a unit step.  Transport is by projection ``P``
    (Absil, Mahony & Sepulchre 2008, ch. 4 and 8): the pair ``s = P(v+ - v)``,
    ``y = g+ - P(g)`` updates ``H`` by BFGS from ``(s.y / y.y) I``, unless
    ``s.y <= 0``.  The descent stops at the rounding floor, a trial step
    whose predicted decrease ``-step g.p / 2`` is at most ``16 eps max(1,
    |f|)`` (a zero tangent gradient meets it at once), or after ``max_iter``
    accepted steps.  Each accepted step lowers the value, so the last frame
    is the lowest visited.
    """
    v = np.asarray(v0, dtype=complex)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValidationError(f"expected a d x 2 frame, got shape {v.shape}")
    v = _retract(v)
    f, grad = fn(v)
    gt, h = _tangent(v, grad), None
    for _ in range(max_iter):
        g = gt.view(float).ravel()
        p = -0.5 * gt if h is None else _tangent(v, (h @ -g).view(complex).reshape(v.shape))
        slope = float(p.view(float).ravel() @ g)
        if not slope < 0.0:  # a model gone indefinite in rounding
            p, slope = -0.5 * gt, -0.5 * float(g @ g)
        floor, step = 16.0 * np.finfo(float).eps * max(1.0, abs(f)), 1.0
        while -0.5 * step * slope > floor:
            cand = _retract(v + step * p)
            f_new, grad_new = fn(cand)
            if f_new <= f + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        # the new gradient, the old one and the step, transported to cand
        gt_new, gt_old, moved = _tangent(cand, np.stack([grad_new, gt, cand - v]))
        s, y = moved.view(float).ravel(), (gt_new - gt_old).view(float).ravel()
        v, f, gt, sy = cand, f_new, gt_new, float(s @ y)
        if sy > 0.0:
            if h is None:
                h = (sy / float(y @ y)) * np.eye(len(s))
            hy = h @ y
            z = (0.5 * (1.0 + float(y @ hy) / sy) * s - hy) / sy
            h += np.outer(z, s) + np.outer(s, z)
    return f, v



def _pair_penalty_terms(mats: Sequence[np.ndarray]):
    """Objective and gradient of the protected-pair penalty for Hermitian mats.

    penalty = sum over couplings of (diagonal mismatch)^2 + 2 |cross element|^2;
    zero exactly when every coupling acts as a multiple of identity plus a
    detuning-free block on the pair.  The couplings are stacked into one
    (k*d, d) array, so an evaluation is one matmul for all of them.
    """
    stack = np.asarray(mats, dtype=complex)

    def fn(v: np.ndarray) -> Tuple[float, np.ndarray]:
        d = v.shape[0]
        av = (stack.reshape(-1, d) @ v).reshape(-1, d, 2)
        block = v.conj().T @ av
        z = (block[:, 0, 0] - block[:, 1, 1]).real
        g01 = block[:, 0, 1]
        k = np.empty_like(block)
        k[:, 0, 0], k[:, 0, 1], k[:, 1, 0], k[:, 1, 1] = z, g01, g01.conj(), -z
        f = float(z @ z + 2.0 * np.vdot(g01, g01).real)
        return f, 2.0 * (av @ k).sum(axis=0)

    return fn



def _quadratic_search_terms(
    gmat: np.ndarray, mats: Sequence[np.ndarray], weight: float
):
    """Objective for the correctable-code refinement search.

    Minimizes the Knill-Laflamme block deviation of the couplings and all
    pair products, minus ``weight`` times the signal, so the search is pulled
    toward correctable pairs that still see the generator.
    """
    d = gmat.shape[0]
    errs = error_set(mats, d)
    # each matrix above its adjoint: one matmul gives M v and M^H v for all
    stack = np.stack([errs, errs.conj().transpose(0, 2, 1)], axis=1)
    stack = stack.reshape(-1, d)
    signs = np.array([-1.0, 1.0])

    def fn(v: np.ndarray) -> Tuple[float, np.ndarray]:
        w = (stack @ v).reshape(-1, 2, d, 2)
        # deviation D of each block from its best multiple of identity:
        # f = sum |D|_F^2, gradient = sum M v D^H + M^H v D
        dev = _kl_deviation(v.conj().T @ w[:, 0])
        f = float(np.vdot(dev, dev).real)
        grad = (w[:, 0] @ dev.conj().transpose(0, 2, 1) + w[:, 1] @ dev).sum(axis=0)
        gv = gmat @ v
        signal = np.vdot(v[:, 1], gv[:, 1]).real - np.vdot(v[:, 0], gv[:, 0]).real
        return f - weight * signal, grad - weight * (gv * signs)

    return fn

