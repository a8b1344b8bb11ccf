"""Code spaces: purification, condition checks, control fields, and searches.

A code space is an orthonormal pair spanning a two-dimensional sensing
subspace, possibly on system x ancilla.  This module turns optimizer output
into explicit code states, builds control Hamiltonians that isolate them
spectrally, verifies protection conditions (including Knill-Laflamme blocks),
and runs the no-protected-pair feasibility search on bare system spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .criteria import error_set
from .errors import NumericalError, ValidationError
from .jsonio import check_keys, positive_whole, state_from_json, state_to_json
from .operators import (
    HermitianOperator,
    StateVector,
    as_matrix,
    as_vector,
    eigh_fixed,
    frobenius,
    hermitian_part,
    lift,
    positive_negative_split,
    require_bounded,
    require_hermitian,
)
from .rand import stream
from .tolerances import DECOMPOSITION, RANK, ROUNDING, SPAN_DROP, TOL, Tolerances


@dataclass(frozen=True)
class CodeSpace:
    """Orthonormal pair (psi0, psi1) on a system x ancilla product space."""

    psi0: StateVector
    psi1: StateVector
    sys_dim: int
    anc_dim: int

    def __post_init__(self) -> None:
        total = self.sys_dim * self.anc_dim
        if self.psi0.dim != total or self.psi1.dim != total:
            raise ValidationError(
                f"code states have dim {self.psi0.dim}, expected "
                f"{self.sys_dim}x{self.anc_dim}={total}"
            )
        overlap = abs(np.vdot(self.psi0.amplitudes, self.psi1.amplitudes))
        if overlap > 1e-12:
            raise ValidationError(f"code states not orthogonal: overlap {overlap:.2e}")

    @property
    def total_dim(self) -> int:
        return self.sys_dim * self.anc_dim

    @property
    def frame(self) -> np.ndarray:
        """d x 2 matrix with the code states as columns."""
        return np.stack([self.psi0.amplitudes, self.psi1.amplitudes], axis=1)

    @property
    def projector(self) -> np.ndarray:
        v = self.frame
        return v @ v.conj().T

    def to_json_dict(self) -> dict:
        return {
            "psi0": state_to_json(self.psi0),
            "psi1": state_to_json(self.psi1),
            "sys_dim": self.sys_dim,
            "anc_dim": self.anc_dim,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CodeSpace":
        check_keys(obj, "code", ("psi0", "psi1", "sys_dim", "anc_dim"))
        return cls(
            *(state_from_json(obj[k]) for k in ("psi0", "psi1")),
            positive_whole(obj["sys_dim"], "code sys_dim"),
            positive_whole(obj["anc_dim"], "code anc_dim"),
        )


class ConditionReport(NamedTuple):
    """Violation magnitudes of the protection conditions plus the signal.

    ``excitation_violation`` needs the surrounding eigenstates and is None
    when no eigenbasis context was supplied, to keep an unchecked condition
    from reading as a passed one.
    """

    dephasing_violation: float
    relaxation_violation: float
    excitation_violation: Optional[float]
    kl_violation: float
    signal: float


class EffectiveGenerator(NamedTuple):
    g00: float
    g11: float
    delta: float
    var: float


def partial_trace(rho: np.ndarray, sys_dim: int, anc_dim: int) -> np.ndarray:
    """Trace out the ancilla factor of a density matrix on sys x anc."""
    rho = as_matrix(rho)
    if rho.shape != (sys_dim * anc_dim, sys_dim * anc_dim):
        raise ValidationError("density matrix does not match sys x anc dims")
    r = rho.reshape(sys_dim, anc_dim, sys_dim, anc_dim)
    return np.einsum("iaja->ij", r)


def purify_pair(
    rho0: np.ndarray, rho1: np.ndarray, tol: Tolerances = TOL
) -> CodeSpace:
    """Purify two system states on a shared ancilla with disjoint supports.

    The ancilla has dimension twice the larger rank; psi0 occupies the first
    half of the ancilla basis and psi1 the second, which makes every
    cross-matrix element of a lifted system operator vanish identically.
    """
    mats = [as_matrix(rho0), as_matrix(rho1)]
    spectra = []
    for m in mats:
        require_hermitian(m, "density matrix input", tol)
        if abs(np.trace(m).real - 1.0) > 1e-8:
            raise ValidationError("density matrix input is not unit trace")
        vals, vecs = eigh_fixed(hermitian_part(m))
        if vals.min() < -tol.psd * max(1.0, float(vals.max())):
            raise ValidationError("density matrix input is not PSD")
        keep = vals > RANK * max(vals.max(), 1e-300)
        spectra.append((vals[keep], vecs[:, keep]))
    sys_dim = mats[0].shape[0]
    rank = max(len(spectra[0][0]), len(spectra[1][0]))
    anc_dim = 2 * rank

    states = []
    for side, (vals, vecs) in enumerate(spectra):  # sqrt(p_k) |v_k> (x) |side * rank + slot>
        order = np.argsort(vals)[::-1]
        psi = np.zeros((sys_dim, anc_dim), dtype=complex)
        psi[:, side * rank:side * rank + len(order)] = np.sqrt(vals[order]) * vecs[:, order]
        states.append(StateVector(psi.reshape(-1) / np.linalg.norm(psi)))

    code = CodeSpace(states[0], states[1], sys_dim, anc_dim)
    for m, psi in zip(mats, states):
        reduced = partial_trace(np.outer(psi.amplitudes, psi.amplitudes.conj()),
                                sys_dim, anc_dim)
        if frobenius(reduced - m) > DECOMPOSITION * max(1.0, frobenius(m)):
            raise NumericalError("purification does not reproduce its marginal")
    return code


def _lift_to_code(op, code: CodeSpace) -> np.ndarray:
    """Coerce an operator to the code's total space, lifting system ones."""
    m = as_matrix(op)
    if m.shape[0] == code.total_dim:
        return m
    if m.shape[0] == code.sys_dim and code.anc_dim > 1:
        return lift(m, code.anc_dim)
    raise ValidationError(
        f"operator dim {m.shape[0]} fits neither system ({code.sys_dim}) "
        f"nor total ({code.total_dim}) space"
    )


_I2 = np.eye(2)


def _kl_deviation(blocks: np.ndarray) -> np.ndarray:
    """Each of stacked 2x2 blocks minus its best multiple of I."""
    mean = 0.5 * (blocks[:, 0, 0] + blocks[:, 1, 1])
    return blocks - mean[:, None, None] * _I2


def _code_blocks(frame: np.ndarray, mats: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Code blocks of the error set ``[A_alpha] + [A_alpha^dag A_beta]``, frame first.

    ``W_alpha = A_alpha V`` is formed once, and the blocks are ``V^dag W_alpha``
    and ``W_alpha^dag W_beta`` in :func:`.criteria.error_set` order: k
    D x D x 2 products in place of k^2 D x D ones.  Returns the stacked
    ``(k + k^2, 2, 2)`` blocks and ``W``.
    """
    dim = frame.shape[0]
    w = np.array(mats, dtype=complex).reshape(-1, dim, dim) @ frame
    pairs = w.conj().transpose(0, 2, 1)[:, None] @ w[None]
    return np.concatenate([frame.conj().T @ w, pairs.reshape(-1, 2, 2)]), w


def check_conditions(
    code: CodeSpace,
    g,
    couplings: Sequence,
    eigencontext: Optional[Sequence[StateVector]] = None,
) -> ConditionReport:
    """Evaluate all protection conditions of a code against the couplings.

    Dephasing compares diagonal coupling elements, relaxation the cross
    element, excitation the elements to states outside the code (only when
    the surrounding eigenstates are supplied).  ``kl_violation`` covers the
    couplings and their pairwise products, i.e. correctability against the
    full quadratic error set.  The couplings, Hermitian or not, and ``g``
    must pass :func:`.operators.require_bounded`.
    """
    dim = code.total_dim
    mats = np.array([_lift_to_code(a, code) for a in couplings], complex).reshape(-1, dim, dim)
    require_bounded(mats, "a coupling")
    blocks, w = _code_blocks(code.frame, mats)
    single = blocks[: len(mats)]
    dephasing = np.abs(single[:, 0, 0] - single[:, 1, 1]).max(initial=0.0)
    relaxation = np.abs(single[:, 0, 1]).max(initial=0.0)

    excitation: Optional[float] = None
    if eigencontext is not None:
        vecs = [as_vector(state) for state in eigencontext]
        if any(v.shape[0] != dim for v in vecs):
            raise ValidationError("eigencontext state dimension mismatch")
        rows = np.array(vecs).reshape(-1, dim).conj() @ w
        excitation = float(np.abs(rows).max(initial=0.0))

    kl = np.linalg.norm(_kl_deviation(blocks), axis=(1, 2)).max(initial=0.0)
    return ConditionReport(
        float(dephasing), float(relaxation), excitation, float(kl),
        effective_generator(code, g).delta,
    )


def effective_generator(code: CodeSpace, g) -> EffectiveGenerator:
    """Diagonal generator data on the code: gap and superposition variance.

    ``g`` must pass :func:`.operators.require_bounded`.
    """
    gmat = _lift_to_code(g, code)
    require_bounded(gmat, "the generator")
    block = code.frame.conj().T @ gmat @ code.frame
    g00 = float(block[0, 0].real)
    g11 = float(block[1, 1].real)
    delta = g11 - g00
    return EffectiveGenerator(g00, g11, delta, 0.25 * delta * delta)


def two_level_dressing(code: CodeSpace, nu0: float) -> HermitianOperator:
    """Two-eigenspace control ``nu0 (I - P)``: code at energy 0, complement lifted by nu0.

    Its jump set, ``jump_operators(h_c, couplings lifted to the code)``, has
    exactly the three-frequency block structure L(0), L(+-nu0) per coupling.
    """
    if nu0 <= 0:
        raise ValidationError("nu0 must be positive")
    return HermitianOperator(nu0 * (np.eye(code.total_dim) - code.projector))


# ---------------------------------------------------------------------------
# searches over orthonormal pairs (Stiefel frames)
# ---------------------------------------------------------------------------


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector by the same dot products, without its checks."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _retract(v: np.ndarray) -> np.ndarray:
    """Q factor, with positive R diagonal, of a complex d x 2 frame by Gram-Schmidt."""
    r00 = _norm(v[:, 0])
    q0 = v[:, 0] / (r00 or 1.0)
    w = v[:, 1] - q0 * np.vdot(q0, v[:, 1])
    r11 = _norm(w)
    if not (r00 > 0.0 and r11 > SPAN_DROP * _norm(v[:, 1])):
        raise NumericalError("cannot retract a rank-deficient frame")
    q = np.empty(v.shape, dtype=q0.dtype)
    q[:, 0] = q0
    np.divide(w, r11, out=q[:, 1])
    return q


def _tangent(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` projected onto the tangent space at ``v``, each d x 2 block of a d x 2k ``x``."""
    a = (v.conj().T @ x).reshape(2, -1, 2)
    return x - v @ (0.5 * (a + a.conj().transpose(2, 1, 0))).reshape(2, -1)


_SIGNAL_WEIGHT = 0.1  # signal pull of the code_search objective
_ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
# the most restarts a search takes: each makes its stream and start frame, about
# 0.9 KB and 35 us, before the first descent, so 10^5 hold about 90 MB up front
MAX_RESTARTS = 10**5


class StiefelRun(NamedTuple):
    """One descent: its last value and frame, the accepted steps, the objective
    evaluations, and the rule that stopped it, ``"rounding_floor"`` or ``"max_iter"``."""

    value: float
    frame: np.ndarray
    steps: int
    evaluations: int
    stop: str


def stiefel_minimize(
    fn: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    v0: np.ndarray,
    max_iter: int = 400,
) -> StiefelRun:
    """Riemannian BFGS on d x 2 frames (Huang, Gallivan & Absil 2015).

    ``fn`` gives the objective and its conjugate-coordinate gradient; ``g``
    is that gradient projected onto the frame's tangent space.  Steps go
    along ``-g / 2`` until a curvature pair exists, then along ``-H g``
    projected, for a dense inverse-Hessian model ``H`` on the 4d real
    coordinates (``-g / 2`` again if that does not descend); a monotone
    Armijo search halves a unit step.  Transport is by projection ``P``
    (Absil, Mahony & Sepulchre 2008, ch. 4 and 8): the pair ``s = P(v+ - v)``,
    ``y = g+ - P(g)`` updates ``H`` by BFGS from ``(s.y / y.y) I``, unless
    ``s.y <= 0``.  The new gradient, the old one and the step sit side by
    side in one d x 6 array, so one ``v+^dag X`` product projects all three,
    and the rank-two update is one outer product and its transpose.  The
    descent stops at the rounding floor, a trial step whose predicted
    decrease ``-step g.p / 2`` is at most ``16 eps max(1, |f|)``
    (``ROUNDING``; a zero tangent gradient meets it at once), or after
    ``max_iter`` accepted steps; the :class:`StiefelRun` names which.  Each
    accepted step lowers the value, so the last frame is the lowest visited.
    ``fn`` is the only access to the objective; a frame that is not d x 2 is
    a ``ValidationError``, and one that ``_retract`` cannot orthonormalize a
    ``NumericalError``.
    """
    v = np.asarray(v0, dtype=complex)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValidationError(f"expected a d x 2 frame, got shape {v.shape}")
    v = _retract(v)
    f, grad = fn(v)
    gt, h = _tangent(v, grad), None
    steps, evaluations, stop = 0, 1, "max_iter"
    while steps < max_iter:
        g = gt.view(float).ravel()
        p = -0.5 * gt if h is None else _tangent(v, (h @ -g).view(complex).reshape(v.shape))
        slope = float(p.view(float).ravel() @ g)
        if not slope < 0.0:  # a model gone indefinite in rounding
            p, slope = -0.5 * gt, -0.5 * float(g @ g)
        floor, step = ROUNDING * max(1.0, abs(f)), 1.0
        while -0.5 * step * slope > floor:
            cand = _retract(v + step * p)
            f_new, grad_new = fn(cand)
            evaluations += 1
            if f_new <= f + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            stop = "rounding_floor"
            break
        steps += 1
        # the new gradient, the old one and the step, side by side, transported
        # to cand by one projection
        moved = _tangent(cand, np.concatenate([grad_new, gt, cand - v], axis=1))
        gt = moved[:, :2]
        s, y = moved[:, 4:].view(float).ravel(), (gt - moved[:, 2:4]).view(float).ravel()
        v, f, sy = cand, f_new, float(s @ y)
        if sy > 0.0:
            if h is None:
                h = (sy / float(y @ y)) * np.eye(len(s))
            hy = h @ y
            z = (0.5 * (1.0 + float(y @ hy) / sy) * s - hy) / sy
            zs = z[:, None] * s
            h += zs + zs.T
    return StiefelRun(f, v, steps, evaluations, stop)


def _restart_minima(fn, dim: int, restarts: int, seed: int) -> List[StiefelRun]:
    """:func:`stiefel_minimize` of ``fn`` from each restart's ``stream(seed, r)`` frame;
    a count outside 1 to ``MAX_RESTARTS`` is refused before any stream is made."""
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ValidationError(f"restarts must be from 1 to {MAX_RESTARTS}, got {restarts}")
    rngs = [stream(seed, r) for r in range(restarts)]
    frames = [g.standard_normal((dim, 2)) + 1j * g.standard_normal((dim, 2)) for g in rngs]
    return [stiefel_minimize(fn, v0) for v0 in frames]


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


def no_go_search(
    couplings: Sequence,
    sys_dim: int,
    restarts: int,
    seed: int = 0,
) -> float:
    """Smallest protected-pair penalty over random-restart frame descent.

    A floor bounded away from zero certifies that no orthonormal pair in the
    bare system space satisfies the dephasing and relaxation conditions for
    the given couplings.
    """
    mats = [as_matrix(a) for a in couplings]
    if any(m.shape != (sys_dim, sys_dim) for m in mats):
        raise ValidationError("coupling dimension mismatch with sys_dim")
    require_hermitian(np.array(mats).reshape(-1, sys_dim, sys_dim), "a coupling")
    runs = _restart_minima(_pair_penalty_terms(mats), sys_dim, restarts, seed)
    return float(min(np.inf, *(run.value for run in runs)))


def _quadratic_search_terms(
    gmat: np.ndarray, mats: Sequence[np.ndarray], weight: float
):
    """Objective for the correctable-code refinement search.

    Minimizes the Knill-Laflamme block deviation of the couplings and all
    pair products, minus ``weight`` times the signal, so the search is pulled
    toward correctable pairs that still see the generator.  A call may pass
    its own ``weight``: at 0 the value is the penalty alone, bitwise, since
    ``f - 0 s`` is ``f``.
    """
    d = gmat.shape[0]
    errs = error_set(mats, d)
    # each matrix above its adjoint, and G last: one matmul gives M v and
    # M^H v for all, and G v
    stack = np.stack([errs, errs.conj().transpose(0, 2, 1)], axis=1)
    stack = np.concatenate([stack.reshape(-1, d), gmat])
    signs = np.array([-1.0, 1.0])

    def fn(v: np.ndarray, weight: float = weight) -> Tuple[float, np.ndarray]:
        wg = stack @ v
        w, gv = wg[:-d].reshape(-1, 2, d, 2), wg[-d:] * signs
        # deviation D of each block from its best multiple of identity:
        # f = sum |D|_F^2, gradient = sum M v D^H + M^H v D
        dev = _kl_deviation(v.conj().T @ w[:, 0])
        f = float(np.vdot(dev, dev).real)
        grad = (w[:, 0] @ dev.conj().transpose(0, 2, 1) + w[:, 1] @ dev).sum(axis=0)
        # the signal v1^H G v1 - v0^H G v0, from the signed G v
        return f - weight * np.vdot(v, gv).real, grad - weight * gv

    return fn


class CodeSearchResult(NamedTuple):
    code: CodeSpace
    kl_penalty: float
    signal: float


def code_search(
    g,
    couplings: Sequence,
    dim: int,
    restarts: int,
    seed: int = 0,
) -> CodeSearchResult:
    """Search for a correctable pair with maximal signal on a given space.

    Operators must already live on the search space (lift beforehand for an
    ancilla-assisted search).  Restarts whose penalty is at most 1e-9 beat
    the rest; among equals, a larger ``|signal|`` wins only beyond a relative
    difference of 1e-9, and the smaller penalty breaks the remaining ties,
    so signals that agree to rounding never decide the pick.
    """
    gmat = as_matrix(g)
    mats = [as_matrix(a) for a in couplings]
    if any(m.shape != (dim, dim) for m in (gmat, *mats)):
        raise ValidationError("generator or coupling dimension mismatch with dim")
    require_hermitian(np.array([gmat, *mats]), "the generator or a coupling")
    fn = _quadratic_search_terms(gmat, mats, _SIGNAL_WEIGHT)
    best: Optional[Tuple[float, float, np.ndarray]] = None
    for run in _restart_minima(fn, dim, restarts, seed):
        v = run.frame
        pen = fn(v, 0.0)[0]
        gblock = v.conj().T @ gmat @ v
        signal = float((gblock[1, 1] - gblock[0, 0]).real)
        if best is None or _better_restart(pen, signal, best[0], best[1]):
            best = (pen, signal, v)
    pen, signal, v = best
    code = CodeSpace(StateVector(v[:, 0]), StateVector(v[:, 1]), dim, 1)
    return CodeSearchResult(code, float(pen), signal)


def _better_restart(pen: float, signal: float, best_pen: float, best_signal: float) -> bool:
    """Whether a restart's (penalty, signal) beats the best so far in :func:`code_search`."""
    if (pen <= 1e-9) != (best_pen <= 1e-9):
        return pen <= 1e-9
    if not math.isclose(abs(signal), abs(best_signal), rel_tol=1e-9):
        return abs(signal) > abs(best_signal)
    return pen < best_pen


def code_from_optimizer(g_tilde: np.ndarray, tol: Tolerances = TOL) -> CodeSpace:
    """Turn a traceless optimizer matrix into a purified code space."""
    rho1, rho0, _ = positive_negative_split(as_matrix(g_tilde), tol=tol)
    return purify_pair(rho0, rho1, tol=tol)
