"""Dense operator algebra on small Hilbert spaces.

Conventions used throughout the package:

* hbar = 1; energies are angular frequencies.
* Matrices are dense complex numpy arrays; the operator inner product is
  Hilbert-Schmidt, ``<A, B> = tr(A^dag B)``.
* Spin matrices follow the descending-m basis ordering ``(|s>, ..., |-s>)``,
  so for spin 1 the basis reads ``(|+1>, |0>, |-1>)`` and ``S_z`` is
  ``diag(1, 0, -1)``.

Eigendecompositions returned by :func:`eigh_fixed` are made deterministic
(phase fixed, degenerate columns ordered) so downstream golden tests are
stable run to run.

:func:`require_hermitian` is the one check of every matrix input that must be
finite, bounded and Hermitian; :func:`orthonormal_span` is the one span builder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from .errors import ValidationError
from .tolerances import TOL, Tolerances

__all__ = [
    "HermitianOperator",
    "StateVector",
    "ScalarField",
    "OperatorSpan",
    "as_matrix",
    "dagger",
    "frobenius",
    "hermitian_part",
    "lift",
    "orthonormal_span",
    "project_decompose",
    "positive_negative_split",
    "require_hermitian",
    "spin_matrices",
    "eigh_fixed",
    "first_order_mixing",
]


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^dag) / 2`` of a matrix, or of each matrix of a stack."""
    return (m + np.swapaxes(m, -2, -1).conj()) / 2.0


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def as_matrix(op) -> np.ndarray:
    """Coerce an operator-like object to a square complex ndarray."""
    if isinstance(op, HermitianOperator):
        return op.entries
    m = np.asarray(op, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A validated Hermitian matrix.

    Wrapping applies :func:`require_hermitian`; the stored Hermitian part is read-only.
    Most functions accept plain ndarrays too and only return this type where
    Hermiticity is part of their contract.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValidationError(f"operator must be a square matrix, got shape {m.shape}")
        require_hermitian(m, "operator")
        m = hermitian_part(m)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        arr = self.entries
        if dtype is not None:
            arr = arr.astype(dtype)
        return np.array(arr) if copy else arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """A validated unit-norm pure state."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if v.size < 1:
            raise ValidationError("state vector must have dimension >= 1")
        nrm = float(np.linalg.norm(v))
        if not math.isfinite(nrm):
            raise ValidationError("state amplitudes must be finite")
        if abs(nrm - 1.0) > TOL.state_norm:
            raise ValidationError(f"state vector is not normalized (|norm-1| = {abs(nrm - 1.0):.3e})")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def __array__(self, dtype=None, copy=None):
        arr = self.amplitudes
        if dtype is not None:
            arr = arr.astype(dtype)
        return np.array(arr) if copy else arr


def as_vector(state) -> np.ndarray:
    if isinstance(state, StateVector):
        return state.amplitudes
    return np.asarray(state, dtype=complex).reshape(-1)


class ScalarField(Enum):
    REAL = "real"
    COMPLEX = "complex"


@dataclass(frozen=True, eq=False)
class OperatorSpan:
    """An orthonormal basis of an operator subspace.

    ``field`` records the scalars the span is closed under: REAL spans hold
    Hermitian elements with real coefficients, COMPLEX spans are ordinary
    subspaces of d x d complex matrices.  ``basis`` is one read-only
    ``(n, d, d)`` array; ``n`` may be 0.  :func:`orthonormal_span` sets the
    ``(k, n)`` map ``T`` with ``sum_k (T y)_k G_k = sum_j y_j B_j``.
    """

    dim: int
    field: ScalarField
    basis: np.ndarray
    to_generators: Optional[np.ndarray] = None

    def __post_init__(self):
        n, d = len(self.basis), self.dim
        try:
            flat = np.array(self.basis, dtype=complex).reshape(n, d * d)
        except ValueError:
            raise ValidationError("span basis has inconsistent dimensions") from None
        mats = flat.reshape(n, d, d)
        if self.field is ScalarField.REAL:
            require_hermitian(mats, "a real-field span basis element")
        if n and np.abs(flat.conj() @ flat.T - np.eye(n)).max() > TOL.orthonormality:
            raise ValidationError("span basis is not orthonormal")
        mats.setflags(write=False)
        object.__setattr__(self, "basis", mats)

    @property
    def size(self) -> int:
        return len(self.basis)

    def project(self, m) -> np.ndarray:
        """Orthogonal projection of ``m`` onto the span."""
        x = as_matrix(m)
        if x.shape != (self.dim, self.dim):
            raise ValidationError("dimension mismatch in span projection")
        c = np.einsum("kij,ij->k", self.basis.conj(), x)
        if self.field is ScalarField.REAL:
            c = c.real
        return np.tensordot(c, self.basis, axes=1)


def lift(op, ancilla_dim: int) -> np.ndarray:
    """Extend a system operator to system (x) ancilla, acting trivially on the ancilla."""
    m = as_matrix(op)
    if ancilla_dim == 1:
        return m.copy()
    return np.kron(m, np.eye(ancilla_dim, dtype=complex))


# Largest entry a checked matrix may hold: the criterion spans take norms of
# products A^dag B, whose squared entries reach d^2 x^4 for entries x, and at
# 1e64 that stays far below the float range (1.8e308) for any d used here.
MAX_ENTRY = 1e64


def require_bounded(stack: np.ndarray, what: str) -> np.ndarray:
    """Each matrix's largest entry, once all are finite and at most ``MAX_ENTRY``."""
    size = np.abs(stack).max(axis=(-2, -1), initial=0.0)  # NaN and inf survive the max
    if not np.isfinite(size).all():
        raise ValidationError(f"{what} has non-finite entries")
    if (size > MAX_ENTRY).any():
        raise ValidationError(f"{what} has an entry above {MAX_ENTRY:.0e} in magnitude")
    return size


def require_hermitian(stack: np.ndarray, what: str, tol: Tolerances = TOL) -> None:
    """Raise :class:`ValidationError`, naming ``what``, unless a ``(d, d)`` matrix or
    each of an ``(n, d, d)`` stack is bounded with an entrywise ``|m - m^dag|`` of at
    most ``tol.hermiticity`` times its largest entry (or 1 if larger)."""
    size = require_bounded(stack, what)
    err = np.abs(stack - np.swapaxes(stack, -2, -1).conj()).max(axis=(-2, -1), initial=0.0)
    if (err > tol.hermiticity * np.maximum(1.0, size)).any():
        raise ValidationError(f"{what} is not Hermitian (deviation {err.max():.3e})")


def orthonormal_span(
    generators: Iterable,
    field: ScalarField = ScalarField.COMPLEX,
    *,
    tol: Tolerances = TOL,
) -> OperatorSpan:
    """Orthonormalize a generator list into an :class:`OperatorSpan`.

    One SVD of the generators scaled to unit norm, as rows, with a generator
    of norm below ``tol.span_drop`` and a singular value at or below it
    dropped; ``to_generators`` is ``conj(u) / s`` over the generators' norms.
    A REAL span requires generators that pass :func:`require_hermitian` at
    ``tol``, takes their Hermitian parts as real rows (real and imaginary
    parts side by side) and keeps its basis elements' Hermitian parts.
    """
    mats = [as_matrix(g) for g in generators]
    if not mats:
        raise ValidationError("orthonormal_span requires at least one generator")
    dim = mats[0].shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise ValidationError("span generators have inconsistent dimensions")
    stack = np.array(mats)
    real = field is ScalarField.REAL
    if real:
        require_hermitian(stack, "a real-field span generator", tol)
        stack = hermitian_part(stack)
    flat = stack.reshape(len(stack), dim * dim)
    norms = np.linalg.norm(flat, axis=1)
    live = norms >= tol.span_drop
    rows = flat[live] / norms[live, None]
    if real:
        rows = np.hstack([rows.real, rows.imag])
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    keep = s > tol.span_drop
    basis = (vh[keep, : dim * dim] + 1j * vh[keep, dim * dim :]) if real else vh[keep]
    if real:  # a near-dependent direction leaves eps / sigma of anti-Hermitian rounding
        basis = hermitian_part(basis.reshape(-1, dim, dim))
    to_generators = np.zeros((len(flat), len(basis)), dtype=u.dtype)
    to_generators[live] = u[:, keep].conj() / s[keep] / norms[live, None]
    to_generators.setflags(write=False)
    return OperatorSpan(dim, field, basis.reshape(-1, dim, dim), to_generators)


def project_decompose(g, span: OperatorSpan, *, tol: Tolerances = TOL):
    """Split a Hermitian ``g`` into its span component and orthogonal remainder.

    Returns ``(g_par, g_perp)`` with ``g = g_par + g_perp`` exactly and
    ``g_perp`` orthogonal to every basis element.  Both parts are Hermitian;
    this requires the span to be closed under the adjoint (always true for the
    spans built by this package), which is verified numerically: the
    remainder must be orthogonal to the span to ``tol.decomposition``.
    """
    m = as_matrix(g)
    require_hermitian(m, "the operator to decompose", tol)
    par = hermitian_part(span.project(m))
    perp = m - par
    if frobenius(span.project(perp)) > tol.decomposition * max(1.0, frobenius(m)):
        raise ValidationError(
            "remainder is not orthogonal to the span; the span is not closed under the adjoint"
        )
    return HermitianOperator(par), HermitianOperator(perp)


def positive_negative_split(g_perp, *, tol: Tolerances = TOL):
    """Split a traceless Hermitian operator into normalized signed parts.

    Returns ``(rho1, rho0, weight)`` where ``rho1``/``rho0`` are the density
    matrices carried by the positive/negative eigenspaces and
    ``weight = tr|g|/2``, so ``g = weight * (rho1 - rho0)``.  Eigenvalues
    within ``tol.rank`` (relative) of zero join neither support.
    """
    m = as_matrix(g_perp)
    require_hermitian(m, "the operator to split", tol)
    scale = frobenius(m)
    if scale < tol.span_drop:
        raise ValidationError("cannot split an operator that is numerically zero")
    if abs(np.trace(m).real) > tol.traceless * max(1.0, scale):
        raise ValidationError(f"operator must be traceless, got trace {np.trace(m).real:.3e}")
    vals, vecs = eigh_fixed(m)
    cut = tol.rank * float(np.max(np.abs(vals)))
    pos = vals > cut
    neg = vals < -cut
    if not pos.any() or not neg.any():
        raise ValidationError("traceless operator lacks a two-sided spectrum after rank cut")
    p_part = (vecs[:, pos] * vals[pos]) @ dagger(vecs[:, pos])
    n_part = (vecs[:, neg] * (-vals[neg])) @ dagger(vecs[:, neg])
    tr_p, tr_n = float(np.trace(p_part).real), float(np.trace(n_part).real)
    return hermitian_part(p_part) / tr_p, hermitian_part(n_part) / tr_n, 0.5 * (tr_p + tr_n)


def spin_matrices(two_s: int):
    """Spin matrices ``(S_x, S_y, S_z)`` for spin ``s = two_s / 2``.

    Basis ordering is descending in m, so ``S_z = diag(s, s-1, ..., -s)``.
    ``spin_matrices(1)`` gives the Pauli matrices over 2 and
    ``spin_matrices(2)`` the standard spin-1 triple.
    """
    if not isinstance(two_s, (int, np.integer)) or two_s < 1:
        raise ValidationError("two_s must be a positive integer")
    s = two_s / 2.0
    m = s - np.arange(two_s + 1)
    sz = np.diag(m).astype(complex)
    # raising S+|m> lands one basis index up (descending-m ordering)
    s_plus = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    s_minus = s_plus.conj().T
    sx = (s_plus + s_minus) / 2.0
    sy = (s_plus - s_minus) / 2.0j
    return sx, sy, sz


def eigh_fixed(m) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with a deterministic output convention.

    Eigenvalues ascend; each eigenvector's first non-negligible component is
    made real positive, and exactly degenerate columns are ordered
    lexicographically by their (rounded) entries so repeated runs and
    equivalent inputs produce identical output.
    """
    a = as_matrix(m)
    vals, vecs = np.linalg.eigh(a)
    if not vals.size:
        return vals, vecs
    big = np.abs(vecs) > 1e-9
    ph = vecs[big.argmax(axis=0), np.arange(len(vals))]  # each column's first large entry
    vecs = vecs * np.where(big.any(axis=0), ph.conj() / np.hypot(ph.real, ph.imag), 1.0)
    # order exact ties deterministically
    tie_tol = max(1e-12, 1e-12 * float(np.max(np.abs(vals))))

    def key(k):
        col = np.round(vecs[:, k], 10)
        return tuple(x for pair in zip(col.real, col.imag) for x in pair)

    order, i = [], 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and abs(vals[j] - vals[i]) <= tie_tol:
            j += 1
        order += sorted(range(i, j), key=key) if j > i + 1 else [i]
        i = j
    return vals[order].copy(), vecs[:, order]


def first_order_mixing(h0, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of ``h0`` and the first-order mixing ``<m|v|n>/(E_n - E_m)``.

    Returns ``(vals, vecs, coeff)`` with ``vals, vecs`` from :func:`eigh_fixed`;
    pairs whose gap is within ``1e-9 max(1, |E|_max)`` of zero get no
    coefficient, the diagonal included.
    """
    vals, vecs = eigh_fixed(h0)
    gaps = vals[None, :] - vals[:, None]
    mixed = np.abs(gaps) > 1e-9 * max(1.0, abs(vals).max())
    vb = vecs.conj().T @ as_matrix(v) @ vecs
    return vals, vecs, np.where(mixed, vb / np.where(mixed, gaps, 1.0), 0.0)
