"""Witnesses that only the tests call, kept out of ``dressedmet``.

No command and nothing in the package calls these.  The acceptance gates and
the module tests use them to check the package's results:

* ``correctable_code``: a correctable, signal-carrying code built from the
  generator's remainder off the quadratic coupling span (gate 6 and the span
  tests);
* ``qfi_analytic``: the protected-regime Fisher value ``t^2 Var(G_eff)``;
* ``loglog_slope``: the time-scaling exponent of a Fisher series (gate 5);
* ``perturbation_leakage`` and its ``LeakageReport``: first-order eigenvector
  mixing under the signal offset, against exact diagonalization (gate 7);
* ``first_order_mixing``, ``_first_order_rotation`` and ``nv_bx_discrepancy``:
  how far the NV model's second-order field reduction is from the exact
  eigenvectors.
"""

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from dressedmet.codespace import CodeSpace, code_from_optimizer, effective_generator
from dressedmet.criteria import quadratic_span_condition
from dressedmet.errors import ValidationError
from dressedmet.lindblad import _linkage, grouping_tolerance
from dressedmet.nv import _SX, _SZ, nv_control_bx
from dressedmet.operators import HermitianOperator, as_matrix, eigh_fixed, hermitian_part
from dressedmet.tolerances import TOL, Tolerances


def correctable_code(
    g,
    couplings: Sequence,
    tol: Tolerances = TOL,
) -> Optional[CodeSpace]:
    """Construct a correctable, signal-carrying code when one must exist.

    Projects the generator off the quadratic coupling span; a nonzero
    remainder splits into a pair of system states whose purification with
    disjoint ancilla supports passes every Knill-Laflamme block check by
    construction.  Returns None when the generator lies in the span.
    """
    report = quadratic_span_condition(g, couplings, tol=tol)
    if not report.verdict:
        return None
    return code_from_optimizer(report.g_perp, tol)


def qfi_analytic(code: CodeSpace, g, t: float) -> float:
    """Protected-regime value ``t^2 Var(G_eff)`` on the equal superposition."""
    return t * t * effective_generator(code, g).var


def loglog_slope(ts: Sequence[float], vals: Sequence[float]) -> float:
    """Least-squares slope of log(vals) against log(ts)."""
    x = np.log(np.asarray(ts, dtype=float))
    y = np.log(np.asarray(vals, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def first_order_mixing(h0, v) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
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


class LeakageReport(NamedTuple):
    """First-order response of the eigenvectors to the signal offset.

    ``corrections`` are the per-level first-order norms times the offset;
    ``max_ratio`` the worst single mixing coefficient; ``fit_exponent`` the
    measured order of the residual against exact diagonalization, which
    should sit near 2 when first-order theory captures the response.
    """

    corrections: Tuple[float, ...]
    max_ratio: float
    fit_exponent: float


def perturbation_leakage(
    h0: HermitianOperator,
    g: HermitianOperator,
    delta_omega: float,
    gap_tol: Optional[float] = None,
    tol: Tolerances = TOL,
) -> LeakageReport:
    """First-order eigenvector mixing under ``h0 + delta_omega g``.

    Requires a spectrum nondegenerate at ``gap_tol``, which defaults to
    the grouping tolerance of :func:`jump_operators`.  Verifies its own
    prediction against exact diagonalization at the offset and two halvings,
    fitting the error order; callers decide how much leakage is tolerable.
    """
    if delta_omega <= 0:
        raise ValidationError("delta_omega must be positive")
    vals, vecs, coeff = first_order_mixing(h0.entries, g.entries)
    if gap_tol is None:
        gap_tol = grouping_tolerance(float(np.abs(vals).max()), tol)
    if len(_linkage(vals, gap_tol)) < len(vals):
        raise ValidationError("spectrum is degenerate at the grouping tolerance")
    corrections = tuple((delta_omega * np.linalg.norm(coeff, axis=0)).tolist())
    max_ratio = float(delta_omega * np.abs(coeff).max())
    errs = []
    deltas = [delta_omega, delta_omega / 2.0, delta_omega / 4.0]
    for d in deltas:  # every level at once, each against its closest exact eigenvector
        exact = eigh_fixed(h0.entries + d * g.entries)[1]
        pred = vecs + d * (vecs @ coeff)
        pred = pred / np.linalg.norm(pred, axis=0)
        overlaps = exact.conj().T @ pred
        j = np.argmax(np.abs(overlaps), axis=0)
        phase = overlaps[j, np.arange(len(vals))]
        errs.append(float(np.linalg.norm(exact[:, j] * (phase / abs(phase)) - pred, axis=0).max()))
    return LeakageReport(corrections, max_ratio, float(loglog_slope(deltas, errs)))


def _first_order_rotation(h0: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(S) with the leading-order block-offdiagonal generator of v.

    S mixes eigenspaces of h0 with amplitude <m|v|n>/(E_n - E_m); applying it
    to unperturbed eigenvectors reproduces the exact ones to second order.
    """
    _, vecs, s = first_order_mixing(h0, v)
    kvals, kvecs = np.linalg.eigh(hermitian_part(1j * s))
    expo = kvecs @ np.diag(np.exp(-1j * kvals)) @ kvecs.conj().T
    return vecs @ expo @ vecs.conj().T


def nv_bx_discrepancy(bx: float) -> float:
    """Worst eigenvector mismatch between the reduced and exact pictures.

    The reduced picture keeps the bare dressed triple as its eigenbasis; the
    exact states differ from those by a first-order rotation plus corrections
    that start at third order in the field ratio.  This strips the known
    rotation and returns max(1 - |overlap|) over the triple, so the result
    measures only what the second-order reduction fails to capture.
    """
    h0 = _SZ @ _SZ
    h_eff = h0 + nv_control_bx(bx).entries
    h_exact = h0 + bx * _SX
    rot = _first_order_rotation(h0, bx * _SX)
    _, v_eff = eigh_fixed(h_eff)
    _, v_exact = eigh_fixed(h_exact)
    overlaps = np.abs(v_exact.conj().T @ (rot @ v_eff))  # (exact, dressed)
    return float(1.0 - overlaps.max(axis=0).min())
