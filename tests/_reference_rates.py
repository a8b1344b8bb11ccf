"""The per-frequency rate path that ``BathSpectrum.rates`` replaced.

Kept verbatim, as functions of the spectrum, as the reference for
``test_rates.py``: each frequency's matrix evaluated, checked by
``require_hermitian`` and, for a rate, by its smallest eigenvalue, alone.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from dressedmet.errors import ValidationError
from dressedmet.lindblad import BathSpectrum, Regime
from dressedmet.operators import frobenius, hermitian_part, require_hermitian
from dressedmet.tolerances import TOL, Tolerances


def _regime_mask(regime: Regime, nu: float) -> bool:
    if regime is Regime.DEPHASING_ONLY:
        return nu == 0.0
    if regime is Regime.LOW_TEMPERATURE:
        return nu >= 0.0
    return True


def _coefficients(self: BathSpectrum, what: str, fn: Callable, nu: float,
                  tol: Tolerances) -> np.ndarray:
    """``fn(nu)`` as a ``k x k`` matrix, ``(1, 1)`` broadcast to ``gamma I``.

    Returns its Hermitian part once it passes :func:`.operators.require_hermitian`
    at ``tol``.
    """
    k = self.n_couplings
    mat = np.atleast_2d(np.asarray(fn(nu), dtype=complex))
    if mat.shape not in ((1, 1), (k, k)):
        raise ValidationError(
            f"{what} matrix at nu={nu} has shape {mat.shape}, expected ({k}, {k})"
        )
    require_hermitian(mat, f"{what} matrix at nu={nu}", tol)
    if mat.shape != (k, k):
        mat = mat[0, 0] * np.eye(k, dtype=complex)
    return hermitian_part(mat)


def rate(self: BathSpectrum, nu: float, tol: Tolerances = TOL) -> np.ndarray:
    """PSD rate matrix at ``nu``, zero when the regime excludes ``nu``."""
    nu = float(nu)
    if not _regime_mask(self.regime, nu):
        return np.zeros((self.n_couplings, self.n_couplings))
    mat = _coefficients(self, "rate", self.gamma, nu, tol)
    low = float(np.linalg.eigvalsh(mat).min())
    if low < -tol.psd * max(1.0, frobenius(mat)):
        raise ValidationError(f"rate matrix at nu={nu} has negative eigenvalue {low}")
    return mat


def lamb(self: BathSpectrum, nu: float, tol: Tolerances = TOL) -> Optional[np.ndarray]:
    """Hermitian shift-coefficient matrix at ``nu``, or None if unset."""
    if self.lamb_coeffs is None:
        return None
    return _coefficients(self, "shift", self.lamb_coeffs, float(nu), tol)
