"""The propagation core as it stood before blocked propagation, kept verbatim.

One stacked matmul per RK4 step, with the trace renormalized and its drift
checked after every step.  ``tests/test_trajectory_output.py`` and
``tests/test_blocked_propagation.py`` pin ``simulate._propagate`` against it.
``_check_states`` is the positivity check of that core, one stacked
``eigvalsh`` over all records, kept verbatim as the oracle of the Cholesky
check that replaced it (``tests/test_positivity_check.py``).
"""

from typing import Sequence, Tuple

import numpy as np

from dressedmet.errors import NumericalError, ValidationError
from dressedmet.operators import as_matrix
from dressedmet.simulate import _step_increment
from dressedmet.tolerances import Tolerances


def _check_states(records: np.ndarray, tol: Tolerances) -> None:
    """Positivity of ``(records, offsets, d, d)``; reports the first failing record's minimum."""
    herm = 0.5 * (records + np.swapaxes(records, -2, -1).conj())
    low = np.linalg.eigvalsh(herm).min(axis=(-2, -1))
    bad = np.flatnonzero(low < tol.positivity_floor)
    if bad.size:
        raise NumericalError(f"state lost positivity: min eigenvalue {low[bad[0]]:.3e}")


def _propagate(
    gens: np.ndarray, rho0: np.ndarray, legs: Sequence[Tuple[float, int]], tol: Tolerances
) -> Tuple[np.ndarray, float]:
    """Advance ``rho0`` under each stacked generator through ``legs`` of ``(dt, steps)``.

    Returns the states after each leg, ``(legs, generators, d, d)``, and the drift.
    """
    rho0 = as_matrix(rho0)
    if abs(np.trace(rho0).real - 1.0) > 1e-8:
        raise ValidationError("initial state must have unit trace")
    if np.abs(rho0 - rho0.conj().T).max() > tol.hermiticity:
        raise ValidationError("initial state must be Hermitian")
    _check_states(rho0[None, None], tol)
    dim = rho0.shape[0]
    trace_row = np.eye(dim).reshape(-1)
    vecs = np.repeat(rho0.reshape(1, -1).astype(complex), len(gens), axis=0)
    records = np.empty((len(legs), len(gens), dim, dim), dtype=complex)
    steppers = {}
    drift = 0.0
    for i, (dt, n_steps) in enumerate(legs):
        if n_steps and dt not in steppers:
            steppers[dt] = _step_increment(gens, dt)
        step = steppers.get(dt)
        for _ in range(n_steps):
            vecs = vecs + np.matmul(step, vecs[..., None])[..., 0]
            tr = (vecs @ trace_row).real
            err = max([abs(x - 1.0) for x in tr.tolist()])
            if err > tol.trace_drift:
                # a record that already lost positivity failed first
                _check_states(records[:i], tol)
                raise NumericalError(f"trace drift {err:.3e} exceeds {tol.trace_drift:.0e}")
            drift = max(drift, err)
            vecs = vecs / tr[:, None]
        records[i] = vecs.reshape(-1, dim, dim)
    _check_states(records, tol)
    return records, drift
