"""The dense-record branch of ``simulate._propagate`` with its table of increments, kept verbatim.

A run with several records, all on the ``dt`` lattice, built a table of the
increments ``M^j - I`` for every ``j`` up to a block of ``B`` steps,
``B D^2 <= 2^15``, and got a block's states from one matmul with it.
Doubling on the state increments ``(M^j - I) v`` replaced the table;
``tests/test_doubled_records.py`` pins the new branch against this one.
``_block_size``, ``_doubled`` and ``_step_drift`` are copied as they stood
with it; the branch that advances from mark to mark is left out, and a run
it would have taken is refused.
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from dressedmet.errors import ValidationError
from dressedmet.operators import as_matrix, require_hermitian
from dressedmet.simulate import _check_states, _drift_abort, _step_increment
from dressedmet.tolerances import Tolerances


def _block_size(gen_dim: int) -> int:
    """Steps per block: the largest power of two ``B`` with ``B * D^2 <= 2^15``, at least 1."""
    return 1 << max(0, ((1 << 15) // gen_dim ** 2).bit_length() - 1)


def _doubled(
    first: np.ndarray, n: int, squares: Optional[Sequence[np.ndarray]] = None
) -> np.ndarray:
    """``X_j`` for ``j = 1..n`` from ``X_1 = first``, by ``X_{j+k} = X_j + X_k + X_j D_k``
    at ``k = 2^i``, with ``D_k = squares[i]``.

    With ``first = M - I`` the ``X_j`` are the increments ``M^j - I``, and
    ``D_k`` is ``X_k`` itself unless ``squares`` are given; with the trace row
    ``1^T (M - I)`` and the squarings of ``M`` they are the trace rows
    ``1^T (M^j - I)``.
    """
    out = np.empty((n,) + first.shape, dtype=complex)
    out[0] = first
    k = 1
    while k < n:
        m = min(k, n - k)
        square = out[k - 1] if squares is None else squares[k.bit_length() - 1]
        np.matmul(out[:m], square, out=out[k:k + m])
        out[k:k + m] += out[:m]
        out[k:k + m] += out[k - 1]
        k *= 2
    return out


def _step_drift(before: np.ndarray, traces: np.ndarray, tol: Tolerances) -> Tuple[np.ndarray, int]:
    """Each step's drift ``|T_j / T_(j-1) - 1|``, the largest over the generators,
    from the step traces ``(steps, generators)`` and the traces ``before`` them;
    and how many steps come before the first not within ``tol.trace_drift``
    (a NaN drift is not)."""
    err = np.abs(traces / np.vstack([before, traces[:-1]]) - 1.0).max(axis=1)
    bad = np.flatnonzero(~(err <= tol.trace_drift))
    return err, int(bad[0]) if bad.size else len(err)


def _propagate(
    gens: np.ndarray, rho0: np.ndarray, dt: float, marks: Sequence[Tuple[int, float]],
    tol: Tolerances,
) -> Tuple[np.ndarray, float]:
    """Advance ``rho0`` under each stacked generator in steps of ``dt``, recording at ``marks``.

    Mark ``(k, r)``, ``k`` nondecreasing, records the state after ``k`` steps
    advanced by one RK4 step of length ``r`` in ``[0, dt)``, which the run does
    not continue from.  Returns the records, ``(marks, generators, d, d)``,
    and the drift.  The set-up is built once; a numpy call advances up to
    ``_block_size`` steps.  Several records all on the lattice (``evolve``'s)
    are made inside the blocks from a table of the increments ``M^j - I``;
    other runs advance by the squarings ``M^(2^i) - I`` and take step traces
    from the trace rows ``1^T (M^j - I)``.  A step's drift is
    ``|T_j / T_(j-1) - 1|`` over consecutive traces ``T``: the trace error of
    ``M v`` for the renormalized ``v``.
    """
    rho0 = as_matrix(rho0)
    require_hermitian(rho0, "initial state", tol)
    if abs(np.trace(rho0).real - 1.0) > 1e-8:
        raise ValidationError("initial state must have unit trace")
    _check_states(rho0[None, None], tol)
    dim = rho0.shape[0]
    trace_row = np.eye(dim).reshape(-1)
    vecs = np.repeat(rho0.reshape(1, -1).astype(complex), len(gens), axis=0)
    records = np.empty((len(marks), len(gens), dim, dim), dtype=complex)
    ends = np.array([k for k, _ in marks], dtype=np.int64)
    block = _block_size(gens.shape[-1])
    drift = 0.0
    if len(marks) > 1 and not any(r for _, r in marks):  # records inside the blocks
        total = int(ends[-1])
        records[:np.searchsorted(ends, 0, side="right")] = vecs.reshape(-1, dim, dim)
        table = _doubled(_step_increment(gens, dt), min(block, total)) if total else None
        for done in range(0, total, block):
            n = min(block, total - done)
            states = vecs + np.matmul(table[:n], vecs[..., None])[..., 0]
            traces = (states @ trace_row).real
            err, passed = _step_drift((vecs @ trace_row).real, traces, tol)
            k0, k1 = np.searchsorted(ends, (done, done + passed), side="right")
            at = ends[k0:k1] - done - 1
            records[k0:k1] = (states[at] / traces[at][..., None]).reshape(-1, len(gens), dim, dim)
            if passed < n:
                _drift_abort(err[passed], records[:k1], tol)
            drift = max(drift, float(err.max()))
            vecs = states[-1] / traces[-1][:, None]
    else:
        raise ValueError("the table covers only several records, all on the lattice")
    _check_states(records, tol)
    return records, drift
