"""Master-equation integration, Fisher-information estimates, and sweeps.

One propagation core serves every trajectory: fixed-step classical 4th order
as the step matrix ``M = I + A + A^2/2 + A^3/6 + A^4/24`` (``A = dt L``),
kept as the increment ``M - I`` and built once per run with its squarings
``M^(2^i) - I``.  A run steps at one dt; stacked matmuls advance a block of
steps for all signal offsets of an estimate, by doubling, and the times off
the dt lattice are reached by shorter steps from the lattice states, all in
one stacked pass.  The trace is renormalized once per block; a step's drift
is ``|T_j / T_(j-1) - 1|`` over consecutive traces.  ``Trajectory.trace_drift``
is the largest; the first step past ``tol.trace_drift`` aborts the run.  All
records are checked for positivity by one stacked Cholesky factorization.
Fisher information follows the convention ``F_Q = t^2 Var(G_eff)``; the
numeric routes (Bures fidelity finite differences, and a symmetric-logarithmic-
derivative estimator, one stacked ``eigh`` over the grid, used where fidelities
underflow) are scaled to match it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import groupby
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .codespace import CodeSpace
from .errors import NumericalError, ToolkitError, ValidationError
from .jsonio import (
    check_keys, finite_number, hermitian_from_json, operator_from_json, operator_to_json,
    positive_whole,
)
from .lindblad import (
    BathSpectrum,
    LindbladSet,
    commutator_superoperator,
    jump_operators,
    spectrum_from_json,
    superoperator,
)
from .operators import (
    HermitianOperator, as_matrix, hermitian_part, require_bounded, require_hermitian,
)
from .tolerances import STABILITY, TOL, Tolerances


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration parameters.

    ``dt`` of None picks 1e-3 over the generator scale at evolve time;
    ``record_stride``, a whole number, thins the stored trajectory.
    """

    t_final: float
    dt: Optional[float] = None
    record_stride: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValidationError("t_final must be positive and finite")
        if self.dt is not None and not (math.isfinite(self.dt) and 0 < self.dt <= self.t_final):
            raise ValidationError("dt must satisfy 0 < dt <= t_final")
        if not (isinstance(self.record_stride, numbers.Integral) and self.record_stride >= 1):
            raise ValidationError("record_stride must be a whole number >= 1")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SimConfig":
        check_keys(obj, "simulation config", ("t_final",), ("dt", "record_stride"))
        return cls(
            t_final=finite_number(obj["t_final"], "t_final"),
            dt=finite_number(obj["dt"], "dt") if obj.get("dt") is not None else None,
            record_stride=positive_whole(obj.get("record_stride", 1), "record_stride"),
        )


class Trajectory(NamedTuple):
    times: np.ndarray
    states: np.ndarray
    trace_drift: float

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _default_dt(
    hams: np.ndarray, lset: LindbladSet, spectrum: BathSpectrum, tol: Tolerances
) -> float:
    """1e-3 over the larger of the largest norm of the stacked Hamiltonians ``hams`` and
    the total bath rate: the smallest of their own defaults, by one stacked ``eigvalsh``,
    with the bath rates evaluated once."""
    hnorm = float(np.abs(np.linalg.eigvalsh(hams)).max())
    rates = spectrum.rates(lset.frequencies, tol)
    total_rate = sum(np.trace(rates, axis1=1, axis2=2).real.tolist())
    return 1e-3 / max(hnorm, total_rate, 1e-3)


def _check_stability(gens: np.ndarray, dt: float) -> None:
    gen_norm = float(np.linalg.norm(gens, 2, axis=(-2, -1)).max())
    if dt * gen_norm >= STABILITY:
        raise ValidationError(f"dt*|generator| = {dt * gen_norm:.3e} violates the stability guard")


def _check_states(records: np.ndarray, tol: Tolerances) -> None:
    """Positivity of ``(records, offsets, d, d)``: no eigenvalue of a record's
    Hermitian part below ``floor = tol.positivity_floor``.

    A finite stack is tested by one stacked Cholesky factorization of
    ``herm - floor I``, which succeeds exactly when every record clears the
    floor, up to a backward error of order ``d eps |rho|`` (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 10).  A floor of ``-inf``
    passes every finite stack.  Only a non-finite stack or a failed
    factorization takes the stacked ``eigvalsh`` of the finite records, which
    names the first failing record's minimum over the offsets; a record with
    a non-finite entry fails with a minimum of ``nan``.
    """
    floor = tol.positivity_floor
    finite = np.isfinite(records).all(axis=(-3, -2, -1))
    if finite.all():
        if floor == -math.inf:
            return
        herm = hermitian_part(records)
        diag = np.arange(herm.shape[-1])
        herm[..., diag, diag] -= floor  # in place: no second copy of the stack
        try:
            np.linalg.cholesky(herm)
            return
        except np.linalg.LinAlgError:
            pass
    # rebuilt, not shifted back: x - floor + floor need not be x
    low = np.full(len(records), np.nan)
    low[finite] = np.linalg.eigvalsh(hermitian_part(records[finite])).min(axis=(-2, -1))
    bad = np.flatnonzero(~(low >= floor))
    if bad.size:
        raise NumericalError(f"state lost positivity: min eigenvalue {low[bad[0]]:.3e}")


# the most states a run stores: ``evolve``'s records, or the points of a ``--tgrid``
MAX_RECORDS = 10**5
# the most RK4 steps a run takes; 10^7 took 1.7 s at D = 9 and 6.6 s at D = 36
MAX_STEPS = 10**8


def _step_count(span: float, dt: float, stride: int = 0) -> int:
    """Fewest equal steps no longer than ``dt`` over ``span > 0``.  Refused, in this
    order: a ``span / dt`` that is not finite, a count past int64, given a ``stride``
    a run that would store more than ``MAX_RECORDS`` states (t = 0, every ``stride``
    steps and the last), and a count above ``MAX_STEPS``."""
    if not math.isfinite(span / dt):
        raise ValidationError(f"at dt = {dt:g} a step count is not finite")
    count = max(1, math.ceil(span / dt - 1e-12))
    if count > np.iinfo(np.int64).max:
        raise ValidationError(f"at dt = {dt:g} the run needs {count:.3e} steps, past int64")
    records = -(-count // stride) + 1 if stride else 0
    if records > MAX_RECORDS:
        raise ValidationError(f"the run would store {records} states, over {MAX_RECORDS}")
    if count > MAX_STEPS:
        raise ValidationError(f"the run would take {count} steps, over {MAX_STEPS}")
    return count


def _step_increment(gens: np.ndarray, dt: float) -> np.ndarray:
    """``M - I`` for the RK4 step matrix ``M = sum_{j<=4} (dt L)^j / j!``; leaving
    out ``I`` keeps the rounding of ``I + dt L`` from repeating at every step."""
    a = dt * gens
    eye = np.eye(gens.shape[-1])
    poly = eye + a / 4.0
    for j in (3.0, 2.0):
        poly = eye + (a / j) @ poly
    return a @ poly


def _block_size(entries: int) -> int:
    """Steps per block: the largest power of two ``B`` with ``B * entries <= 2^15``, at least 64."""
    return 1 << max(6, ((1 << 15) // entries).bit_length() - 1)


def _squarings(inc: np.ndarray, count: int) -> List[np.ndarray]:
    """``M^(2^i) - I`` for ``i < count`` from ``inc = M - I``, each as ``2 P + P P``."""
    out = [inc]
    while len(out) < count:
        out.append(2.0 * out[-1] + out[-1] @ out[-1])
    return out


def _doubled(first: np.ndarray, n: int, squares: Sequence[np.ndarray]) -> np.ndarray:
    """Rows ``X_j``, ``j = 1..n``, on axis -2, from ``X_1 = first`` by
    ``X_{j+k} = X_j + X_k + X_j D_k`` at ``k = 2^i``, with ``D_k = squares[i]``.

    With the trace row ``1^T (M - I)`` and the squarings ``M^k - I`` the
    ``X_j`` are the trace rows ``1^T (M^j - I)``; with ``(M - I) v`` and the
    transposed squarings they are the state increments ``(M^j - I) v``.
    """
    out = np.empty(first.shape[:-1] + (n, first.shape[-1]), dtype=complex)
    out[..., 0, :] = first
    k = 1
    while k < n:
        m = min(k, n - k)
        new = out[..., k:k + m, :]
        np.matmul(out[..., :m, :], squares[k.bit_length() - 1], out=new)
        new += out[..., :m, :]
        new += out[..., k - 1:k, :]
        k *= 2
    return out


def _step_drift(before: np.ndarray, traces: np.ndarray, tol: Tolerances) -> Tuple[np.ndarray, int]:
    """Each step's drift ``|T_j / T_(j-1) - 1|``, the largest over the generators,
    from the step traces ``(generators, steps)`` and the traces ``before`` them;
    and how many steps come before the first not within ``tol.trace_drift``
    (a NaN drift is not)."""
    ratio = np.empty_like(traces)
    ratio[:, 0] = traces[:, 0] / before
    np.divide(traces[:, 1:], traces[:, :-1], out=ratio[:, 1:])
    err = np.abs(ratio - 1.0).max(axis=0)
    return err, len(err) if err.max() <= tol.trace_drift else int(np.argmin(err <= tol.trace_drift))


def _drift_abort(err: float, records: np.ndarray, tol: Tolerances) -> None:
    # a record that already lost positivity failed first
    _check_states(records, tol)
    raise NumericalError(f"trace drift {err:.3e} exceeds {tol.trace_drift:.0e}")


def _shorter_steps(
    gens: np.ndarray, records: np.ndarray, rests: np.ndarray, tol: Tolerances
) -> float:
    """Advance each record with ``rests[i] > 0`` in place by one RK4 step of that length in one
    stacked pass, ``v + a (v + a/2 (v + a/3 (v + a/4 v)))``, ``a = r L``; return the largest drift.
    The first step over ``tol.trace_drift`` aborts, after the positivity of the earlier records."""
    at = np.flatnonzero(rests)
    if not at.size:
        return 0.0
    flat = records.reshape(len(records), len(gens), -1)
    vecs, rest, trace_row = flat[at], rests[at, None, None], np.eye(records.shape[-1]).reshape(-1)
    stage = vecs
    for j in (4.0, 3.0, 2.0, 1.0):
        stage = vecs + (rest / j) * np.matmul(gens, stage[..., None])[..., 0]
    traces = (stage @ trace_row).real
    err = np.abs(traces / (vecs @ trace_row).real - 1.0).max(axis=1)
    flat[at] = stage / traces[..., None]
    bad = np.flatnonzero(~(err <= tol.trace_drift))
    if bad.size:
        _drift_abort(err[bad[0]], records[:at[bad[0]]], tol)
    return float(err.max())


def _propagate(
    gens: np.ndarray, rho0: np.ndarray, dt: float, ends: np.ndarray, rests: np.ndarray,
    tol: Tolerances,
) -> Tuple[np.ndarray, float]:
    """Advance ``rho0`` under each stacked generator in steps of ``dt``, recording at marks.

    ``rho0`` is one ``(d, d)`` state for every generator, or a ``(generators, d, d)``
    stack of one state each, checked as one stack.  Mark ``i`` records the state after
    ``ends[i]`` steps (nondecreasing) advanced by one RK4 step of length ``rests[i]`` in
    ``[0, dt)``, which the run does not continue from.  Returns the records,
    ``(marks, generators, d, d)``, and the drift.  The set-up, ``M - I`` and the
    squarings ``M^(2^i) - I``, is built once.
    Several records all on the lattice (``evolve``'s) are made in blocks of
    ``B D <= 2^15`` steps, by doubling on ``(M^j - I) v``; other runs advance from
    mark to mark by the squarings, ``B D^2 <= 2^15`` but at least 64 steps at a
    time, with step traces from the trace rows ``1^T (M^j - I)``, and take the shorter
    steps after the lattice run, or, before a lattice drift abort, those of the marks
    before it.  A step's drift is ``|T_j / T_(j-1) - 1|`` over consecutive traces ``T``.
    """
    starts = np.asarray(rho0, dtype=complex)
    starts = starts if starts.ndim == 3 else as_matrix(starts)[None]
    require_hermitian(starts, "initial state", tol)
    if np.abs(starts.trace(axis1=1, axis2=2).real - 1.0).max() > 1e-8:
        raise ValidationError("initial state must have unit trace")
    _check_states(starts[None], tol)
    dim = starts.shape[-1]
    trace_row = np.eye(dim).reshape(-1)
    # one state repeated for every generator, or a copy of one state each
    vecs = np.repeat(starts.reshape(len(starts), -1), len(gens) // len(starts), axis=0)
    records = np.empty((len(ends), len(gens), dim, dim), dtype=complex)
    flat = records.reshape(len(ends), len(gens), dim * dim)
    dense = len(ends) > 1 and not rests.any()  # records inside the blocks
    block = _block_size(gens.shape[-1] if dense else gens.shape[-1] ** 2)
    span = min(block, int(ends[-1] if dense else np.diff(ends, prepend=0).max(initial=0)))
    if span:
        inc = _step_increment(gens, dt)
        squares = _squarings(inc, span.bit_length())
    drift = 0.0
    if dense:
        flat[:np.searchsorted(ends, 0, side="right")] = vecs
        for done in range(0, int(ends[-1]), block):
            n = min(block, int(ends[-1]) - done)
            first = np.matmul(inc, vecs[..., None])[..., 0]
            states = vecs[:, None] + _doubled(first, n, [np.swapaxes(s, -2, -1) for s in squares])
            traces = (states @ trace_row).real
            err, passed = _step_drift((vecs @ trace_row).real, traces, tol)
            k0, k1 = np.searchsorted(ends, (done, done + passed), side="right")
            at = ends[k0:k1] - done - 1
            flat[k0:k1] = np.swapaxes(states[:, at] / traces[:, at, None], 0, 1)
            if passed < n:
                _drift_abort(err[passed], records[:k1], tol)
            drift = max(drift, float(err.max()))
            vecs = states[:, -1] / traces[:, -1, None]
    else:  # from mark to mark: trace rows and squarings
        if span:
            rows = _doubled(trace_row @ inc, span, squares)
        done = 0
        for i, end in enumerate(ends.tolist()):
            while done < end:
                n = min(block, end - done)
                before = (vecs @ trace_row).real
                traces = before[:, None] + (rows[:, :n] @ vecs[..., None])[..., 0].real
                err, passed = _step_drift(before, traces, tol)
                if passed < n:
                    _shorter_steps(gens, records[:i], rests[:i], tol)
                    _drift_abort(err[passed], records[:i], tol)
                drift = max(drift, float(err.max()))
                for b in range(n.bit_length()):
                    if n >> b & 1:
                        vecs = vecs + np.matmul(squares[b], vecs[..., None])[..., 0]
                vecs = vecs / (vecs @ trace_row).real[:, None]
                done += n
            flat[i] = vecs
        drift = max(drift, _shorter_steps(gens, records, rests, tol))
    _check_states(records, tol)
    return records, drift


def evolve(
    rho0: np.ndarray,
    h_s: HermitianOperator,
    lset: LindbladSet,
    spectrum: BathSpectrum,
    cfg: SimConfig,
    tol: Tolerances = TOL,
) -> Trajectory:
    """Integrate the master equation from ``rho0`` over ``cfg.t_final``; a run that would
    store more than ``MAX_RECORDS`` states, or take more than ``MAX_STEPS`` steps, is
    refused before any state is made."""
    rho0 = as_matrix(rho0)
    gens = superoperator(h_s, lset, spectrum, tol=tol)[None]
    dt = cfg.dt if cfg.dt is not None else _default_dt(h_s.entries[None], lset, spectrum, tol)
    _check_stability(gens, dt)
    n_steps = _step_count(cfg.t_final, dt, cfg.record_stride)
    dt = cfg.t_final / n_steps
    ends = np.append(np.arange(cfg.record_stride, n_steps, cfg.record_stride), n_steps)
    states, drift = _propagate(gens, rho0, dt, ends, np.zeros(len(ends)), tol)
    times = np.concatenate([[0], ends]) * dt
    return Trajectory(times, np.concatenate([rho0[None], states[:, 0]]), drift)


@dataclass(frozen=True)
class ProbeModel:
    """Everything needed to evolve a probe at a given signal offset.

    The jump set comes from the offset-free Hamiltonian; the offset enters
    only through the coherent term, so the dissipative channels stay fixed
    while the signal is scanned and the generator at offset ``delta`` is
    ``superoperator(h) + delta * K_g``.
    """

    h: HermitianOperator
    g: HermitianOperator
    couplings: Tuple[HermitianOperator, ...]
    spectrum: BathSpectrum
    rho0: np.ndarray
    code: Optional[CodeSpace] = None
    gap_tol: Optional[float] = None

    def __post_init__(self) -> None:
        d = self.dim
        parts = [("g", self.g.entries), ("rho0", np.asarray(self.rho0))]
        parts += [(f"coupling {i}", a.entries) for i, a in enumerate(self.couplings)]
        for what, arr in parts:
            if arr.shape != (d, d):
                raise ValidationError(f"model {what} has shape {arr.shape}, but h has dim {d}")
        if self.code is not None and self.code.total_dim != d:
            raise ValidationError(f"model code has dim {self.code.total_dim}, but h has dim {d}")

    @property
    def dim(self) -> int:
        return self.h.dim

    def jump_set(self, tol: Tolerances = TOL) -> LindbladSet:
        """Jump operators of ``h`` at the model's ``gap_tol``, else the one ``tol`` sets."""
        return jump_operators(self.h, self.couplings, gap_tol=self.gap_tol, tol=tol)

    def generators(self, offsets: Sequence[float], tol: Tolerances = TOL) -> np.ndarray:
        """Stacked ``superoperator(h) + delta K_g``, ``K_g = -i[g, .]`` row-major."""
        return _offset_generators(self, self.jump_set(tol), offsets, tol)

    def hamiltonian(self, delta_omega: float) -> HermitianOperator:
        return HermitianOperator(_offset_hamiltonians(self, [delta_omega])[0])

    def evolve(self, delta_omega: float, cfg: SimConfig, tol: Tolerances = TOL) -> Trajectory:
        lset = self.jump_set(tol)
        return evolve(self.rho0, self.hamiltonian(delta_omega), lset, self.spectrum, cfg, tol=tol)

    def coherence_frame(self) -> Tuple[np.ndarray, np.ndarray]:
        if self.code is not None:
            return self.code.psi0.amplitudes, self.code.psi1.amplitudes
        eye = np.eye(self.dim, dtype=complex)
        return eye[0], eye[1]

    def coherences(self, rhos: np.ndarray) -> np.ndarray:
        """``|a^dag rho b|`` in the coherence frame ``(a, b)`` over a stack of states.

        Summed entrywise over each state, so a state's value does not depend
        on how many states are stacked with it.
        """
        a, b = self.coherence_frame()
        return np.abs((rhos * np.outer(a.conj(), b)).sum(axis=(-2, -1)))

    def coherence(self, rho: np.ndarray) -> float:
        return float(self.coherences(np.asarray(rho)[None])[0])

    def to_json_dict(self) -> dict:
        if self.spectrum.descriptor is None:
            raise ValidationError(
                "custom bath spectra have no JSON form; use a built-in shape"
            )
        out = {
            "h": operator_to_json(self.h),
            "g": operator_to_json(self.g),
            "couplings": [operator_to_json(a) for a in self.couplings],
            "spectrum": self.spectrum.descriptor,
            "rho0": operator_to_json(self.rho0),
        }
        if self.code is not None:
            out["code"] = self.code.to_json_dict()
        if self.gap_tol is not None:
            out["gap_tol"] = self.gap_tol
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ProbeModel":
        check_keys(obj, "model", ("h", "g", "couplings", "spectrum", "rho0"), ("code", "gap_tol"))
        docs = list(obj["couplings"]) + [obj["h"], obj["g"]]
        try:  # one Hermiticity check of the stack; on a refusal, one array at a time in order
            *couplings, h, g = HermitianOperator._stack([operator_from_json(a) for a in docs])
        except ValueError:  # a ValidationError, or operators of different shapes
            *couplings, h, g = map(hermitian_from_json, docs)
        return cls(
            h=h,
            g=g,
            couplings=tuple(couplings),
            spectrum=spectrum_from_json(obj["spectrum"], len(couplings)),
            rho0=operator_from_json(obj["rho0"]),
            code=CodeSpace.from_json_dict(obj["code"]) if obj.get("code") is not None else None,
            gap_tol=(finite_number(obj["gap_tol"], "model gap_tol")
                     if obj.get("gap_tol") is not None else None),
        )


def _offset_hamiltonians(model: ProbeModel, offsets: Sequence[float]) -> np.ndarray:
    """Stacked ``h + delta g``, one per offset; a non-finite or overflowing stack is
    refused as an operator would be, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        hams = model.h.entries + np.asarray(offsets, dtype=float)[:, None, None] * model.g.entries
    require_bounded(hams, "operator")
    return hams


def _offset_generators(
    model: ProbeModel, lset: LindbladSet, offsets: Sequence[float], tol: Tolerances
) -> np.ndarray:
    base = superoperator(model.h, lset, model.spectrum, tol=tol)
    k_g = commutator_superoperator(model.g.entries)
    return base + np.asarray(offsets, dtype=float)[:, None, None] * k_g


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Squared Uhlmann fidelity; equals |<a|b>|^2 on pure states.

    The kernel is evaluated on the significant eigenspace of ``rho`` only:
    populations below 1e-14 (relative) are spectral noise whose
    square root would otherwise pollute the value at the 1e-8 scale, far
    above the cancellation budget of nearly identical states.
    """
    rho = as_matrix(rho)
    sigma = as_matrix(sigma)
    vals, vecs = np.linalg.eigh(hermitian_part(rho))
    keep = vals > 1e-14 * max(float(vals.max()), 1e-300)
    root = np.sqrt(vals[keep])
    sub = vecs[:, keep]
    kernel = (root[:, None] * (sub.conj().T @ hermitian_part(sigma) @ sub)
              * root[None, :])
    ev = np.clip(np.linalg.eigvalsh(kernel), 0.0, None)
    return float(np.sum(np.sqrt(ev)) ** 2)


class QfiEstimate(NamedTuple):
    value: float
    reliable: bool
    spread: float


def _default_delta(model: ProbeModel) -> float:
    gnorm = float(np.abs(np.linalg.eigvalsh(model.g.entries)).max())
    return 1e-4 / max(gnorm, 1e-12)


def qfi_numeric(
    model: ProbeModel,
    t: float,
    cfg: Optional[SimConfig] = None,
    delta: Optional[float] = None,
    tol: Tolerances = TOL,
) -> QfiEstimate:
    """Fisher information from the fidelity of states at offset +-delta.

    Uses ``(1 - F)/(2 delta)^2`` with one Richardson step over delta halving;
    the two estimates disagreeing by more than ``tol.qfi_disagreement``
    flags the value unreliable (offset too large or fidelity at the noise
    floor).
    """
    delta = delta if delta is not None else _default_delta(model)
    offsets = (delta, -delta, delta / 2.0, -delta / 2.0)
    plus, minus, half_plus, half_minus = _grid_states(model, offsets, [t], cfg, tol)[0]
    coarse = (1.0 - fidelity(plus, minus)) / (2.0 * delta) ** 2
    fine = (1.0 - fidelity(half_plus, half_minus)) / delta ** 2
    value = (4.0 * fine - coarse) / 3.0
    spread = abs(fine - coarse) / max(abs(value), 1e-300)
    return QfiEstimate(value, spread <= tol.qfi_disagreement, spread)


def qfi_sld(
    model: ProbeModel,
    t: float,
    cfg: Optional[SimConfig] = None,
    tol: Tolerances = TOL,
) -> float:
    """Fisher information via the symmetric logarithmic derivative.

    Finite-differences the state over the offset and sums the spectral
    formula; unlike the fidelity route this stays accurate when the states
    are nearly orthogonal or the fidelity deficit underflows.
    """
    return float(_sld_series(model, [t], cfg, tol)[0][0])


def _sld_values(rhos: np.ndarray, drhos: np.ndarray) -> np.ndarray:
    """Spectral Fisher values ``sum 2 |<j| drho |k>|^2 / (p_j + p_k) / 4`` over eigenpairs of
    the Hermitian parts with ``p_j + p_k > 1e-12``: one stacked ``eigh``, one masked sum."""
    vals, vecs = np.linalg.eigh(hermitian_part(rhos))
    d = np.swapaxes(vecs.conj(), -2, -1) @ drhos @ vecs
    w = vals[..., :, None] + vals[..., None, :]
    terms = np.divide(2.0 * np.abs(d) ** 2, w, out=np.zeros_like(w), where=w > 1e-12)
    return terms.sum(axis=(-2, -1)) / 4.0


def crlb(qfi: float, k: int) -> float:
    """Single-parameter precision floor for ``k`` independent repetitions."""
    if k < 1:
        raise ValidationError("repetition count must be >= 1")
    if qfi < 0:
        raise ValidationError("Fisher information cannot be negative")
    if qfi == 0.0:
        return math.inf
    return 1.0 / (k * qfi)


# ---------------------------------------------------------------------------
# sweeps and diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingRecord:
    """One sweep row: both probes' Fisher information at ``t``, the protected
    probe's coherence and the one-shot bound ``crlb`` of its Fisher value."""

    t: float
    qfi_protected: float
    qfi_unprotected: float
    coherence: float
    crlb: float

    def __post_init__(self) -> None:
        if self.qfi_protected < 0 or self.qfi_unprotected < 0:
            raise ValidationError("Fisher information cannot be negative")
        if not (0.0 <= self.coherence <= 0.5 + 1e-9):
            raise ValidationError(f"coherence {self.coherence} outside [0, 1/2]")


def _grid_marks(tgrid: Sequence[float], dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Each time as ``_propagate``'s mark: the ends ``k``, whole steps of ``dt`` at or
    before it, with ``_step_count``'s 1e-12 slack, and the rests ``r = t - k dt``, 0
    within ``1e-12 dt``; a grid whose step count is not finite, past int64 or above
    ``MAX_STEPS`` is refused."""
    if len(tgrid):
        _step_count(tgrid[-1], dt)
    ends = np.floor(np.asarray(tgrid, dtype=float) / dt + 1e-12).astype(np.int64)
    rests = np.asarray(tgrid, dtype=float) - ends * dt
    return ends, np.where(rests > 1e-12 * dt, rests, 0.0)


def _grid_run(
    model: ProbeModel, offsets: Sequence[float], tgrid: Sequence[float],
    cfg: Optional[SimConfig], tol: Tolerances,
) -> tuple:
    """``_grid_states``'s checks and ``_propagate``'s arguments but ``tol``, in their order."""
    if not (all(0 < t < math.inf for t in tgrid) and all(a <= b for a, b in zip(tgrid, tgrid[1:]))):
        raise ValidationError("time grid must be positive, finite and nondecreasing")
    lset = model.jump_set(tol)
    if cfg is not None and cfg.dt is not None:
        dt = cfg.dt
    else:
        dt = _default_dt(_offset_hamiltonians(model, offsets), lset, model.spectrum, tol)
    ends, rests = _grid_marks(tgrid, dt)
    gens = _offset_generators(model, lset, offsets, tol)
    _check_stability(gens, dt)
    return gens, model.rho0, dt, ends, rests


def _grid_states(
    model: ProbeModel, offsets: Sequence[float], tgrid: Sequence[float],
    cfg: Optional[SimConfig], tol: Tolerances,
) -> np.ndarray:
    """States at every grid time and offset from one continuous batched run.

    Shape ``(len(tgrid), len(offsets), d, d)``.  Grid times must be
    positive, finite and nondecreasing; only ``cfg.dt`` is read.  The run
    steps at dt, and a grid time off the dt lattice is reached by one shorter
    step from the lattice state before it (``_grid_marks``).  A defaulted dt
    is the smallest of the offsets' defaults, so every offset takes the same
    steps; the jump set is built once for it and for the generators.
    """
    return _propagate(*_grid_run(model, offsets, tgrid, cfg, tol), tol)[0]


def _sld_probes(
    models: Sequence[ProbeModel], tgrid: Sequence[float], cfg: Optional[SimConfig], tol: Tolerances,
) -> list:
    """``_sld_series`` of each model.  Every model's run is set up and checked in order; then
    consecutive models of one generator size and dt share one ``_propagate`` call, from one
    initial state per generator, and one ``_sld_values`` call."""
    runs = [(d, *_grid_run(model, (0.0, d, -d), tgrid, cfg, tol))
            for model in models for d in [_default_delta(model)]]
    out = []
    for _, group in groupby(runs, lambda run: (run[1].shape, run[3])):  # generator size, dt
        deltas, gens, rho0s, dts, ends, rests = zip(*group)
        starts = np.repeat(np.stack(rho0s), 3, axis=0)
        states = _propagate(np.concatenate(gens), starts, dts[0], ends[0], rests[0], tol)[0]
        center = states[:, ::3]  # each model's offsets 0, +d and -d in turn
        drhos = (states[:, 1::3] - states[:, 2::3]) / (2.0 * np.array(deltas)[:, None, None])
        out += zip(_sld_values(center, drhos).T, np.swapaxes(center, 0, 1))
    return out


def _sld_series(
    model: ProbeModel, tgrid: Sequence[float], cfg: Optional[SimConfig], tol: Tolerances,
) -> Tuple[np.ndarray, np.ndarray]:
    """Spectral Fisher values at every grid time, by one ``_sld_values`` call, and the
    offset-0 states, from offsets 0 and +-d (``_default_delta``) integrated together."""
    return _sld_probes((model,), tgrid, cfg, tol)[0]


def scaling_sweep(
    protected: ProbeModel,
    unprotected: ProbeModel,
    tgrid: Sequence[float],
    cfg: Optional[SimConfig] = None,
    tol: Tolerances = TOL,
) -> List[ScalingRecord]:
    """Fisher information of both probes across a common time grid.

    Each probe integrates its three offsets (0 and +-d) together once
    across the whole grid, and two probes of one generator size and dt share
    that run (``_sld_probes``); per-time Fisher values use the spectral
    estimator, coherence tracks the protected probe's code-basis off-diagonal.
    A refusal of the shared run runs the probes again one at a time, protected
    first, so that the refusal is the one the first failing probe makes.
    """
    tgrid = [float(t) for t in tgrid]
    probes = (protected, unprotected)
    try:
        series = _sld_probes(probes, tgrid, cfg, tol)
    except ToolkitError:  # rerun outside the handler, so the refusal is not chained to this one
        series = None
    (qp, center_p), (qu, _) = series or [_sld_series(m, tgrid, cfg, tol) for m in probes]
    cols = zip(tgrid, qp.tolist(), qu.tolist(), protected.coherences(center_p).tolist())
    return [
        ScalingRecord(t=t, qfi_protected=p, qfi_unprotected=u, coherence=coh, crlb=crlb(p, 1))
        for t, p, u, coh in cols
    ]
