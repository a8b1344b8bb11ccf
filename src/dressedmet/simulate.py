"""Master-equation integration, Fisher-information estimates, and sweeps.

One propagation core serves every trajectory: fixed-step classical 4th order
as the step matrix ``M = I + A + A^2/2 + A^3/6 + A^4/24`` (``A = dt L``),
kept as the increment ``M - I`` and built once per run of steps of one dt.
One stacked matmul advances a block of steps for all signal offsets of an
estimate, through the increments ``M^j - I`` of its powers.  The trace is
renormalized once per block; a step's drift is the ratio of consecutive
traces, ``|T_j / T_(j-1) - 1|``, which is the trace error of ``M v`` for the
renormalized ``v``.  ``Trajectory.trace_drift`` is the largest step drift;
the first step past ``tol.trace_drift`` aborts the run.  All records are
checked for positivity in one stack.  Fisher information follows the convention
``F_Q = t^2 Var(G_eff)``; the numeric routes (Bures fidelity finite
differences, and a symmetric-logarithmic-derivative estimator used where
fidelities underflow) are scaled to match it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .codespace import CodeSpace, effective_generator
from .errors import NumericalError, ValidationError
from .jsonio import (
    check_keys, finite_number, hermitian_from_json, operator_from_json, operator_to_json,
    positive_whole,
)
from .lindblad import (
    BathSpectrum,
    LindbladSet,
    commutator_superoperator,
    grouping_tolerance,
    jump_operators,
    spectrum_from_json,
    superoperator,
)
from .operators import HermitianOperator, as_matrix, eigh_fixed, first_order_mixing
from .tolerances import TOL, Tolerances


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


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    trace_drift: float

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _default_dt(
    h_s: HermitianOperator, lset: LindbladSet, spectrum: BathSpectrum, tol: Tolerances
) -> float:
    hnorm = float(np.abs(np.linalg.eigvalsh(h_s.entries)).max())
    total_rate = sum(
        float(np.trace(spectrum.rate(nu, tol=tol)).real) for nu in lset.frequencies
    )
    return 1e-3 / max(hnorm, total_rate, 1e-3)


def _check_stability(gens: np.ndarray, dt: float, tol: Tolerances) -> None:
    gen_norm = float(np.linalg.norm(gens, 2, axis=(-2, -1)).max())
    if dt * gen_norm >= tol.stability:
        raise ValidationError(f"dt*|generator| = {dt * gen_norm:.3e} violates the stability guard")


def _check_states(records: np.ndarray, tol: Tolerances) -> None:
    """Positivity of ``(records, offsets, d, d)``; reports the first failing record's minimum."""
    herm = 0.5 * (records + np.swapaxes(records, -2, -1).conj())
    low = np.linalg.eigvalsh(herm).min(axis=(-2, -1))
    bad = np.flatnonzero(low < tol.positivity_floor)
    if bad.size:
        raise NumericalError(f"state lost positivity: min eigenvalue {low[bad[0]]:.3e}")


def _step_increment(gens: np.ndarray, dt: float) -> np.ndarray:
    """``M - I`` for the RK4 step matrix ``M = sum_{j<=4} (dt L)^j / j!``; leaving
    out ``I`` keeps the rounding of ``I + dt L`` from repeating at every step."""
    a = dt * gens
    eye = np.eye(gens.shape[-1])
    poly = eye + a / 4.0
    for j in (3.0, 2.0):
        poly = eye + (a / j) @ poly
    return a @ poly


def _block_size(gen_dim: int) -> int:
    """Steps per block: the largest power of two ``B`` with ``B * D^2 <= 2^15``, at least 1."""
    return 1 << max(0, ((1 << 15) // gen_dim ** 2).bit_length() - 1)


def _squarings(inc: np.ndarray, count: int) -> List[np.ndarray]:
    """``M^(2^i) - I`` for ``i < count`` from ``inc = M - I``, each as ``2 P + P P``."""
    out = [inc]
    while len(out) < count:
        out.append(2.0 * out[-1] + out[-1] @ out[-1])
    return out


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


def _drift_abort(err: float, records: np.ndarray, tol: Tolerances) -> None:
    # a record that already lost positivity failed first
    _check_states(records, tol)
    raise NumericalError(f"trace drift {err:.3e} exceeds {tol.trace_drift:.0e}")


def _propagate(
    gens: np.ndarray, rho0: np.ndarray, legs: Sequence[Tuple[float, int]], tol: Tolerances
) -> Tuple[np.ndarray, float]:
    """Advance ``rho0`` under each stacked generator through ``legs`` of ``(dt, steps)``.

    Returns the states after each leg, ``(legs, generators, d, d)``, and the drift.
    Consecutive legs of one ``dt`` form a run, advanced up to ``_block_size``
    steps per numpy call.  A run of several legs records inside its blocks, so
    it applies a table of the increments ``M^j - I``; a run of one leg records
    once, so it takes its step traces from the trace rows ``1^T (M^j - I)`` and
    advances by the squarings ``M^(2^i) - I``.  A step's drift is
    ``|T_j / T_(j-1) - 1|`` over consecutive traces ``T``: the trace error of
    ``M v`` for the renormalized ``v``.
    """
    rho0 = as_matrix(rho0)
    if not np.isfinite(rho0).all():
        raise ValidationError("initial state must be finite")
    if abs(np.trace(rho0).real - 1.0) > 1e-8:
        raise ValidationError("initial state must have unit trace")
    if np.abs(rho0 - rho0.conj().T).max() > tol.hermiticity:
        raise ValidationError("initial state must be Hermitian")
    _check_states(rho0[None, None], tol)
    dim = rho0.shape[0]
    trace_row = np.eye(dim).reshape(-1)
    vecs = np.repeat(rho0.reshape(1, -1).astype(complex), len(gens), axis=0)
    records = np.empty((len(legs), len(gens), dim, dim), dtype=complex)
    ends = np.cumsum([n for _, n in legs], dtype=np.int64)
    block = _block_size(gens.shape[-1])
    drift = 0.0
    lo = 0
    while lo < len(legs):
        dt = legs[lo][0]
        hi = lo + 1
        while hi < len(legs) and legs[hi][0] == dt:
            hi += 1
        run_ends = ends[lo:hi] - (ends[lo - 1] if lo else 0)
        total = int(run_ends[-1])
        span = min(block, total)
        at_start = int(np.searchsorted(run_ends, 0, side="right"))
        records[lo:lo + at_start] = vecs.reshape(-1, dim, dim)
        if total and hi - lo > 1:  # records inside the blocks: a table of increments
            table = _doubled(_step_increment(gens, dt), span)
            for done in range(0, total, block):
                n = min(block, total - done)
                states = vecs + np.matmul(table[:n], vecs[..., None])[..., 0]
                traces = (states @ trace_row).real
                err, passed = _step_drift((vecs @ trace_row).real, traces, tol)
                k0, k1 = np.searchsorted(run_ends, (done, done + passed), side="right")
                at = run_ends[k0:k1] - done - 1
                records[lo + k0:lo + k1] = (
                    states[at] / traces[at][..., None]).reshape(-1, len(gens), dim, dim)
                if passed < n:
                    _drift_abort(err[passed], records[:lo + k1], tol)
                drift = max(drift, float(err.max()))
                vecs = states[-1] / traces[-1][:, None]
        elif total:  # one record at the end: trace rows and squarings
            inc = _step_increment(gens, dt)
            squares = _squarings(inc, span.bit_length())
            rows = _doubled((trace_row @ inc)[:, None], span, squares)
            for done in range(0, total, block):
                n = min(block, total - done)
                before = (vecs @ trace_row).real
                traces = before + (rows[:n] @ vecs[..., None])[..., 0, 0].real
                err, passed = _step_drift(before, traces, tol)
                if passed < n:
                    _drift_abort(err[passed], records[:lo], tol)
                drift = max(drift, float(err.max()))
                for i in range(n.bit_length()):
                    if n >> i & 1:
                        vecs = vecs + np.matmul(squares[i], vecs[..., None])[..., 0]
                vecs = vecs / (vecs @ trace_row).real[:, None]
            records[lo] = vecs.reshape(-1, dim, dim)
        lo = hi
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
    """Integrate the master equation from ``rho0`` over ``cfg.t_final``."""
    rho0 = as_matrix(rho0)
    gens = superoperator(h_s, lset, spectrum, tol=tol)[None]
    dt = cfg.dt if cfg.dt is not None else _default_dt(h_s, lset, spectrum, tol)
    _check_stability(gens, dt, tol)
    n_steps = max(1, int(math.ceil(cfg.t_final / dt - 1e-12)))
    dt = cfg.t_final / n_steps
    full, rest = divmod(n_steps, cfg.record_stride)
    chunks = [cfg.record_stride] * full + ([rest] if rest else [])
    states, drift = _propagate(gens, rho0, [(dt, n) for n in chunks], tol)
    times = np.cumsum([0] + chunks) * dt
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
        base = superoperator(self.h, self.jump_set(tol), self.spectrum, tol=tol)
        k_g = commutator_superoperator(self.g.entries)
        return base + np.asarray(offsets, dtype=float)[:, None, None] * k_g

    def hamiltonian(self, delta_omega: float) -> HermitianOperator:
        return HermitianOperator(self.h.entries + delta_omega * self.g.entries)

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
        couplings = tuple(hermitian_from_json(a) for a in obj["couplings"])
        return cls(
            h=hermitian_from_json(obj["h"]),
            g=hermitian_from_json(obj["g"]),
            couplings=couplings,
            spectrum=spectrum_from_json(obj["spectrum"], len(couplings)),
            rho0=operator_from_json(obj["rho0"]),
            code=CodeSpace.from_json_dict(obj["code"]) if obj.get("code") is not None else None,
            gap_tol=(finite_number(obj["gap_tol"], "model gap_tol")
                     if obj.get("gap_tol") is not None else None),
        )


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def fidelity(rho: np.ndarray, sigma: np.ndarray, rank_floor: float = 1e-14) -> float:
    """Squared Uhlmann fidelity; equals |<a|b>|^2 on pure states.

    The kernel is evaluated on the significant eigenspace of ``rho`` only:
    populations below ``rank_floor`` (relative) are spectral noise whose
    square root would otherwise pollute the value at the 1e-8 scale, far
    above the cancellation budget of nearly identical states.
    """
    rho = as_matrix(rho)
    sigma = as_matrix(sigma)
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    keep = vals > rank_floor * max(float(vals.max()), 1e-300)
    root = np.sqrt(vals[keep])
    sub = vecs[:, keep]
    kernel = (root[:, None] * (sub.conj().T @ (0.5 * (sigma + sigma.conj().T)) @ sub)
              * root[None, :])
    ev = np.clip(np.linalg.eigvalsh(kernel), 0.0, None)
    return float(np.sum(np.sqrt(ev)) ** 2)


def qfi_analytic(code: CodeSpace, g, t: float) -> float:
    """Protected-regime value ``t^2 Var(G_eff)`` on the equal superposition."""
    return t * t * effective_generator(code, g).var


@dataclass(frozen=True)
class QfiEstimate:
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
    return _sld_series(model, [t], cfg, tol)[0][0]


def _sld_value(rho: np.ndarray, drho: np.ndarray, floor: float = 1e-12) -> float:
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    d = vecs.conj().T @ drho @ vecs
    w = vals[:, None] + vals[None, :]
    keep = w > floor
    return float(np.sum(2.0 * np.abs(d[keep]) ** 2 / w[keep])) / 4.0


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


def _grid_states(
    model: ProbeModel, offsets: Sequence[float], tgrid: Sequence[float],
    cfg: Optional[SimConfig], tol: Tolerances,
) -> np.ndarray:
    """States at every grid time and offset from one continuous batched run.

    Shape ``(len(tgrid), len(offsets), d, d)``.  Grid times must be
    positive, finite and nondecreasing; only ``cfg.dt`` is read.  Each grid
    interval takes the fewest equal steps no longer than dt; a defaulted dt
    is the smallest of the offsets' defaults, so every offset takes the same
    steps.
    """
    if not (all(0 < t < math.inf for t in tgrid) and all(a <= b for a, b in zip(tgrid, tgrid[1:]))):
        raise ValidationError("time grid must be positive, finite and nondecreasing")
    gens = model.generators(offsets, tol)
    if cfg is not None and cfg.dt is not None:
        dt = cfg.dt
    else:
        lset = model.jump_set(tol)
        dt = min(_default_dt(model.hamiltonian(d), lset, model.spectrum, tol) for d in offsets)
    _check_stability(gens, dt, tol)
    legs = []
    t_prev = 0.0
    for t in tgrid:
        span = t - t_prev
        n = max(1, int(math.ceil(span / dt - 1e-12))) if span > 0 else 0
        legs.append((span / max(n, 1), n))
        t_prev = t
    return _propagate(gens, model.rho0, legs, tol)[0]


def _sld_series(
    model: ProbeModel, tgrid: Sequence[float], cfg: Optional[SimConfig], tol: Tolerances,
) -> Tuple[List[float], np.ndarray]:
    """Spectral Fisher values at every grid time, from offsets 0 and +-d
    (``_default_delta``) integrated together, and the offset-0 states."""
    d = _default_delta(model)
    states = _grid_states(model, (0.0, d, -d), tgrid, cfg, tol)
    return [_sld_value(c, (p - m) / (2.0 * d)) for c, p, m in states], states[:, 0]


def scaling_sweep(
    protected: ProbeModel,
    unprotected: ProbeModel,
    tgrid: Sequence[float],
    cfg: Optional[SimConfig] = None,
    tol: Tolerances = TOL,
) -> List[ScalingRecord]:
    """Fisher information of both probes across a common time grid.

    Each probe integrates its three offsets (0 and +-d) together once
    across the whole grid; per-time Fisher values use the spectral estimator,
    coherence tracks the protected probe's code-basis off-diagonal.
    """
    tgrid = [float(t) for t in tgrid]
    qp, center_p = _sld_series(protected, tgrid, cfg, tol)
    qu, _ = _sld_series(unprotected, tgrid, cfg, tol)
    return [
        ScalingRecord(
            t=t,
            qfi_protected=qp[i],
            qfi_unprotected=qu[i],
            coherence=float(coh),
            crlb=crlb(qp[i], 1) if qp[i] > 0 else math.inf,
        )
        for i, (t, coh) in enumerate(zip(tgrid, protected.coherences(center_p)))
    ]


def loglog_slope(ts: Sequence[float], vals: Sequence[float]) -> float:
    """Least-squares slope of log(vals) against log(ts)."""
    x = np.log(np.asarray(ts, dtype=float))
    y = np.log(np.asarray(vals, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def final_decade_slope(records: Sequence[ScalingRecord], which: str) -> float:
    """Log-log slope over the last factor-10 span of the time grid."""
    ts = np.array([r.t for r in records])
    vals = np.array([getattr(r, which) for r in records])
    keep = ts >= ts[-1] / 10.0
    return loglog_slope(ts[keep], vals[keep])


@dataclass(frozen=True)
class LeakageReport:
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
    if not 0.0 < gap_tol < np.inf:
        raise ValidationError("gap_tol must be finite and positive")
    if len(vals) > 1 and np.diff(vals).min() < gap_tol:
        raise ValidationError("spectrum is degenerate at the grouping tolerance")
    dim = len(vals)
    corrections = tuple(
        float(delta_omega * np.linalg.norm(coeff[:, n])) for n in range(dim)
    )
    max_ratio = float(delta_omega * np.abs(coeff).max())

    errs = []
    deltas = [delta_omega, delta_omega / 2.0, delta_omega / 4.0]
    for d in deltas:
        exact_vals, exact_vecs = eigh_fixed(h0.entries + d * g.entries)
        worst = 0.0
        for n in range(dim):
            pred = vecs[:, n] + d * (vecs @ coeff[:, n])
            pred = pred / np.linalg.norm(pred)
            overlaps = np.abs(exact_vecs.conj().T @ pred)
            j = int(np.argmax(overlaps))
            phase = np.vdot(exact_vecs[:, j], pred)
            phase = phase / abs(phase)
            worst = max(worst, float(np.linalg.norm(exact_vecs[:, j] * phase - pred)))
        errs.append(worst)
    exponent = loglog_slope(deltas, errs)
    return LeakageReport(corrections, max_ratio, float(exponent))
