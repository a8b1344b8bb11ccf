"""Master-equation integration, Fisher-information estimates, and sweeps.

One propagation core serves every trajectory: fixed-step classical 4th order
as the step matrix ``M = I + A + A^2/2 + A^3/6 + A^4/24`` (``A = dt L``),
built once per generator and dt, with one stacked matmul per step advancing
all signal offsets of an estimate.  ``Trajectory.trace_drift`` is the largest
per-step trace error of ``M v`` before renormalization; past
``tol.trace_drift`` the run aborts.  All records are checked for positivity
in one stack.  Fisher information follows the convention
``F_Q = t^2 Var(G_eff)``; the numeric routes (Bures fidelity finite
differences, and a symmetric-logarithmic-derivative estimator used where
fidelities underflow) are scaled to match it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .codespace import CodeSpace, effective_generator
from .errors import NumericalError, ValidationError
from .lindblad import BathSpectrum, LindbladSet, jump_operators, spectrum_from_json, superoperator
from .operators import HermitianOperator, as_matrix, eigh_fixed
from .tolerances import TOL, Tolerances


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration parameters.

    ``dt`` of None picks 1e-3 over the generator scale at evolve time;
    ``record_stride`` thins the stored trajectory.
    """

    t_final: float
    dt: Optional[float] = None
    record_stride: int = 1

    def __post_init__(self) -> None:
        if self.t_final <= 0:
            raise ValidationError("t_final must be positive")
        if self.dt is not None and (self.dt <= 0 or self.dt > self.t_final):
            raise ValidationError("dt must satisfy 0 < dt <= t_final")
        if self.record_stride < 1:
            raise ValidationError("record_stride must be >= 1")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SimConfig":
        unknown = sorted(set(obj) - {"t_final", "dt", "record_stride"})
        if unknown:
            raise ValidationError(f"unknown simulation config keys: {unknown}")
        return cls(
            t_final=float(obj["t_final"]),
            dt=float(obj["dt"]) if obj.get("dt") is not None else None,
            record_stride=int(obj.get("record_stride", 1)),
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
        float(np.trace(spectrum.rate(nu, tol=tol)).real) for nu in lset.transitions
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


def _propagate(
    gens: np.ndarray, rho0: np.ndarray, legs: Sequence[Tuple[float, int]], tol: Tolerances
) -> Tuple[np.ndarray, float]:
    """Advance ``rho0`` under each stacked generator through ``legs`` of ``(dt, steps)``.

    Returns the states after each leg, ``(legs, generators, d, d)``, and the drift.
    """
    rho0 = as_matrix(rho0)
    if abs(np.trace(rho0).real - 1.0) > 1e-8:
        raise ValidationError("initial state must have unit trace")
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


# a rate PSD check that never fires, for generators checked per call instead
_UNCHECKED_RATES = dataclasses.replace(TOL, psd=math.inf)


@dataclass(frozen=True)
class ProbeModel:
    """Everything needed to evolve a probe at a given signal offset.

    The jump set and the generator are built once per gap tolerance from the
    offset-free Hamiltonian; the offset enters only through the coherent
    term, so the dissipative channels stay fixed while the signal is scanned
    and the generator at offset ``delta`` is ``generator + delta * K_g``.
    """

    h: HermitianOperator
    g: HermitianOperator
    couplings: Tuple[HermitianOperator, ...]
    spectrum: BathSpectrum
    rho0: np.ndarray
    code: Optional[CodeSpace] = None
    gap_tol: Optional[float] = None

    @property
    def dim(self) -> int:
        return self.h.dim

    def _memo(self, name: str, tol: Tolerances, build):
        """``build()`` once per model and per tolerance that ``jump_operators`` reads."""
        built = self.__dict__.setdefault("_built", {})
        gap = self.gap_tol if self.gap_tol is not None else (tol.gap_rel, tol.gap_abs)
        key = (name, gap, tol.hermiticity)
        return built[key] if key in built else built.setdefault(key, build())

    def jump_set(self, tol: Tolerances = TOL) -> LindbladSet:
        return self._memo("lset", tol, lambda: jump_operators(
            self.h, self.couplings, gap_tol=self.gap_tol, tol=tol))

    def base_generator(self, tol: Tolerances = TOL) -> np.ndarray:
        """Offset-free generator on row-major flattened densities.

        Assembled without the rates' PSD check, which :meth:`generators`
        applies with each caller's ``tol.psd``.
        """
        return self._memo("generator", tol, lambda: superoperator(
            self.h, self.jump_set(tol), self.spectrum, tol=_UNCHECKED_RATES))

    lset = property(jump_set)
    generator = property(base_generator)

    def generators(self, offsets: Sequence[float], tol: Tolerances = TOL) -> np.ndarray:
        """Stacked ``generator + delta K_g``, ``K_g = -i (g (x) I - I (x) g^T)`` row-major."""
        for nu in self.jump_set(tol).transitions:
            self.spectrum.rate(nu, tol=tol)
        g, eye = self.g.entries, np.eye(self.dim)
        k_g = -1j * (np.kron(g, eye) - np.kron(eye, g.T))
        return self.base_generator(tol) + np.asarray(offsets, dtype=float)[:, None, None] * k_g

    def hamiltonian(self, delta_omega: float) -> HermitianOperator:
        return HermitianOperator(self.h.entries + delta_omega * self.g.entries)

    def evolve(self, delta_omega: float, cfg: SimConfig, tol: Tolerances = TOL) -> Trajectory:
        lset = self.jump_set(tol)
        return evolve(self.rho0, self.hamiltonian(delta_omega), lset, self.spectrum, cfg, tol=tol)

    def coherence_frame(self) -> Tuple[np.ndarray, np.ndarray]:
        if self.code is not None:
            return self.code.psi0.amplitudes, self.code.psi1.amplitudes
        e0 = np.zeros(self.dim, dtype=complex)
        e1 = np.zeros(self.dim, dtype=complex)
        e0[0] = 1.0
        e1[1] = 1.0
        return e0, e1

    def coherences(self, rhos: np.ndarray) -> np.ndarray:
        """``|a^dag rho b|`` in the coherence frame ``(a, b)`` over a stack of states."""
        a, b = self.coherence_frame()
        return np.abs(a.conj() @ rhos @ b)

    def coherence(self, rho: np.ndarray) -> float:
        return float(self.coherences(np.asarray(rho)[None])[0])

    def to_json_dict(self) -> dict:
        from .jsonio import operator_to_json

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
        from .jsonio import operator_from_json, state_from_json

        couplings = tuple(
            HermitianOperator(operator_from_json(a)) for a in obj["couplings"]
        )
        spectrum = spectrum_from_json(obj["spectrum"], len(couplings))
        if "rho0" in obj:
            rho0 = operator_from_json(obj["rho0"])
        else:
            psi = state_from_json(obj["psi0"]).amplitudes
            rho0 = np.outer(psi, psi.conj())
        code = (
            CodeSpace.from_json_dict(obj["code"]) if obj.get("code") is not None else None
        )
        return cls(
            h=HermitianOperator(operator_from_json(obj["h"])),
            g=HermitianOperator(operator_from_json(obj["g"])),
            couplings=couplings,
            spectrum=spectrum,
            rho0=rho0,
            code=code,
            gap_tol=float(obj["gap_tol"]) if obj.get("gap_tol") is not None else None,
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


def _final_states(
    model: ProbeModel, offsets: Sequence[float], t: float,
    cfg: Optional[SimConfig], tol: Tolerances,
) -> np.ndarray:
    """States at time ``t``, one per offset, from one batched run."""
    run = SimConfig(t_final=t, dt=cfg.dt if cfg is not None else None)
    return _grid_states(model, offsets, [t], run, tol)[0]


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
    plus, minus, half_plus, half_minus = _final_states(model, offsets, t, cfg, tol)
    coarse = (1.0 - fidelity(plus, minus)) / (2.0 * delta) ** 2
    fine = (1.0 - fidelity(half_plus, half_minus)) / delta ** 2
    value = (4.0 * fine - coarse) / 3.0
    spread = abs(fine - coarse) / max(abs(value), 1e-300)
    return QfiEstimate(value, spread <= tol.qfi_disagreement, spread)


def qfi_sld(
    model: ProbeModel,
    t: float,
    cfg: Optional[SimConfig] = None,
    delta: Optional[float] = None,
    tol: Tolerances = TOL,
) -> float:
    """Fisher information via the symmetric logarithmic derivative.

    Finite-differences the state over the offset and sums the spectral
    formula; unlike the fidelity route this stays accurate when the states
    are nearly orthogonal or the fidelity deficit underflows.
    """
    delta = delta if delta is not None else _default_delta(model)
    center, plus, minus = _final_states(model, (0.0, delta, -delta), t, cfg, tol)
    return _sld_value(center, (plus - minus) / (2.0 * delta))


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

    CSV_HEADER = "t,qfi_protected,qfi_unprotected,coherence,crlb"

    def csv_row(self) -> str:
        vals = (self.t, self.qfi_protected, self.qfi_unprotected,
                self.coherence, self.crlb)
        return ",".join(f"{v:.11e}" for v in vals)


def _grid_states(
    model: ProbeModel, offsets: Sequence[float], tgrid: Sequence[float],
    cfg: Optional[SimConfig], tol: Tolerances,
) -> np.ndarray:
    """States at every grid time and offset from one continuous batched run.

    Shape ``(len(tgrid), len(offsets), d, d)``.  Each grid interval takes
    the fewest equal steps no longer than dt; a defaulted dt is the smallest
    of the offsets' defaults, so every offset takes the same steps.
    """
    gens, lset = model.generators(offsets, tol), model.jump_set(tol)
    dt = cfg.dt if cfg is not None and cfg.dt is not None else min(
        _default_dt(model.hamiltonian(d), lset, model.spectrum, tol) for d in offsets)
    _check_stability(gens, dt, tol)
    legs = []
    t_prev = 0.0
    for t in tgrid:
        span = t - t_prev
        if span < 0:
            raise ValidationError("time grid must be nondecreasing")
        n = max(1, int(math.ceil(span / dt - 1e-12))) if span > 0 else 0
        legs.append((span / max(n, 1), n))
        t_prev = t
    return _propagate(gens, model.rho0, legs, tol)[0]


def scaling_sweep(
    protected: ProbeModel,
    unprotected: ProbeModel,
    tgrid: Sequence[float],
    cfg: Optional[SimConfig] = None,
    delta: Optional[float] = None,
    tol: Tolerances = TOL,
) -> List[ScalingRecord]:
    """Fisher information of both probes across a common time grid.

    Each probe integrates its three offsets (0 and +-delta) together once
    across the whole grid; per-time Fisher values use the spectral estimator,
    coherence tracks the protected probe's code-basis off-diagonal.
    """
    tgrid = [float(t) for t in tgrid]
    if any(t <= 0 for t in tgrid):
        raise ValidationError("sweep times must be positive")
    per_model = []
    for model in (protected, unprotected):
        d = delta if delta is not None else _default_delta(model)
        states = _grid_states(model, (0.0, d, -d), tgrid, cfg, tol)
        qfis = [_sld_value(c, (p - m) / (2.0 * d)) for c, p, m in states]
        per_model.append((qfis, states[:, 0]))
    (qp, center_p), (qu, _) = per_model
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
    vals, vecs = eigh_fixed(h0.entries)
    if gap_tol is None:
        gap_tol = max(tol.gap_rel * float(np.abs(vals).max()), tol.gap_abs)
    if len(vals) > 1 and np.diff(vals).min() < gap_tol:
        raise ValidationError("spectrum is degenerate at the grouping tolerance")

    gmat = vecs.conj().T @ g.entries @ vecs
    dim = len(vals)
    coeff = np.zeros((dim, dim), dtype=complex)
    for n in range(dim):
        for m in range(dim):
            if m != n:
                coeff[m, n] = gmat[m, n] / (vals[n] - vals[m])
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
