"""Frequency-resolved jump operators and the secular master-equation generator.

A Hermitian coupling ``A`` splits across the eigenstructure of the system
Hamiltonian into blocks ``L(nu) = sum over eigenvalue pairs with gap nu of
P_e A P_e'``.  The generator keeps only terms diagonal in ``nu`` (secular
form); the bath enters through a rate matrix ``gamma(nu)`` over coupling
indices and an optional Hamiltonian-renormalization coefficient matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalError, ValidationError
from .operators import HermitianOperator, as_matrix, frobenius
from .tolerances import TOL, Tolerances


class Regime(enum.Enum):
    """Which transition frequencies the bath can drive.

    DEPHASING_ONLY keeps nu = 0 terms, LOW_TEMPERATURE adds decay (nu > 0),
    FULL_THERMAL also drives excitation (nu < 0).
    """

    DEPHASING_ONLY = "dephasing-only"
    LOW_TEMPERATURE = "low-temperature"
    FULL_THERMAL = "full-thermal"


def _regime_mask(regime: Regime, nu: float) -> bool:
    if regime is Regime.DEPHASING_ONLY:
        return nu == 0.0
    if regime is Regime.LOW_TEMPERATURE:
        return nu >= 0.0
    return True


@dataclass
class BathSpectrum:
    """Rate matrix over coupling indices, evaluated per transition frequency.

    ``gamma`` maps a frequency to a PSD ``n_couplings x n_couplings`` matrix;
    the regime zeroes out frequencies the bath cannot drive, so callers never
    need to encode that in the callback.  Evaluations are cached per binned
    frequency since the generator only ever samples the finitely many realized
    gaps.  ``lamb_coeffs`` optionally supplies the Hermitian coefficient matrix
    of the bath-induced Hamiltonian shift; the default is no shift.
    """

    regime: Regime
    gamma: Callable[[float], np.ndarray]
    n_couplings: int
    lamb_coeffs: Optional[Callable[[float], np.ndarray]] = None
    descriptor: Optional[dict] = None
    _cache: Dict[float, tuple] = field(default_factory=dict, repr=False)

    def rate(self, nu: float, tol: Tolerances = TOL) -> np.ndarray:
        """PSD rate matrix at ``nu``, zero when the regime excludes ``nu``.

        The cache keeps the Hermitian matrix with its smallest eigenvalue and
        norm, so every call, cached or not, applies its own ``tol.psd``.
        """
        nu = float(nu)
        cached = self._cache.get(nu)
        if cached is None:
            k = self.n_couplings
            if not _regime_mask(self.regime, nu):
                cached = (np.zeros((k, k)), 0.0, 1.0)
            else:
                mat = np.atleast_2d(np.asarray(self.gamma(nu), dtype=complex))
                if mat.shape == (1, 1) and k > 1:
                    mat = mat[0, 0] * np.eye(k, dtype=complex)
                if mat.shape != (k, k):
                    raise ValidationError(
                        f"rate matrix at nu={nu} has shape {mat.shape}, "
                        f"expected ({k}, {k})"
                    )
                if frobenius(mat - mat.conj().T) > TOL.hermiticity * max(
                    1.0, frobenius(mat)
                ):
                    raise ValidationError(f"rate matrix at nu={nu} is not Hermitian")
                mat = 0.5 * (mat + mat.conj().T)
                low = float(np.linalg.eigvalsh(mat).min())
                cached = (mat, low, max(1.0, frobenius(mat)))
            self._cache[nu] = cached
        mat, low, scale = cached
        if low < -tol.psd * scale:
            raise ValidationError(f"rate matrix at nu={nu} has negative eigenvalue {low}")
        return mat

    def lamb(self, nu: float) -> Optional[np.ndarray]:
        """Hermitian shift-coefficient matrix at ``nu``, or None if unset."""
        if self.lamb_coeffs is None:
            return None
        k = self.n_couplings
        mat = np.atleast_2d(np.asarray(self.lamb_coeffs(float(nu)), dtype=complex))
        if mat.shape == (1, 1) and k > 1:
            mat = mat[0, 0] * np.eye(k, dtype=complex)
        if mat.shape != (k, k):
            raise ValidationError(
                f"shift matrix at nu={nu} has shape {mat.shape}, expected ({k}, {k})"
            )
        return 0.5 * (mat + mat.conj().T)

    # -- built-in spectral shapes -------------------------------------------

    @classmethod
    def flat(
        cls,
        rate: float,
        n_couplings: int,
        regime: Regime = Regime.LOW_TEMPERATURE,
    ) -> "BathSpectrum":
        """Constant rate at every frequency the regime admits."""
        g = float(rate)

        def gamma(nu: float) -> np.ndarray:
            return g * np.eye(n_couplings)

        desc = {"regime": regime.value, "gamma": {"kind": "flat", "rate": g}}
        return cls(regime, gamma, n_couplings, descriptor=desc)

    @classmethod
    def ohmic(
        cls,
        rate: float,
        cutoff: float,
        n_couplings: int,
        regime: Regime = Regime.LOW_TEMPERATURE,
    ) -> "BathSpectrum":
        """Linear-in-frequency rate with exponential cutoff, zero at nu <= 0."""
        g, nu_c = float(rate), float(cutoff)
        if nu_c <= 0:
            raise ValidationError("ohmic cutoff must be positive")

        def gamma(nu: float) -> np.ndarray:
            val = g * nu * np.exp(-nu / nu_c) if nu > 0 else 0.0
            return val * np.eye(n_couplings)

        desc = {
            "regime": regime.value,
            "gamma": {"kind": "ohmic", "rate": g, "cutoff": nu_c},
        }
        return cls(regime, gamma, n_couplings, descriptor=desc)

    @classmethod
    def peak0(cls, rate: float, n_couplings: int) -> "BathSpectrum":
        """Rate concentrated at nu = 0: pure dephasing."""
        g = float(rate)

        def gamma(nu: float) -> np.ndarray:
            return (g if nu == 0 else 0.0) * np.eye(n_couplings)

        desc = {
            "regime": Regime.DEPHASING_ONLY.value,
            "gamma": {"kind": "peak0", "rate": g},
        }
        return cls(Regime.DEPHASING_ONLY, gamma, n_couplings, descriptor=desc)


_SHAPE_BUILDERS = {
    "flat": lambda params, k, regime: BathSpectrum.flat(
        params["rate"], k, regime=regime
    ),
    "ohmic": lambda params, k, regime: BathSpectrum.ohmic(
        params["rate"], params["cutoff"], k, regime=regime
    ),
    "peak0": lambda params, k, regime: BathSpectrum.peak0(params["rate"], k),
}

_REGIMES = {r.value: r for r in Regime}


def spectrum_from_json(obj: dict, n_couplings: int) -> BathSpectrum:
    """Build a spectrum from ``{"regime": ..., "gamma": {"kind": ..., ...}}``."""
    try:
        regime = _REGIMES[obj["regime"]]
        gamma_cfg = dict(obj["gamma"])
        kind = gamma_cfg.pop("kind")
        builder = _SHAPE_BUILDERS[kind]
    except KeyError as exc:
        raise ValidationError(f"bad spectrum config: missing or unknown {exc}")
    return builder(gamma_cfg, n_couplings, regime)


@dataclass(frozen=True)
class LindbladSet:
    """Map from binned transition frequency to one jump operator per coupling.

    Frequencies come in exact +/- pairs and the blocks satisfy
    ``L_a(nu)^dag = L_a(-nu)`` as well as ``sum_nu L_a(nu) = A_a``.
    """

    transitions: Dict[float, List[np.ndarray]]
    n_couplings: int

    @property
    def frequencies(self) -> Tuple[float, ...]:
        return tuple(sorted(self.transitions))

    def adjoint_defect(self) -> float:
        """Worst deviation from the +/- frequency adjoint pairing."""
        worst = 0.0
        for nu, blocks in self.transitions.items():
            partner = self.transitions.get(-nu)
            if partner is None:
                worst = max(worst, max(frobenius(b) for b in blocks))
                continue
            for b, p in zip(blocks, partner):
                worst = max(worst, frobenius(b.conj().T - p))
        return worst

    def completeness_defect(self, couplings: Sequence[np.ndarray]) -> float:
        """Worst deviation of the frequency sum from the original coupling."""
        worst = 0.0
        for alpha, a in enumerate(couplings):
            total = sum(blocks[alpha] for blocks in self.transitions.values())
            worst = max(worst, frobenius(total - as_matrix(a)))
        return worst


def eigendecompose_grouped(h: HermitianOperator, gap_tol: float) -> List[Tuple[float, np.ndarray]]:
    """Cluster the spectrum of ``h`` and return (energy, projector) per group.

    Adjacent eigenvalues closer than ``gap_tol`` merge (single linkage); the
    group energy is the mean of its members.  A cluster stretched wider than
    10x ``gap_tol`` means the spectrum has no clean separation at this scale.
    """
    if gap_tol <= 0:
        raise ValidationError("gap_tol must be positive")
    vals, vecs = np.linalg.eigh(h.entries)
    groups: List[Tuple[float, np.ndarray]] = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i < len(vals) and vals[i] - vals[i - 1] < gap_tol:
            continue
        cluster = vals[start:i]
        if cluster[-1] - cluster[0] > 10.0 * gap_tol:
            raise NumericalError(
                f"eigenvalue cluster spans {cluster[-1] - cluster[0]:.3e}, "
                f"over 10x the grouping tolerance {gap_tol:.3e}"
            )
        block = vecs[:, start:i]
        groups.append((float(cluster.mean()), block @ block.conj().T))
        start = i
    return groups


def _bin_gaps(gaps: Sequence[float], gap_tol: float) -> Callable[[float], float]:
    """Map raw non-negative gaps onto merged representatives.

    Clusters by single linkage at ``gap_tol`` and returns a lookup that sends
    any registered gap to its cluster mean; binning on magnitudes keeps the
    +/- frequency pairing exact.
    """
    uniq = sorted(set(abs(g) for g in gaps))
    rep: Dict[float, float] = {}
    start = 0
    for i in range(1, len(uniq) + 1):
        if i < len(uniq) and uniq[i] - uniq[i - 1] < gap_tol:
            continue
        cluster = uniq[start:i]
        center = float(np.mean(cluster))
        if abs(center) < gap_tol:
            center = 0.0
        for g in cluster:
            rep[g] = center
        start = i
    return lambda g: rep[abs(g)] * (1.0 if g >= 0 else -1.0)


def jump_operators(
    h: HermitianOperator,
    couplings: Sequence[HermitianOperator],
    gap_tol: Optional[float] = None,
    tol: Tolerances = TOL,
) -> LindbladSet:
    """Decompose each coupling over the eigenstructure of ``h`` by gap.

    ``gap_tol`` defaults to ``tol.gap_rel`` times the operator norm of ``h``,
    floored at ``tol.gap_abs`` for the zero Hamiltonian.  Frequencies whose
    blocks all vanish are dropped; the surviving set satisfies the
    completeness and adjoint-pairing checks to 1e-10 by construction of the
    symmetric binning.
    """
    dim = h.dim
    mats = [as_matrix(a) for a in couplings]
    for a in mats:
        if a.shape != (dim, dim):
            raise ValidationError("coupling dimension mismatch with Hamiltonian")
        if frobenius(a - a.conj().T) > tol.hermiticity * max(1.0, frobenius(a)):
            raise ValidationError("couplings must be Hermitian")
    if gap_tol is None:
        hnorm = float(np.abs(np.linalg.eigvalsh(h.entries)).max())
        gap_tol = max(tol.gap_rel * hnorm, tol.gap_abs)
    groups = eigendecompose_grouped(h, gap_tol)
    raw_gaps = [ep - e for e, _ in groups for ep, _ in groups]
    binned = _bin_gaps(raw_gaps, gap_tol)

    scale = max([1.0] + [frobenius(a) for a in mats])
    transitions: Dict[float, List[np.ndarray]] = {}
    for e, p in groups:
        for ep, pp in groups:
            nu = binned(ep - e)
            blocks = transitions.setdefault(
                nu, [np.zeros((dim, dim), dtype=complex) for _ in mats]
            )
            for alpha, a in enumerate(mats):
                blocks[alpha] += p @ a @ pp
    drop = [
        nu
        for nu, blocks in transitions.items()
        if all(frobenius(b) <= 1e-13 * scale for b in blocks)
    ]
    for nu in drop:
        del transitions[nu]
    lset = LindbladSet(transitions, len(mats))
    if lset.adjoint_defect() > 1e-10 * scale:
        raise NumericalError("jump-operator adjoint pairing failed")
    if lset.completeness_defect(mats) > 1e-10 * scale:
        raise NumericalError("jump-operator frequency sum failed")
    return lset


def dissipator(
    rho: np.ndarray,
    lset: LindbladSet,
    spectrum: BathSpectrum,
    tol: Tolerances = TOL,
) -> np.ndarray:
    """Non-unitary part of the generator applied to ``rho``.

    For each frequency, ``sum_ab gamma_ab(nu) (L_b rho L_a^dag
    - {L_a^dag L_b, rho}/2)``.  Linear in ``rho``; trace-free and
    Hermiticity-preserving by construction.
    """
    rho = as_matrix(rho)
    if lset.n_couplings != spectrum.n_couplings:
        raise ValidationError("spectrum and jump set disagree on coupling count")
    out = np.zeros_like(rho)
    for nu, blocks in lset.transitions.items():
        g = spectrum.rate(nu, tol=tol)
        for a in range(len(blocks)):
            la = blocks[a]
            for b in range(len(blocks)):
                w = g[a, b]
                if w == 0:
                    continue
                lb = blocks[b]
                anti = la.conj().T @ lb
                out += w * (lb @ rho @ la.conj().T - 0.5 * (anti @ rho + rho @ anti))
    return out


def lamb_shift(lset: LindbladSet, spectrum: BathSpectrum) -> HermitianOperator:
    """Bath-induced Hamiltonian correction ``sum S_ab(nu) L_a^dag L_b``.

    Zero when the spectrum carries no shift coefficients.  Block structure of
    ``L^dag L`` makes the result commute with the system Hamiltonian.
    """
    dim = next(iter(lset.transitions.values()))[0].shape[0] if lset.transitions else 0
    if spectrum.lamb_coeffs is None or dim == 0:
        d = dim if dim else 1
        return HermitianOperator(np.zeros((d, d), dtype=complex))
    out = np.zeros((dim, dim), dtype=complex)
    for nu, blocks in lset.transitions.items():
        s = spectrum.lamb(nu)
        for a in range(len(blocks)):
            for b in range(len(blocks)):
                if s[a, b] == 0:
                    continue
                out += s[a, b] * (blocks[a].conj().T @ blocks[b])
    return HermitianOperator(out)


def gksl_rhs(
    rho: np.ndarray,
    h_s: HermitianOperator,
    lset: LindbladSet,
    spectrum: BathSpectrum,
    tol: Tolerances = TOL,
) -> np.ndarray:
    """Full generator: commutator with ``h_s`` plus shift, plus dissipator."""
    rho = as_matrix(rho)
    h = h_s.entries + lamb_shift(lset, spectrum).entries
    return -1j * (h @ rho - rho @ h) + dissipator(rho, lset, spectrum, tol=tol)


def superoperator(
    h_s: HermitianOperator,
    lset: LindbladSet,
    spectrum: BathSpectrum,
    tol: Tolerances = TOL,
) -> np.ndarray:
    """Dense matrix of the generator acting on row-major flattened densities.

    Built by applying the right-hand side to matrix units; integration then
    reduces to a linear ODE on the d^2 vector.
    """
    dim = h_s.dim
    cols = np.empty((dim * dim, dim * dim), dtype=complex)
    unit = np.zeros((dim, dim), dtype=complex)
    for j in range(dim * dim):
        unit.flat[j] = 1.0
        cols[:, j] = gksl_rhs(unit, h_s, lset, spectrum, tol=tol).reshape(-1)
        unit.flat[j] = 0.0
    return cols
