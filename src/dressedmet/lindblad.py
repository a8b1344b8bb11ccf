"""Frequency-resolved jump operators and the secular master-equation generator.

A Hermitian coupling ``A`` splits across the eigenstructure of the system
Hamiltonian into blocks ``L(nu) = sum over eigenvalue pairs with gap nu of
P_e A P_e'``, built in one eigenbasis ``V`` of the Hamiltonian as
``V (V^dag A V * M_nu) V^dag``, with ``M_nu`` masking the entries whose gap
bins to ``nu``.  The generator keeps only terms diagonal in ``nu`` (secular
form); the bath enters through a rate matrix ``gamma(nu)`` over coupling
indices and an optional Hamiltonian-renormalization coefficient matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalError, ValidationError
from .jsonio import check_keys, finite_number
from .operators import HermitianOperator, as_matrix, frobenius, hermitian_part, require_hermitian
from .tolerances import GAP_ABS, TOL, Tolerances


class Regime(enum.Enum):
    """Which transition frequencies the bath can drive.

    DEPHASING_ONLY keeps nu = 0 terms, LOW_TEMPERATURE adds decay (nu > 0),
    FULL_THERMAL also drives excitation (nu < 0).
    """

    DEPHASING_ONLY = "dephasing-only"
    LOW_TEMPERATURE = "low-temperature"
    FULL_THERMAL = "full-thermal"


@dataclass(frozen=True)
class BathSpectrum:
    """Rate matrix over coupling indices, evaluated per transition frequency.

    ``gamma`` maps a frequency to a PSD ``n_couplings x n_couplings`` matrix;
    the regime zeroes out frequencies the bath cannot drive, so callers never
    need to encode that in the callback.  Every evaluation is checked at the
    caller's tolerances and returns a fresh matrix.  ``lamb_coeffs``
    optionally supplies the Hermitian coefficient matrix of the bath-induced
    Hamiltonian shift; the default is no shift.
    """

    regime: Regime
    gamma: Callable[[float], np.ndarray]
    n_couplings: int
    lamb_coeffs: Optional[Callable[[float], np.ndarray]] = None
    descriptor: Optional[dict] = None

    def _coefficients(self, what: str, fn: Callable, freqs: Sequence[float], tol: Tolerances,
                      psd: bool = False) -> np.ndarray:
        """``fn`` at each of ``freqs``, checked by :func:`_checked` in one stacked pass.  On a
        refusal, or an error from ``fn``, the matrices evaluated so far are checked alone in
        order first, so the first failing frequency is named with its own figure."""
        mats = []
        try:
            for nu in freqs:
                mats.append(np.atleast_2d(np.asarray(fn(nu), dtype=complex)))
            return _checked(f"{what} matrices", mats, self.n_couplings, tol, psd)
        except Exception:
            for nu, mat in zip(freqs, mats):
                _checked(f"{what} matrix at nu={nu}", [mat], self.n_couplings, tol, psd)
            raise

    def rates(self, freqs: Sequence[float], tol: Tolerances = TOL) -> np.ndarray:
        """Fresh ``(n, k, k)`` stack of the PSD rate matrices at ``freqs``, zero (and
        ``gamma`` not called) where the regime excludes a frequency."""
        freqs = [float(nu) for nu in freqs]
        live = [i for i, nu in enumerate(freqs) if nu == 0.0 or self.regime is Regime.FULL_THERMAL
                or nu > 0.0 and self.regime is Regime.LOW_TEMPERATURE]
        out = np.zeros((len(freqs), self.n_couplings, self.n_couplings), dtype=complex)
        if live:
            out[live] = self._coefficients("rate", self.gamma, [freqs[i] for i in live], tol, True)
        return out

    def rate(self, nu: float, tol: Tolerances = TOL) -> np.ndarray:
        """PSD rate matrix at ``nu``, zero when the regime excludes ``nu``."""
        return self.rates([nu], tol)[0]

    def lamb(self, nu: float, tol: Tolerances = TOL) -> Optional[np.ndarray]:
        """Hermitian shift-coefficient matrix at ``nu``, or None if unset."""
        if self.lamb_coeffs is None:
            return None
        return self._coefficients("shift", self.lamb_coeffs, [float(nu)], tol)[0]

    # -- built-in spectral shapes -------------------------------------------

    @classmethod
    def flat(
        cls,
        rate: float,
        n_couplings: int,
        regime: Regime = Regime.LOW_TEMPERATURE,
    ) -> "BathSpectrum":
        """Constant rate at every frequency the regime admits."""
        return _builtin("flat", rate, n_couplings, regime, lambda g, nu: g)

    @classmethod
    def ohmic(
        cls,
        rate: float,
        cutoff: float,
        n_couplings: int,
        regime: Regime = Regime.LOW_TEMPERATURE,
    ) -> "BathSpectrum":
        """Linear-in-frequency rate with exponential cutoff, zero at nu <= 0."""
        nu_c = float(cutoff)
        if not nu_c > 0:
            raise ValidationError(f"ohmic cutoff must be positive, got {nu_c}")
        return _builtin("ohmic", rate, n_couplings, regime,
                        lambda g, nu: g * nu * np.exp(-nu / nu_c) if nu > 0 else 0.0, cutoff=nu_c)

    @classmethod
    def peak0(
        cls,
        rate: float,
        n_couplings: int,
        regime: Regime = Regime.DEPHASING_ONLY,
    ) -> "BathSpectrum":
        """Rate concentrated at nu = 0: pure dephasing in every regime."""
        return _builtin("peak0", rate, n_couplings, regime, lambda g, nu: g if nu == 0 else 0.0)


def _builtin(kind: str, rate: float, n_couplings: int, regime: Regime,
             shape: Callable[[float, float], float], **params: float) -> BathSpectrum:
    """Built-in spectrum ``gamma(nu) = shape(g, nu) I`` at the rate ``g``, refused unless
    >= 0 (NaN too), and its descriptor: ``kind``, ``rate``, then ``params`` in order."""
    if not float(rate) >= 0:
        raise ValidationError(f"bath rate must be >= 0, got {rate}")
    g = float(rate)
    desc = {"regime": regime.value, "gamma": {"kind": kind, "rate": g, **params}}
    return BathSpectrum(regime, lambda nu: shape(g, nu) * np.eye(n_couplings), n_couplings,
                        descriptor=desc)


def _checked(what: str, mats: List[np.ndarray], k: int, tol: Tolerances, psd: bool) -> np.ndarray:
    """Hermitian parts of ``(1, 1)`` (broadcast to ``c I``) or ``(k, k)`` matrices as one stack,
    once all pass :func:`.operators.require_hermitian` and, with ``psd``, have no eigenvalue
    below ``-tol.psd`` times their Frobenius norm (or 1 if larger)."""
    for shape in {m.shape for m in mats}:  # one shape in a call that names its frequency
        if shape not in ((1, 1), (k, k)):
            raise ValidationError(f"{what} has shape {shape}, expected ({k}, {k})")
        require_hermitian(np.array([m for m in mats if m.shape == shape]), what, tol)
    stack = hermitian_part(np.array([m if m.shape == (k, k) else m[0, 0] * np.eye(k, dtype=complex)
                                     for m in mats]).reshape(len(mats), k, k))
    if psd:
        lows = np.linalg.eigvalsh(stack).min(axis=-1, initial=np.inf).tolist()
        for low, mat in zip(lows, stack):  # a norm only where an eigenvalue is negative
            if low < 0.0 and low < -tol.psd * max(1.0, frobenius(mat)):
                raise ValidationError(f"{what} has negative eigenvalue {low}")
    return stack


def spectrum_from_json(obj: dict, n_couplings: int) -> BathSpectrum:
    """Build a spectrum from its descriptor ``{"regime": ..., "gamma": {"kind": ..., ...}}``.

    ``kind`` names the built-in shape (``flat``, ``ohmic`` or ``peak0``) and the
    other ``gamma`` keys are that shape's keyword arguments.
    """
    check_keys(obj, "spectrum", ("regime", "gamma"))
    gamma = obj["gamma"]
    if not isinstance(gamma, dict) or gamma.get("kind") not in ("flat", "ohmic", "peak0"):
        raise ValidationError("spectrum gamma needs a kind: flat, ohmic or peak0")
    kind = gamma["kind"]
    params = {k: finite_number(v, f"spectrum {k}") for k, v in gamma.items() if k != "kind"}
    try:
        regime = Regime(obj["regime"])
        return getattr(BathSpectrum, kind)(n_couplings=n_couplings, regime=regime, **params)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad spectrum: {exc}") from None


@dataclass(frozen=True, eq=False)
class LindbladSet:
    """Jump operators stacked by binned transition frequency.

    ``blocks[i, a]`` is ``L_a(frequencies[i])``: one read-only ``(n, k, d, d)``
    array over the ``n`` ascending frequencies and ``k`` couplings.
    Frequencies come in exact +/- pairs and the blocks satisfy
    ``L_a(nu)^dag = L_a(-nu)`` as well as ``sum_nu L_a(nu) = A_a``.
    """

    frequencies: Tuple[float, ...]
    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.array(self.blocks, dtype=complex)
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_couplings(self) -> int:
        return self.blocks.shape[1]

    @property
    def dim(self) -> int:
        return self.blocks.shape[-1]

    def adjoint_defect(self) -> float:
        """Worst deviation from the +/- frequency adjoint pairing."""
        freqs = np.array(self.frequencies)
        partner = np.minimum(np.searchsorted(freqs, -freqs), max(len(freqs) - 1, 0))
        paired = (freqs[partner] == -freqs)[:, None, None, None]
        adjoint = np.swapaxes(self.blocks, -2, -1).conj()
        defect = np.where(paired, adjoint - self.blocks[partner], self.blocks)
        return float(np.linalg.norm(defect, axis=(-2, -1)).max(initial=0.0))

    def completeness_defect(self, couplings) -> float:
        """Worst deviation of the frequency sum from the original couplings (a stack or list)."""
        mats = np.asarray(couplings, dtype=complex)
        total = self.blocks.sum(axis=0) - mats.reshape(self.blocks.shape[1:])
        return float(np.linalg.norm(total, axis=(-2, -1)).max(initial=0.0))


def _linkage(vals: np.ndarray, gap_tol: float) -> List[Tuple[int, int]]:
    """``(start, stop)`` of each single-linkage cluster at ``gap_tol`` of ascending ``vals``."""
    if not 0.0 < gap_tol < np.inf:
        raise ValidationError("gap_tol must be finite and positive")
    cuts = (np.flatnonzero(np.diff(vals) >= gap_tol) + 1).tolist()
    return list(zip([0] + cuts, cuts + [len(vals)]))


def _levels(vals: np.ndarray, gap_tol: float) -> np.ndarray:
    """Each of the ascending eigenvalues ``vals`` replaced by its cluster's energy.

    Adjacent eigenvalues closer than ``gap_tol`` merge (single linkage); the
    cluster energy is the mean of its members.  A cluster stretched wider than
    10x ``gap_tol`` means the spectrum has no clean separation at this scale.
    """
    levels = vals.copy()  # a lone eigenvalue is its own mean
    for lo, hi in _linkage(vals, gap_tol):
        if hi - lo == 1:
            continue
        cluster = vals[lo:hi]
        if cluster[-1] - cluster[0] > 10.0 * gap_tol:
            raise NumericalError(
                f"eigenvalue cluster spans {cluster[-1] - cluster[0]:.3e}, "
                f"over 10x the grouping tolerance {gap_tol:.3e}"
            )
        levels[lo:hi] = cluster.mean()
    return levels


def _bin_gaps(gaps: np.ndarray, gap_tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Ascending binned frequencies of the antisymmetric ``gaps`` and each gap's index into
    them, from one sort of the magnitudes.  A gap goes to the signed mean of its magnitude's
    cluster (single linkage of the distinct magnitudes at ``gap_tol``), so +/- pairs stay exact;
    a center within ``gap_tol`` of zero (only the first can be) is 0.  Of ``n`` centers, ``z``
    of them 0, a gap >= 0 of cluster ``c`` has index ``n - z + c``, a negative one ``n - 1 - c``."""
    mag = np.abs(gaps)
    ranked = np.sort(mag, axis=None)
    mags = ranked[np.append(True, ranked[1:] > ranked[:-1])]
    clusters = _linkage(mags, gap_tol)
    centers = np.array([mags[lo] if hi - lo == 1 else mags[lo:hi].sum() / (hi - lo)
                        for lo, hi in clusters])  # a sum over the size: np.mean's bits
    centers[centers < gap_tol] = 0.0
    label = np.searchsorted(mags[[lo for lo, _ in clusters]], mag, side="right") - 1
    n, z = len(centers), int(centers[0] == 0.0)
    index = np.where(gaps >= 0, n - z + label, n - 1 - label)
    return np.concatenate([-centers[z:][::-1], centers]), index


def grouping_tolerance(hnorm: float, tol: Tolerances) -> float:
    """Default eigenvalue grouping tolerance for a Hamiltonian of operator norm ``hnorm``.

    ``tol.gap_rel`` times the norm, floored at ``GAP_ABS`` for the zero
    Hamiltonian.
    """
    return max(tol.gap_rel * hnorm, GAP_ABS)


def jump_operators(
    h: HermitianOperator,
    couplings: Sequence[HermitianOperator],
    gap_tol: Optional[float] = None,
    tol: Tolerances = TOL,
) -> LindbladSet:
    """Decompose each coupling over the eigenstructure of ``h`` by gap.

    One ``eigh`` of ``h`` gives the eigenbasis ``V`` and, unless ``gap_tol``
    is given, :func:`grouping_tolerance` of the operator norm of ``h``.  Each
    eigenvector carries its cluster's energy (:func:`_levels`), and entry
    ``(i, j)`` of the rotated coupling ``V^dag A_a V`` goes to the binned gap
    ``E_j - E_i``: ``L_a(nu) = V (V^dag A_a V * M_nu) V^dag``, with ``M_nu``
    the 0/1 mask of the entries binned to ``nu``.  Frequencies whose blocks
    all vanish are dropped; the surviving set satisfies the completeness and
    adjoint-pairing checks to 1e-10 by construction of the symmetric
    binning.
    """
    dim = h.dim
    mats = [as_matrix(a) for a in couplings]
    if any(a.shape != (dim, dim) for a in mats):
        raise ValidationError("coupling dimension mismatch with Hamiltonian")
    stack = np.array(mats, dtype=complex).reshape(len(mats), dim, dim)
    # a HermitianOperator is checked, bounded and exactly Hermitian already
    fresh = [i for i, a in enumerate(couplings) if not isinstance(a, HermitianOperator)]
    if fresh:
        require_hermitian(stack[fresh], "a coupling", tol)
    vals, vecs = np.linalg.eigh(h.entries)
    if gap_tol is None:
        gap_tol = grouping_tolerance(float(np.abs(vals).max()), tol)
    levels = _levels(vals, gap_tol)
    freqs, index = _bin_gaps(levels[None, :] - levels[:, None], gap_tol)
    masks = index == np.arange(len(freqs))[:, None, None]
    vh = vecs.conj().T
    blocks = vecs @ (masks[:, None] * (vh @ stack @ vecs)) @ vh

    scale = max(1.0, float(np.linalg.norm(stack, axis=(-2, -1)).max(initial=0.0)))
    keep = (np.linalg.norm(blocks, axis=(-2, -1)) > 1e-13 * scale).any(axis=1)
    lset = LindbladSet(tuple(freqs[keep].tolist()), blocks[keep])
    if lset.adjoint_defect() > 1e-10 * scale:
        raise NumericalError("jump-operator adjoint pairing failed")
    if lset.completeness_defect(stack) > 1e-10 * scale:
        raise NumericalError("jump-operator frequency sum failed")
    return lset


def _weigh(lset: LindbladSet, spectrum: BathSpectrum, coeffs: Callable):
    """Jumps ``L``, weighted jumps ``J_a = sum_b c_ab(nu) L_b`` stacked over
    (nu, a), and ``sum L_a^dag J_a``; ``coeffs(frequencies)`` is the ``(n, k, k)`` stack ``c``."""
    if lset.n_couplings != spectrum.n_couplings:
        raise ValidationError("spectrum and jump set disagree on coupling count")
    d = lset.dim
    jumps = lset.blocks.reshape(-1, d, d)
    weighted = np.einsum("nab,nbij->naij", coeffs(lset.frequencies), lset.blocks).reshape(-1, d, d)
    return jumps, weighted, np.einsum("xji,xjk->ik", jumps.conj(), weighted)


def lamb_shift(
    lset: LindbladSet, spectrum: BathSpectrum, tol: Tolerances = TOL
) -> HermitianOperator:
    """Bath-induced Hamiltonian correction ``sum S_ab(nu) L_a^dag L_b``.

    Zero when the spectrum carries no shift coefficients.  Block structure of
    ``L^dag L`` makes the result commute with the system Hamiltonian.
    """
    if spectrum.lamb_coeffs is None:
        return HermitianOperator(np.zeros((lset.dim, lset.dim), dtype=complex))
    return HermitianOperator(_weigh(
        lset, spectrum, lambda f: spectrum._coefficients("shift", spectrum.lamb_coeffs, f, tol))[2])


def _kron_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a (x) I + I (x) b``, entry ``(ik, jl) = a_ij d_kl + d_ij b_kl``, without ``np.kron``."""
    d, idx = len(a), np.arange(len(a))
    out = np.zeros((d, d, d, d), dtype=complex)
    out[:, idx, :, idx] = a
    out[idx, :, idx, :] += b
    return out.reshape(d * d, d * d)


def commutator_superoperator(h: np.ndarray) -> np.ndarray:
    """``-i[h, .]`` on row-major flattened densities: ``-i(h (x) I - I (x) h^T)``."""
    return -1j * _kron_sum(h, -h.T)


def superoperator(
    h_s: HermitianOperator,
    lset: LindbladSet,
    spectrum: BathSpectrum,
    tol: Tolerances = TOL,
) -> np.ndarray:
    """Dense matrix of the generator acting on row-major flattened densities.

    Closed form from ``vec(A rho B) = (A (x) B^T) vec(rho)``:
    ``-i[h, .] + sum J_a (x) conj(L_a) - (K (x) I + I (x) K^T)/2`` with
    ``J_a = sum_b gamma_ab L_b`` and ``K = sum L_a^dag J_a``; integration
    then reduces to a linear ODE on the d^2 vector.
    """
    dim = h_s.dim
    jumps, weighted, k = _weigh(lset, spectrum, lambda f: spectrum.rates(f, tol))
    feed = np.einsum("xij,xkl->ikjl", weighted, jumps.conj()).reshape(dim * dim, dim * dim)
    h = h_s.entries
    if spectrum.lamb_coeffs is not None:
        h = h + lamb_shift(lset, spectrum, tol=tol).entries
    return commutator_superoperator(h) + feed - 0.5 * _kron_sum(k, k.T)
