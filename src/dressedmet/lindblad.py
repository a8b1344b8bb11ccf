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

    def _coefficients(self, what: str, fn: Callable, nu: float, tol: Tolerances) -> np.ndarray:
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

    def rate(self, nu: float, tol: Tolerances = TOL) -> np.ndarray:
        """PSD rate matrix at ``nu``, zero when the regime excludes ``nu``."""
        nu = float(nu)
        if not _regime_mask(self.regime, nu):
            return np.zeros((self.n_couplings, self.n_couplings))
        mat = self._coefficients("rate", self.gamma, nu, tol)
        low = float(np.linalg.eigvalsh(mat).min())
        if low < -tol.psd * max(1.0, frobenius(mat)):
            raise ValidationError(f"rate matrix at nu={nu} has negative eigenvalue {low}")
        return mat

    def lamb(self, nu: float, tol: Tolerances = TOL) -> Optional[np.ndarray]:
        """Hermitian shift-coefficient matrix at ``nu``, or None if unset."""
        if self.lamb_coeffs is None:
            return None
        return self._coefficients("shift", self.lamb_coeffs, float(nu), tol)

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

    def completeness_defect(self, couplings: Sequence[np.ndarray]) -> float:
        """Worst deviation of the frequency sum from the original coupling."""
        mats = np.array([as_matrix(a) for a in couplings], dtype=complex)
        total = self.blocks.sum(axis=0) - mats.reshape(self.blocks.shape[1:])
        return float(np.linalg.norm(total, axis=(-2, -1)).max(initial=0.0))


def _linkage(vals: np.ndarray, gap_tol: float) -> List[Tuple[int, int]]:
    """``(start, stop)`` of each single-linkage cluster at ``gap_tol`` of ascending ``vals``."""
    cuts = (np.flatnonzero(np.diff(vals) >= gap_tol) + 1).tolist()
    return list(zip([0] + cuts, cuts + [len(vals)]))


def _levels(vals: np.ndarray, gap_tol: float) -> np.ndarray:
    """Each of the ascending eigenvalues ``vals`` replaced by its cluster's energy.

    Adjacent eigenvalues closer than ``gap_tol`` merge (single linkage); the
    cluster energy is the mean of its members.  A cluster stretched wider than
    10x ``gap_tol`` means the spectrum has no clean separation at this scale.
    """
    if not 0.0 < gap_tol < np.inf:
        raise ValidationError("gap_tol must be finite and positive")
    levels = np.empty_like(vals)
    for lo, hi in _linkage(vals, gap_tol):
        cluster = vals[lo:hi]
        if cluster[-1] - cluster[0] > 10.0 * gap_tol:
            raise NumericalError(
                f"eigenvalue cluster spans {cluster[-1] - cluster[0]:.3e}, "
                f"over 10x the grouping tolerance {gap_tol:.3e}"
            )
        levels[lo:hi] = cluster.mean()
    return levels


def eigendecompose_grouped(h: HermitianOperator, gap_tol: float) -> List[Tuple[float, np.ndarray]]:
    """(mean energy, projector) of each single-linkage cluster of the spectrum of ``h``."""
    vals, vecs = np.linalg.eigh(h.entries)
    levels = _levels(vals, gap_tol)
    blocks = [(float(e), vecs[:, levels == e]) for e in np.unique(levels)]
    return [(e, block @ block.conj().T) for e, block in blocks]


def _bin_gaps(gaps: np.ndarray, gap_tol: float) -> np.ndarray:
    """Send each gap to the signed mean of its magnitude's cluster.

    Clusters the distinct magnitudes by single linkage at ``gap_tol``;
    binning on magnitudes keeps the +/- frequency pairing exact, and a
    cluster centered within ``gap_tol`` of zero bins to exactly 0.
    """
    mags, inverse = np.unique(np.abs(gaps).ravel(), return_inverse=True)
    centers = np.empty_like(mags)
    for lo, hi in _linkage(mags, gap_tol):
        centers[lo:hi] = np.mean(mags[lo:hi])
    centers[np.abs(centers) < gap_tol] = 0.0
    # adding 0.0 turns the -0.0 of a negative gap binned to zero into 0.0
    return np.where(gaps >= 0, 1.0, -1.0) * centers[inverse].reshape(gaps.shape) + 0.0


def grouping_tolerance(hnorm: float, tol: Tolerances) -> float:
    """Default eigenvalue grouping tolerance for a Hamiltonian of operator norm ``hnorm``.

    ``tol.gap_rel`` times the norm, floored at ``tol.gap_abs`` for the zero
    Hamiltonian.
    """
    return max(tol.gap_rel * hnorm, tol.gap_abs)


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
    require_hermitian(stack, "a coupling", tol)
    vals, vecs = np.linalg.eigh(h.entries)
    if gap_tol is None:
        gap_tol = grouping_tolerance(float(np.abs(vals).max()), tol)
    levels = _levels(vals, gap_tol)
    freqs, index = np.unique(_bin_gaps(levels[None, :] - levels[:, None], gap_tol).ravel(),
                             return_inverse=True)
    masks = index.reshape(dim, dim) == np.arange(len(freqs))[:, None, None]
    blocks = vecs @ (masks[:, None] * (vecs.conj().T @ stack @ vecs)) @ vecs.conj().T

    scale = max([1.0] + [frobenius(a) for a in mats])
    keep = (np.linalg.norm(blocks, axis=(-2, -1)) > 1e-13 * scale).any(axis=1)
    lset = LindbladSet(tuple(freqs[keep].tolist()), blocks[keep])
    if lset.adjoint_defect() > 1e-10 * scale:
        raise NumericalError("jump-operator adjoint pairing failed")
    if lset.completeness_defect(mats) > 1e-10 * scale:
        raise NumericalError("jump-operator frequency sum failed")
    return lset


def _weigh(lset: LindbladSet, spectrum: BathSpectrum, coeffs: Callable[[float], np.ndarray]):
    """Jumps ``L``, weighted jumps ``J_a = sum_b c_ab(nu) L_b`` stacked over
    (nu, a), and ``sum L_a^dag J_a``."""
    if lset.n_couplings != spectrum.n_couplings:
        raise ValidationError("spectrum and jump set disagree on coupling count")
    n, k, d = len(lset.frequencies), lset.n_couplings, lset.dim
    c = np.array([coeffs(nu) for nu in lset.frequencies], dtype=complex).reshape(n, k, k)
    jumps = lset.blocks.reshape(-1, d, d)
    weighted = np.einsum("nab,nbij->naij", c, lset.blocks).reshape(-1, d, d)
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
    return HermitianOperator(_weigh(lset, spectrum, lambda nu: spectrum.lamb(nu, tol=tol))[2])


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
    jumps, weighted, k = _weigh(lset, spectrum, lambda nu: spectrum.rate(nu, tol=tol))
    feed = np.einsum("xij,xkl->ikjl", weighted, jumps.conj()).reshape(dim * dim, dim * dim)
    h = h_s.entries
    if spectrum.lamb_coeffs is not None:
        h = h + lamb_shift(lset, spectrum, tol=tol).entries
    return commutator_superoperator(h) + feed - 0.5 * _kron_sum(k, k.T)
