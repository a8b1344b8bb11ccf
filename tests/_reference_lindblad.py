"""The dict-of-lists Lindblad layer that the stacked one replaced.

Kept verbatim as the reference for ``test_lindblad_stacked.py``: jump
operators as a ``Dict[float, List[ndarray]]`` built by one ``P_e A P_f``
product per eigenspace pair and coupling, the dissipator and shift summed
over every (nu, a, b), and the superoperator assembled by applying the
right-hand side to all d^2 matrix units.  Its ``lamb_shift`` still returns
a 1 x 1 operator for a jump set with no frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import _reference_rates
from dressedmet.errors import NumericalError, ValidationError
from dressedmet.lindblad import BathSpectrum
from dressedmet.operators import HermitianOperator, as_matrix, frobenius
from dressedmet.tolerances import GAP_ABS, TOL, Tolerances


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
    floored at ``GAP_ABS`` for the zero Hamiltonian.  Frequencies whose
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
        gap_tol = max(tol.gap_rel * hnorm, GAP_ABS)
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
        g = _reference_rates.rate(spectrum, nu, tol=tol)
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
        s = _reference_rates.lamb(spectrum, nu)
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
