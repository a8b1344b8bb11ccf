"""Spin-1 defect-center thermometry: Hamiltonians, codes, and verdicts.

Natural units with the zero-field splitting as the energy scale.  Basis
ordering is (|+1>, |0>, |-1>) throughout; the dressed pair
``(|+1> +- |-1>)/sqrt(2)`` together with |0> diagonalizes the controlled
Hamiltonian, and a spin-1/2 ancilla upgrades the dressed pair to a code that
also survives relaxation.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .codespace import CodeSpace, check_conditions, no_go_search, two_level_dressing
from .criteria import linear_span_condition, quadratic_span_condition
from .errors import ValidationError
from .lindblad import BathSpectrum
from .operators import HermitianOperator, StateVector, lift, spin_matrices
from .rand import stream
from .simulate import ProbeModel

# Smallest protected-pair penalty for the isotropic spin-1 triple on the bare
# three-dimensional space, measured by exhaustive random-restart descent.
# Regression floor: the search must never find anything below this.
NO_GO_FLOOR = 2.0

_SX, _SY, _SZ = spin_matrices(2)


def nv_hamiltonian(
    *,
    d_split: float = 1.0,
    e_strain: float = 0.0,
    gamma_e: float = 1.0,
    b_field: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    delta_omega: float = 0.0,
) -> HermitianOperator:
    """Triplet Hamiltonian: splitting plus strain plus Zeeman terms, in units of
    the zero-field splitting."""
    if d_split <= 0:
        raise ValidationError("d_split must be positive")
    bx, by, bz = b_field
    h = (d_split + delta_omega) * (_SZ @ _SZ)
    h = h - e_strain * (_SX @ _SX - _SY @ _SY)
    h = h + gamma_e * (bx * _SX + by * _SY + bz * _SZ)
    return HermitianOperator(h)


def nv_control_bx(bx: float) -> HermitianOperator:
    """Effective control from a perpendicular field ``bx``, valid to second order.

    ``bx`` is the Zeeman energy in units of the splitting; it must stay below
    0.2 so the second-order reduction stays accurate.
    """
    if abs(bx) >= 0.2:
        raise ValidationError(f"field ratio {abs(bx):.3f} too large for the reduction")
    return HermitianOperator(0.5 * bx ** 2 * (3.0 * (_SZ @ _SZ) - (_SX @ _SX - _SY @ _SY)))


def nv_dressed_basis() -> Tuple[StateVector, StateVector, StateVector]:
    """The triple (|0>, psi_minus, psi_plus) in the (+1, 0, -1) ordering."""
    zero = np.array([0.0, 1.0, 0.0], dtype=complex)
    minus = np.array([1.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
    plus = np.array([1.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return StateVector(zero), StateVector(minus), StateVector(plus)


def nv_couplings() -> Tuple[HermitianOperator, ...]:
    """Isotropic spin-component couplings to the bath."""
    return (
        HermitianOperator(_SX),
        HermitianOperator(_SY),
        HermitianOperator(_SZ),
    )


def nv_dressed_hamiltonian(ratio: float = 0.1) -> HermitianOperator:
    """Splitting plus the perpendicular-field control at a given field ratio."""
    return HermitianOperator(_SZ @ _SZ + nv_control_bx(ratio).entries)


def nv_bare_code() -> CodeSpace:
    """The ancilla-free dressed pair {|0>, psi_minus}."""
    zero, minus, _ = nv_dressed_basis()
    return CodeSpace(zero, minus, 3, 1)


def nv_ancilla_code() -> CodeSpace:
    """The spin-1/2-assisted pair {|0>|down>, psi_minus|up>}.

    Ancilla basis: |down> = e0, |up> = e1.  The disjoint ancilla supports kill
    every cross element of lifted system operators, which upgrades the bare
    dressed pair to full dephasing-plus-relaxation protection.
    """
    zero, minus, _ = nv_dressed_basis()
    down = np.array([1.0, 0.0], dtype=complex)
    up = np.array([0.0, 1.0], dtype=complex)
    psi0 = StateVector(np.kron(zero.amplitudes, down))
    psi1 = StateVector(np.kron(minus.amplitudes, up))
    return CodeSpace(psi0, psi1, 3, 2)


def signal_generator() -> HermitianOperator:
    """Derivative of the Hamiltonian in the estimated splitting: S_z^2."""
    return HermitianOperator(_SZ @ _SZ)


# ---------------------------------------------------------------------------
# probe models for dynamics and sweeps
# ---------------------------------------------------------------------------


def protected_model(
    gamma: float = 1.0,
    ratio: float = 0.1,
    ancilla: bool = False,
    nu0: float = 5.0,
) -> ProbeModel:
    """Dressed probe under a dephasing bath, prepared on the code superposition.

    Without the ancilla this is the bare dressed pair, whose jump set at zero
    frequency is empty: evolution inside the code is purely coherent.  With
    the ancilla the code space sits degenerate at zero energy below a lifted
    complement.
    """
    couplings = nv_couplings()
    g = signal_generator()
    spectrum = BathSpectrum.peak0(gamma, len(couplings))
    if not ancilla:
        code = nv_bare_code()
        h = nv_dressed_hamiltonian(ratio=ratio)
    else:
        code = nv_ancilla_code()
        couplings = tuple(HermitianOperator(lift(c.entries, 2)) for c in couplings)
        g = HermitianOperator(lift(g.entries, 2))
        h = two_level_dressing(code, nu0)
    psi = (code.psi0.amplitudes + code.psi1.amplitudes) / np.sqrt(2.0)
    rho0 = np.outer(psi, psi.conj())
    return ProbeModel(h=h, g=g, couplings=couplings, spectrum=spectrum,
                      rho0=rho0, code=code)


def unprotected_model(gamma: float = 1.0) -> ProbeModel:
    """Undressed baseline: bare splitting, same bath, superposition of +-1.

    The only surviving zero-frequency jump operator is S_z, so the +-1
    coherence dephases at rate 2 gamma.  The estimated parameter enters
    through S_z here: the squared generator is blind on this pair (equal
    diagonal), which is exactly why the undressed probe cannot do better
    than standard scaling.
    """
    couplings = nv_couplings()
    plus1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    minus1 = np.array([0.0, 0.0, 1.0], dtype=complex)
    code = CodeSpace(StateVector(plus1), StateVector(minus1), 3, 1)
    psi = (plus1 + minus1) / np.sqrt(2.0)
    return ProbeModel(
        h=HermitianOperator(_SZ @ _SZ),
        g=HermitianOperator(_SZ),
        couplings=couplings,
        spectrum=BathSpectrum.peak0(gamma, len(couplings)),
        rho0=np.outer(psi, psi.conj()),
        code=code,
    )


# ---------------------------------------------------------------------------
# the three-noise verdict table
# ---------------------------------------------------------------------------


class VerdictCell(NamedTuple):
    regime: str
    ancilla: bool
    achievable: bool
    witness: dict


class VerdictTable(NamedTuple):
    cells: Tuple[VerdictCell, ...]

    def to_markdown(self) -> str:
        lines = [
            "| noise | ancilla | achievable | witness |",
            "|---|---|---|---|",
        ]
        order = ("search_floor", "span_residual", "dephasing_violation")
        for c in self.cells:
            mark = "yes" if c.achievable else "no"
            key = next(k for k in order if k in c.witness)
            lines.append(
                f"| {c.regime} | {'with' if c.ancilla else 'without'} | {mark} "
                f"| {key}={c.witness[key]:.3e} |"
            )
        return "\n".join(lines) + "\n"


def nv_verdict_table(
    restarts: int = 200,
    seed: int = 0,
    couplings: Optional[Sequence[HermitianOperator]] = None,
) -> VerdictTable:
    """Computable achievability verdicts for the three bath regimes.

    Every cell carries a machine witness: explicit code conditions where
    protection exists, the search floor or span residual where it cannot.
    Passing a rotated coupling triple checks the isotropy of the verdicts.
    """
    coup = tuple(couplings) if couplings is not None else nv_couplings()
    g = signal_generator()
    bare = nv_bare_code()
    assisted = nv_ancilla_code()

    # dephasing bath: only the zero-frequency jump channel of the triple
    # survives, which for the bare splitting is the axial component alone
    from .lindblad import jump_operators

    h_bare = HermitianOperator(_SZ @ _SZ)
    lset0 = jump_operators(h_bare, coup)
    nu_min = min(lset0.frequencies, key=abs)
    if abs(nu_min) > 1e-12:
        raise ValidationError("no zero-frequency channel for the bare splitting")
    dephasing_coup = tuple(
        HermitianOperator(m) for m in lset0.blocks[lset0.frequencies.index(nu_min)]
        if np.linalg.norm(m) > 1e-13
    )
    rep1 = check_conditions(bare, g, dephasing_coup)
    crit1 = linear_span_condition(g, dephasing_coup)
    cell1 = VerdictCell(
        "dephasing", False,
        crit1.verdict and rep1.dephasing_violation < 1e-12
        and rep1.relaxation_violation < 1e-12,
        {
            "dephasing_violation": rep1.dephasing_violation,
            "relaxation_violation": rep1.relaxation_violation,
            "signal": rep1.signal,
            "span_residual": crit1.residual_norm,
        },
    )

    # dephasing + relaxation without ancilla: no pair exists; search floor
    floor = no_go_search(coup, 3, restarts=restarts, seed=seed)
    cell2 = VerdictCell(
        "relaxation", False, floor < 1e-10,
        {"search_floor": floor, "restarts": restarts},
    )

    # dephasing + relaxation with the spin-1/2 ancilla
    rep3 = check_conditions(assisted, g, coup)
    cell3 = VerdictCell(
        "relaxation", True,
        rep3.dephasing_violation < 1e-12 and rep3.relaxation_violation < 1e-12
        and abs(rep3.signal) > 1e-6,
        {
            "dephasing_violation": rep3.dephasing_violation,
            "relaxation_violation": rep3.relaxation_violation,
            "signal": rep3.signal,
        },
    )

    # full thermal bath: the quadratic span swallows the generator
    crit4 = quadratic_span_condition(g, coup)
    cell4 = VerdictCell(
        "thermal", True, crit4.verdict,
        {"span_residual": crit4.residual_norm, "span_dim": crit4.span_dim},
    )
    return VerdictTable((cell1, cell2, cell3, cell4))


def rotated_couplings(seed: int) -> Tuple[HermitianOperator, ...]:
    """Random proper rotation of the spin triple, for isotropy checks."""
    rng = stream(seed, 314)
    m = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    triple = np.stack([_SX, _SY, _SZ])
    rotated = np.einsum("ij,jab->iab", q, triple)
    return tuple(HermitianOperator(m) for m in rotated)
