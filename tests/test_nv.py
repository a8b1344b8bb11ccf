"""Spin-1 defect probe: Hamiltonians, dressed codes, verdicts, dynamics.

Frozen oracle values (hand derivation unless noted):
- Strain splits the dressed pair: spectrum {0, D - E, D + E} with psi_plus at
  D - E and psi_minus at D + E; a 0.3 axial field gives {0, 0.7, 1.3}.
- All three spin components have zero expectation on the dressed triple, and
  the axial component swaps the pair: S_z psi_pm = psi_mp.
- The perpendicular-field reduction at ratio 0.1 yields spectrum
  {0, 1.01, 1.02}.  Its residual after stripping the known first-order
  rotation is third order in the ratio as a state error, so the overlap
  deficit falls off as the sixth power: 1.4e-8, 8.5e-7, 9.2e-6 at ratios
  0.05, 0.1, 0.15 (frozen regression ceilings 2e-8, 1e-6, 1e-5).
- The ancilla pair passes every protection condition with signal 1, yet the
  strict product-level check fails at exactly 1/sqrt(2): the squared-signal
  block must distinguish the pair, which is the whole point of the probe.
- Random-restart floor for a protected pair under the full isotropic triple
  on the bare space: 2 (the pinned regression constant).
- Verdict pattern (yes, no, yes, no); dephasing-cell span residual
  sqrt(2/3), thermal-cell residual 0 with a 9-dimensional span.
- Undressed probe: coherence (1/2) e^{-2 gamma t}, Fisher t^2 e^{-4 gamma t};
  dressed probe: coherence pinned at 1/2, Fisher t^2 / 4.
"""

import math

import numpy as np
import pytest

from dressedmet.codespace import check_conditions
from dressedmet.errors import ValidationError
from dressedmet.nv import (
    NO_GO_FLOOR,
    NvParams,
    nv_ancilla_code,
    nv_bare_code,
    nv_control_bx,
    nv_couplings,
    nv_dressed_basis,
    nv_dressed_hamiltonian,
    nv_hamiltonian,
    nv_verdict_table,
    protected_model,
    rotated_couplings,
    signal_generator,
    unprotected_model,
)
from dressedmet.codespace import no_go_search
from dressedmet.operators import HermitianOperator, lift, spin_matrices
from dressedmet.simulate import SimConfig, qfi_numeric, qfi_sld
from dressedmet.tolerances import KL

from _witnesses import nv_bx_discrepancy

SX, SY, SZ = spin_matrices(2)


def lifted_couplings():
    return tuple(HermitianOperator(lift(c.entries, 2)) for c in nv_couplings())


class TestHamiltonian:
    def test_strain_spectrum(self):
        h = nv_hamiltonian(NvParams(e_strain=0.2))
        assert np.allclose(np.linalg.eigvalsh(h.entries), [0.0, 0.8, 1.2])

    def test_strain_resolves_dressed_pair(self):
        h = nv_hamiltonian(NvParams(e_strain=0.2))
        _, minus, plus = nv_dressed_basis()
        assert np.allclose(h.entries @ plus.amplitudes, 0.8 * plus.amplitudes)
        assert np.allclose(h.entries @ minus.amplitudes, 1.2 * minus.amplitudes)

    def test_axial_zeeman_shift(self):
        h = nv_hamiltonian(NvParams(b_field=(0.0, 0.0, 0.3)))
        assert np.allclose(np.linalg.eigvalsh(h.entries), [0.0, 0.7, 1.3])

    def test_signal_offset_scales_splitting(self):
        h = nv_hamiltonian(NvParams(delta_omega=0.1))
        assert np.allclose(h.entries, 1.1 * (SZ @ SZ))

    def test_rejects_nonpositive_splitting(self):
        with pytest.raises(ValidationError):
            NvParams(d_split=0.0)


class TestDressedBasis:
    def test_orthonormal_triple(self):
        vecs = [v.amplitudes for v in nv_dressed_basis()]
        gram = np.array([[a.conj() @ b for b in vecs] for a in vecs])
        assert np.abs(gram - np.eye(3)).max() < 1e-14

    def test_spin_expectations_vanish(self):
        for v in nv_dressed_basis():
            for s in (SX, SY, SZ):
                assert abs(v.amplitudes.conj() @ s @ v.amplitudes) < 1e-14

    def test_axial_component_swaps_pair(self):
        _, minus, plus = nv_dressed_basis()
        assert np.allclose(SZ @ plus.amplitudes, minus.amplitudes)
        assert np.allclose(SZ @ minus.amplitudes, plus.amplitudes)

    def test_signal_generator_is_squared_axial(self):
        assert np.allclose(signal_generator().entries, SZ @ SZ)


class TestControlField:
    def test_second_order_form(self):
        c = nv_control_bx(0.1)
        assert np.allclose(c.entries, 0.005 * (3.0 * SZ @ SZ - (SX @ SX - SY @ SY)))

    def test_field_ratio_guard(self):
        with pytest.raises(ValidationError):
            nv_control_bx(0.2)

    def test_dressed_spectrum(self):
        h = nv_dressed_hamiltonian(ratio=0.1)
        assert np.allclose(np.linalg.eigvalsh(h.entries), [0.0, 1.01, 1.02])

    def test_reduction_residual_beyond_first_order(self):
        # overlap deficits fall as the sixth power of the field ratio since
        # the stripped state error is third order and the deficit quadratic
        devs = {bx: nv_bx_discrepancy(bx) for bx in (0.05, 0.1, 0.15)}
        for bx, dev in devs.items():
            assert dev < bx ** 3
        assert devs[0.05] < 2e-8
        assert devs[0.1] < 1e-6
        assert devs[0.15] < 1e-5
        order = math.log2(devs[0.1] / devs[0.05])
        assert 5.5 < order < 6.5


class TestCodes:
    def test_bare_pair_members(self):
        code = nv_bare_code()
        assert np.allclose(code.psi0.amplitudes, [0.0, 1.0, 0.0])
        assert np.allclose(code.psi1.amplitudes,
                           np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0))

    def test_ancilla_protection_conditions(self):
        report = check_conditions(
            nv_ancilla_code(), lift(signal_generator().entries, 2),
            lifted_couplings())
        assert report.dephasing_violation < 1e-12
        assert report.relaxation_violation < 1e-12
        assert abs(report.signal - 1.0) < 1e-9

    def test_strict_product_check_fails_at_signal_block(self):
        # the pair products include the squared signal, whose code block must
        # distinguish the pair; protection and correctability part ways here
        code = nv_ancilla_code()
        dev = check_conditions(code, np.zeros((3, 3)), lifted_couplings()).kl_violation
        assert not dev <= KL
        assert abs(dev - 1.0 / math.sqrt(2.0)) < 1e-12


class TestNoGoFloor:
    def test_search_floor_regression(self):
        floor = no_go_search(nv_couplings(), 3, restarts=200, seed=0)
        assert floor >= NO_GO_FLOOR - 1e-9
        assert abs(floor - NO_GO_FLOOR) < 1e-6


class TestVerdicts:
    def test_pattern_and_witnesses(self):
        table = nv_verdict_table(restarts=200, seed=0)
        assert table.pattern() == (True, False, True, False)
        c1, c2, c3, c4 = table.cells
        assert (c1.regime, c1.ancilla) == ("dephasing", False)
        assert abs(c1.witness["span_residual"] - math.sqrt(2.0 / 3.0)) < 1e-9
        assert c1.witness["dephasing_violation"] < 1e-13
        assert (c2.regime, c2.ancilla) == ("relaxation", False)
        assert c2.witness["search_floor"] >= NO_GO_FLOOR - 1e-9
        assert (c3.regime, c3.ancilla) == ("relaxation", True)
        assert c3.witness["relaxation_violation"] < 1e-12
        assert abs(c3.witness["signal"] - 1.0) < 1e-9
        assert (c4.regime, c4.ancilla) == ("thermal", True)
        assert c4.witness["span_residual"] < 1e-12
        assert c4.witness["span_dim"] == 9

    def test_isotropy_under_rotated_couplings(self):
        table = nv_verdict_table(restarts=50, seed=3,
                                 couplings=rotated_couplings(7))
        assert table.pattern() == (True, False, True, False)

    def test_rotated_triple_preserves_algebra(self):
        triple = rotated_couplings(7)
        gram = np.array(
            [[np.trace(a.entries @ b.entries).real for b in triple] for a in triple])
        assert np.abs(gram - 2.0 * np.eye(3)).max() < 1e-12
        comm = triple[0].entries @ triple[1].entries \
            - triple[1].entries @ triple[0].entries
        assert np.abs(comm - 1j * triple[2].entries).max() < 1e-12

    def test_markdown_layout(self):
        table = nv_verdict_table(restarts=50, seed=0)
        lines = table.to_markdown().strip().split("\n")
        assert lines[0] == "| noise | ancilla | achievable | witness |"
        assert len(lines) == 6
        marks = [line.split("|")[3].strip() for line in lines[2:]]
        assert marks == ["yes", "no", "yes", "no"]
        assert "search_floor=2.000e+00" in lines[3]

    def test_json_layout(self):
        table = nv_verdict_table(restarts=50, seed=0)
        obj = {"cells": [c._asdict() for c in table.cells]}
        assert len(obj["cells"]) == 4
        for cell in obj["cells"]:
            assert set(cell) == {"regime", "ancilla", "achievable", "witness"}


class TestProbeModels:
    def test_dressed_probe_has_no_resonant_channel(self):
        model = protected_model()
        assert min(abs(nu) for nu in model.jump_set().frequencies) > 1e-3
        assert model.spectrum.descriptor["gamma"]["kind"] == "peak0"
        assert abs(np.trace(model.rho0).real - 1.0) < 1e-12
        assert np.allclose(model.rho0 @ model.rho0, model.rho0)

    def test_dressed_coherence_is_pinned(self):
        model = protected_model()
        traj = model.evolve(0.0, SimConfig(t_final=2.0))
        assert abs(model.coherence(traj.final) - 0.5) < 1e-12

    def test_dressed_fisher_grows_quadratically(self):
        est = qfi_numeric(protected_model(), 2.0)
        assert est.reliable
        assert abs(est.value - 1.0) < 1e-6

    def test_ancilla_probe_structure(self):
        model = protected_model(ancilla=True, nu0=5.0)
        assert model.dim == 6
        vals = np.linalg.eigvalsh(model.h.entries)
        assert np.allclose(vals, [0.0, 0.0, 5.0, 5.0, 5.0, 5.0])
        assert model.jump_set().frequencies == (-5.0, 0.0, 5.0)

    def test_undressed_decay(self):
        model = unprotected_model()
        traj = model.evolve(0.0, SimConfig(t_final=1.0))
        assert abs(model.coherence(traj.final) - 0.5 * math.exp(-2.0)) < 1e-12

    def test_undressed_fisher_decays(self):
        value = qfi_sld(unprotected_model(), 1.0)
        assert abs(value - math.exp(-4.0)) < 1e-6 * math.exp(-4.0)
