"""End-to-end release gates, one printed pass/fail line per gate.

Each test exercises a full workflow at its contract tolerance and time
budget and prints a single summary line even when the suite runs quietly:

1. Axial design optimum: the certified solve on (S_z^2, spin triple)
   certifies value 1 with gap < 1e-6, and the optimizer lies in the span of
   the |0> and dressed-pair projectors (overlap > 1 - 1e-6).  Under 1 s.
2. Sandwich certification: on 30 random instances the constructive lower
   bound, the feasible primal read off the barrier dual's central path, and
   that dual's value hold their ordering with gap < 1e-6.  Under 30 s.
3. Verdict table: (dephasing yes / relaxation-bare no / relaxation-ancilla
   yes / thermal no) with machine witnesses: protected-code conditions,
   a 200-restart search floor at the pinned regression value, and an
   in-span residual < 1e-12.  Under 2 min.
4. Protected dynamics: the dressed probe under a zero-frequency bath holds
   code coherence 1/2 within 1e-8 up to t=10, and the fidelity-route Fisher
   information matches t^2/4 within 0.1% at t in {1, 4, 10}.  Under 1 min.
5. Unprotected baseline: the bare superposition decoheres as (1/2)e^{-2t}
   within 1e-6, its log-log Fisher slope on [2, 20] is nonpositive, and the
   protected probe's slope is 2.00 +- 0.05.  Under 1 min.
6. Correctability consistency: across 50 random instances, the quadratic
   escape verdict agrees with whether a correctable signal-carrying code is
   found (optimizer candidate, quadratic projection, then restart descent);
   every found code admits a two-level dressing.  Under 5 min.
7. Leakage order: the first-order eigenvector prediction for the driven
   triplet misses by O(offset^2), fitted exponent 2.0 +- 0.1 over offsets
   {1e-2, 5e-3, 2.5e-3}.  Under 10 s.
8. Integrator hygiene: trace, Hermiticity, and positivity are preserved on
   a fully thermal model and dt-halving shows fourth-order convergence
   (measured order >= 3.8).  Under 1 min.
"""

import math
import time

import numpy as np
import pytest

from _witnesses import correctable_code, loglog_slope, perturbation_leakage
from conftest import random_hermitian
from dressedmet.codespace import (
    check_conditions,
    code_from_optimizer,
    code_search,
    two_level_dressing,
)
from dressedmet.criteria import quadratic_generators, quadratic_span_condition
from dressedmet.lindblad import BathSpectrum, Regime, jump_operators
from dressedmet.nv import (
    NO_GO_FLOOR,
    nv_bare_code,
    nv_couplings,
    nv_dressed_hamiltonian,
    nv_hamiltonian,
    nv_verdict_table,
    protected_model,
    signal_generator,
    unprotected_model,
)
from dressedmet.operators import (
    HermitianOperator,
    ScalarField,
    lift,
    orthonormal_span,
    project_decompose,
    spin_matrices,
)
from dressedmet.rand import stream
from dressedmet.sdp import SdpProblem, constructive_bound, solve_primal
from dressedmet.simulate import (
    ProbeModel,
    SimConfig,
    qfi_numeric,
    scaling_sweep,
)

SX, SY, SZ = spin_matrices(2)
SZSQ = SZ @ SZ


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_1_axial_design_optimum(capsys):
    t0 = time.perf_counter()
    sol = solve_primal(SdpProblem.from_couplings(SZSQ, [SX, SY, SZ]))
    x = sol.x_certificate.entries
    zero = np.array([0.0, 1.0, 0.0], dtype=complex)
    psi_p = np.array([1.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    psi_m = np.array([1.0, 0.0, -1.0], dtype=complex) / math.sqrt(2.0)
    span = orthonormal_span(
        [np.outer(v, v.conj()) for v in (zero, psi_p, psi_m)],
        ScalarField.REAL,
    )
    inside, _ = project_decompose(x, span)
    overlap = float(np.linalg.norm(inside.entries) / np.linalg.norm(x))
    elapsed = time.perf_counter() - t0

    ok = (
        abs(sol.primal_value - 1.0) < 1e-6
        and sol.gap < 1e-6
        and sol.certified
        and overlap > 1.0 - 1e-6
        and elapsed < 1.0
    )
    report(capsys, "1 axial design optimum", ok,
           f"value={sol.primal_value:.6f} gap={sol.gap:.1e} "
           f"overlap={overlap:.9f} ({elapsed:.2f}s)")
    assert ok


def test_2_sandwich_certification(capsys):
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_order = 0.0
    for i in range(30):
        rng = stream(9000 + i)
        dim = int(rng.integers(2, 7))
        n_c = int(rng.integers(0, 5))
        g = random_hermitian(rng, dim)
        couplings = [random_hermitian(rng, dim) for _ in range(n_c)]
        low = constructive_bound(g, couplings).value
        sol = solve_primal(SdpProblem.from_couplings(g, couplings))
        worst_order = max(worst_order, low - sol.primal_value,
                          sol.primal_value - sol.dual_value)
        worst_gap = max(worst_gap, sol.gap)
        assert sol.certified, f"instance {i} not certified"
    elapsed = time.perf_counter() - t0

    ok = worst_gap < 1e-6 and worst_order < 1e-6 and elapsed < 30.0
    report(capsys, "2 sandwich certification", ok,
           f"30 instances, worst gap={worst_gap:.1e} "
           f"worst ordering slack={worst_order:.1e} ({elapsed:.2f}s)")
    assert ok


def test_3_verdict_table(capsys):
    t0 = time.perf_counter()
    table = nv_verdict_table(restarts=200)
    elapsed = time.perf_counter() - t0

    c1, c2, c3, c4 = table.cells
    floor = c2.witness["search_floor"]
    residual = c4.witness["span_residual"]
    ok = (
        table.pattern() == (True, False, True, False)
        and c1.witness["dephasing_violation"] < 1e-12
        and c1.witness["relaxation_violation"] < 1e-12
        and c2.witness["restarts"] == 200
        and floor >= NO_GO_FLOOR - 1e-9
        and c3.witness["dephasing_violation"] < 1e-12
        and c3.witness["relaxation_violation"] < 1e-12
        and abs(c3.witness["signal"]) > 1e-6
        and residual < 1e-12
        and elapsed < 120.0
    )
    report(capsys, "3 verdict table", ok,
           f"pattern={table.pattern()} floor={floor:.6f} "
           f"in-span residual={residual:.1e} ({elapsed:.2f}s)")
    assert ok


def test_4_protected_dynamics(capsys):
    t0 = time.perf_counter()
    model = protected_model()
    traj = model.evolve(0.0, SimConfig(t_final=10.0, record_stride=100))
    coh_err = max(abs(model.coherence(s) - 0.5) for s in traj.states)
    qfi_err = 0.0
    reliable = True
    for t in (1.0, 4.0, 10.0):
        est = qfi_numeric(model, t)
        qfi_err = max(qfi_err, abs(est.value - t * t / 4.0) / (t * t / 4.0))
        reliable = reliable and est.reliable
    elapsed = time.perf_counter() - t0

    ok = coh_err < 1e-8 and qfi_err < 1e-3 and reliable and elapsed < 60.0
    report(capsys, "4 protected dynamics", ok,
           f"max|coh-1/2|={coh_err:.1e} max rel QFI err={qfi_err:.1e} "
           f"({elapsed:.2f}s)")
    assert ok


def test_5_unprotected_baseline(capsys):
    t0 = time.perf_counter()
    bare = unprotected_model()
    traj = bare.evolve(0.0, SimConfig(t_final=10.0, record_stride=100))
    decay_err = max(
        abs(bare.coherence(s) - 0.5 * math.exp(-2.0 * t))
        for t, s in zip(traj.times, traj.states)
    )
    ts = np.geomspace(2.0, 20.0, 7)
    records = scaling_sweep(protected_model(), bare, ts)
    slope_p = loglog_slope(ts, [r.qfi_protected for r in records])
    slope_u = loglog_slope(ts, [r.qfi_unprotected for r in records])
    elapsed = time.perf_counter() - t0

    ok = (
        decay_err < 1e-6
        and slope_u <= 0.0
        and abs(slope_p - 2.0) < 0.05
        and elapsed < 60.0
    )
    report(capsys, "5 unprotected baseline", ok,
           f"max|coh-(1/2)e^-2t|={decay_err:.1e} slopes: protected="
           f"{slope_p:.3f} unprotected={slope_u:.1f} ({elapsed:.2f}s)")
    assert ok


def test_6_correctability_consistency(capsys):
    t0 = time.perf_counter()
    n_true = 0
    disagreements = []
    for i in range(50):
        rng = stream(7000 + i)
        dim = int(rng.integers(2, 7))
        n_c = int(rng.integers(1, 5))
        couplings = [random_hermitian(rng, dim) for _ in range(n_c)]
        g = random_hermitian(rng, dim)
        if i % 2 == 1:
            # force the generator into the quadratic span for half the
            # instances; the span is adjoint-closed, so the projection of a
            # Hermitian matrix stays Hermitian up to rounding
            span = orthonormal_span(
                quadratic_generators(couplings, dim), ScalarField.COMPLEX)
            inside, _ = project_decompose(g, span)
            g = 0.5 * (inside.entries + inside.entries.conj().T)
            if np.linalg.norm(g) < 1e-9:
                g = np.eye(dim, dtype=complex)
        verdict = quadratic_span_condition(g, couplings).verdict
        n_true += verdict

        def passes(code):
            rep = check_conditions(code, g, couplings)
            return rep.kl_violation <= 1e-8 and abs(rep.signal) > 1e-6

        found = None
        sol = solve_primal(SdpProblem.from_couplings(g, couplings))
        if sol.primal_value > 1e-8:
            cand = code_from_optimizer(sol.g_tilde.entries)
            if passes(cand):
                found = cand
        if found is None:
            cand = correctable_code(g, couplings)
            if cand is not None and passes(cand):
                found = cand
        if found is None:
            res = code_search(g, couplings, dim, restarts=6, seed=i)
            if res.kl_penalty <= 1e-8 and abs(res.signal) > 1e-6:
                found = res.code
        if found is not None:
            # every accepted code must be realizable as a degenerate
            # dressed pair below a lifted complement
            lifted = [HermitianOperator(lift(a, found.anc_dim))
                      for a in couplings]
            jump_operators(two_level_dressing(found, nu0=5.0), lifted)
        if (found is not None) != verdict:
            disagreements.append(i)
    elapsed = time.perf_counter() - t0

    ok = (
        not disagreements
        and 0 < n_true < 50
        and elapsed < 300.0
    )
    report(capsys, "6 correctability consistency", ok,
           f"50 instances ({n_true} escaping), "
           f"disagreements={disagreements} ({elapsed:.2f}s)")
    assert ok


def test_7_leakage_order(capsys):
    t0 = time.perf_counter()
    # the reduced control model shares an eigenbasis with the generator, so
    # the response lives in the lab frame: splitting plus transverse drive
    h0 = nv_hamiltonian(b_field=(0.1, 0.0, 0.0))
    rep = perturbation_leakage(h0, signal_generator(), 1e-2)
    elapsed = time.perf_counter() - t0

    ok = abs(rep.fit_exponent - 2.0) < 0.1 and elapsed < 10.0
    report(capsys, "7 leakage order", ok,
           f"fitted exponent={rep.fit_exponent:.3f} "
           f"worst mixing={rep.max_ratio:.1e} ({elapsed:.2f}s)")
    assert ok


def test_8_integrator_hygiene(capsys):
    t0 = time.perf_counter()
    code = nv_bare_code()
    psi = (code.psi0.amplitudes + code.psi1.amplitudes) / math.sqrt(2.0)
    thermal = ProbeModel(
        h=nv_dressed_hamiltonian(),
        g=signal_generator(),
        couplings=nv_couplings(),
        spectrum=BathSpectrum.flat(0.3, 3, regime=Regime.FULL_THERMAL),
        rho0=np.outer(psi, psi.conj()),
        code=code,
    )
    traj = thermal.evolve(0.0, SimConfig(t_final=2.0, record_stride=50))
    herm = max(float(np.linalg.norm(s - s.conj().T)) for s in traj.states)
    lowest = min(
        float(np.linalg.eigvalsh(0.5 * (s + s.conj().T)).min())
        for s in traj.states
    )
    finals = {}
    for dt in (0.02, 0.01, 0.005):
        run = SimConfig(t_final=2.0, dt=dt, record_stride=10 ** 9)
        finals[dt] = thermal.evolve(0.0, run).final
    e1 = float(np.linalg.norm(finals[0.02] - finals[0.01]))
    e2 = float(np.linalg.norm(finals[0.01] - finals[0.005]))
    order = math.log2(e1 / e2)
    elapsed = time.perf_counter() - t0

    ok = (
        traj.trace_drift < 1e-8
        and herm < 1e-12
        and lowest > -1e-12
        and order >= 3.8
        and elapsed < 60.0
    )
    report(capsys, "8 integrator hygiene", ok,
           f"drift={traj.trace_drift:.1e} herm={herm:.1e} "
           f"min eig={lowest:.1e} order={order:.2f} ({elapsed:.2f}s)")
    assert ok
