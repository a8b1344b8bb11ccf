"""Stacked forms of four small loops against the loops they replaced, kept verbatim.

``eigh_fixed`` fixes every column's phase at once and ``purify_pair`` writes
each side's weighted eigenvectors into its ancilla block at once: both must
equal the loops bit for bit.  ``perturbation_leakage`` predicts and matches
every level at once, and ``nv_bx_discrepancy`` takes every overlap from one
product; their sums run in another order, so the leakage must match within
1e-13 relative on the corrections, bitwise on the worst ratio and within 1e-6
on the fitted exponent (its residuals at the smallest offsets sit near the
rounding floor), and the discrepancy within 4e-16.
"""

import numpy as np
import pytest

from dressedmet.codespace import purify_pair
from dressedmet.nv import _SX, _SZ, nv_control_bx
from dressedmet.operators import HermitianOperator, as_matrix, eigh_fixed
from dressedmet.rand import stream
from dressedmet.tolerances import RANK

from _witnesses import (
    _first_order_rotation, first_order_mixing, loglog_slope, nv_bx_discrepancy, perturbation_leakage,
)
from conftest import random_density, random_hermitian


def loop_eigh_fixed(m):
    a = as_matrix(m)
    vals, vecs = np.linalg.eigh(a)
    vecs = vecs.copy()
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-9)
        if idx.size == 0:
            continue
        ph = col[idx[0]]
        vecs[:, j] = col * (ph.conj() / abs(ph))
    tie_tol = max(1e-12, 1e-12 * scale)
    order = list(range(len(vals)))
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and abs(vals[j + 1] - vals[i]) <= tie_tol:
            j += 1
        if j > i:
            def key(k):
                col = np.round(vecs[:, k], 10)
                return tuple(x for pair in zip(col.real, col.imag) for x in pair)

            order[i : j + 1] = sorted(order[i : j + 1], key=key)
        i = j + 1
    return vals[order].copy(), vecs[:, order]


def loop_purified_states(rho0, rho1):
    spectra = []
    for m in (rho0, rho1):
        vals, vecs = eigh_fixed(0.5 * (m + m.conj().T))
        keep = vals > RANK * max(vals.max(), 1e-300)
        spectra.append((vals[keep], vecs[:, keep]))
    sys_dim = rho0.shape[0]
    rank = max(len(spectra[0][0]), len(spectra[1][0]))
    anc_dim = 2 * rank
    states = []
    for side, (vals, vecs) in enumerate(spectra):
        psi = np.zeros(sys_dim * anc_dim, dtype=complex)
        order = np.argsort(vals)[::-1]
        for slot, k in enumerate(order):
            anc_index = side * rank + slot
            psi += np.sqrt(vals[k]) * np.kron(vecs[:, k], np.eye(anc_dim)[anc_index])
        states.append(psi / np.linalg.norm(psi))
    return states


def loop_leakage(h0, g, delta_omega):
    vals, vecs, coeff = first_order_mixing(h0, g)
    dim = len(vals)
    corrections = tuple(
        float(delta_omega * np.linalg.norm(coeff[:, n])) for n in range(dim)
    )
    max_ratio = float(delta_omega * np.abs(coeff).max())
    errs = []
    deltas = [delta_omega, delta_omega / 2.0, delta_omega / 4.0]
    for d in deltas:
        exact_vals, exact_vecs = eigh_fixed(h0 + d * g)
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
    return corrections, max_ratio, float(loglog_slope(deltas, errs))


def loop_bx_discrepancy(bx):
    h0 = _SZ @ _SZ
    rot = _first_order_rotation(h0, bx * _SX)
    _, v_eff = eigh_fixed(h0 + nv_control_bx(bx).entries)
    _, v_exact = eigh_fixed(h0 + bx * _SX)
    dressed = rot @ v_eff
    worst = 0.0
    for k in range(3):
        overlaps = np.abs(v_exact.conj().T @ dressed[:, k])
        worst = max(worst, 1.0 - float(overlaps.max()))
    return worst


def _hermitian(i):
    rng = stream(9300, i)
    dim = 2 + i % 5
    h = random_hermitian(rng, dim)
    if i % 3 == 0:  # integer levels: exact ties, ordered by the tie rule
        q, _ = np.linalg.qr(h)
        h = (q * rng.integers(-2, 3, dim)) @ q.conj().T
        h = 0.5 * (h + h.conj().T)
    return rng, h


@pytest.mark.parametrize("i", range(60))
def test_eigh_fixed_equals_the_loop(i):
    _, h = _hermitian(i)
    vals, vecs = eigh_fixed(h)
    want_vals, want_vecs = loop_eigh_fixed(h)
    assert np.array_equal(vals, want_vals) and np.array_equal(vecs, want_vecs)


@pytest.mark.parametrize("i", range(30))
def test_purified_states_equal_the_loop(i):
    rng = stream(9400, i)
    dim = 2 + i % 4
    rho0 = random_density(rng, dim, rank=1 + i % dim)
    rho1 = random_density(rng, dim, rank=1 + (i // 4) % dim)
    code = purify_pair(rho0, rho1)
    psi0, psi1 = loop_purified_states(rho0, rho1)
    assert np.array_equal(code.psi0.amplitudes, psi0)
    assert np.array_equal(code.psi1.amplitudes, psi1)


@pytest.mark.parametrize("i", [i for i in range(60) if i % 3])
def test_leakage_matches_the_loop(i):
    rng, h = _hermitian(i)
    g = random_hermitian(rng, len(h))
    delta = 10.0 ** -(1 + i % 4)
    report = perturbation_leakage(HermitianOperator(h), HermitianOperator(g), delta)
    corrections, max_ratio, exponent = loop_leakage(h, g, delta)
    np.testing.assert_allclose(report.corrections, corrections, rtol=1e-13, atol=0.0)
    assert report.max_ratio == max_ratio
    assert abs(report.fit_exponent - exponent) <= 1e-6


@pytest.mark.parametrize("bx", list(np.geomspace(1e-3, 0.19, 12)))
def test_bx_discrepancy_matches_the_loop(bx):
    assert abs(nv_bx_discrepancy(bx) - loop_bx_discrepancy(bx)) <= 4e-16


def test_eigh_fixed_of_an_empty_matrix_is_empty():
    vals, vecs = eigh_fixed(np.zeros((0, 0)))
    want_vals, want_vecs = loop_eigh_fixed(np.zeros((0, 0)))
    assert vals.shape == want_vals.shape == (0,) and vecs.shape == want_vecs.shape == (0, 0)
