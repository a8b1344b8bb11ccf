"""The stacked Lindblad layer against the dict-of-lists layer it replaced.

``_reference_lindblad`` is the layer as it stood before the stacking: jump
operators in a ``Dict[float, List[ndarray]]`` and a superoperator assembled
column by column from matrix units.  On every instance the stacked layer
must bin to bitwise the same frequencies, give the same blocks to
``1e-14 max(1, ||A||)`` and the same generator to 1e-14 relative.  The
instances cover d in 2..6, k in 0..3, all three regimes, degenerate spectra
with repeated gaps, and spectra with and without shift coefficients; the
four NV probe models of the benchmark are pinned as well.  The Kronecker
sums ``A (x) I + I (x) B`` of the generator, written into a ``(d, d, d, d)``
array, must equal those of ``np.kron`` bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from dressedmet import lindblad
from dressedmet.errors import NumericalError, ValidationError
from dressedmet.lindblad import (
    BathSpectrum,
    Regime,
    commutator_superoperator,
    jump_operators,
    lamb_shift,
    superoperator,
)
from dressedmet.nv import protected_model, unprotected_model
from dressedmet.operators import HermitianOperator
from dressedmet.rand import stream

import _reference_lindblad as ref
from conftest import random_hermitian

REGIMES = (Regime.DEPHASING_ONLY, Regime.LOW_TEMPERATURE, Regime.FULL_THERMAL)


def _random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


def instance(i):
    rng = stream(9100, i)
    dim, k = 2 + i % 5, (i // 5) % 4
    if i % 3 == 1:
        # integer levels: repeated eigenvalues and many equal gaps
        u = _random_unitary(rng, dim)
        h = (u * rng.integers(-2, 3, dim)) @ u.conj().T
    else:
        h = random_hermitian(rng, dim)
    return bath_instance(rng, h, k, REGIMES[(i // 20) % 3], shift=bool(i % 2))


def near_degenerate_instance(i):
    """Integer levels, one of them 2 and one repeated, split by 10^U(-12, -9.5):
    inside the default grouping tolerance (``gap_rel`` times a norm of at least
    2) and far above rounding."""
    rng = stream(9300, i)
    dim, k = 3 + i % 4, 1 + (i // 4) % 3
    u = _random_unitary(rng, dim)
    base = np.append(2, rng.integers(-2, 3, dim - 2))
    split = rng.choice([-1.0, 1.0], dim) * 10.0 ** rng.uniform(-12.0, -9.5, dim)
    h = (u * (np.append(base, base[-1]) + split)) @ u.conj().T
    return bath_instance(rng, h, k, REGIMES[i % 3], shift=bool(i % 2))


def bath_instance(rng, h, k, regime, shift):
    """``h`` with k random couplings and a random bath, with shift coefficients if ``shift``."""
    dim = len(h)
    couplings = [HermitianOperator(random_hermitian(rng, dim)) for _ in range(k)]
    b0 = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    b1 = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))

    def gamma(nu):
        b = b0 + nu * b1
        return b @ b.conj().T

    lamb = None
    if shift:
        s0, s1 = random_hermitian(rng, max(k, 1))[:k, :k], random_hermitian(rng, max(k, 1))[:k, :k]

        def lamb(nu):
            return s0 + np.sin(nu) * s1

    spectrum = BathSpectrum(regime, gamma, k, lamb_coeffs=lamb)
    return HermitianOperator(0.5 * (h + h.conj().T)), couplings, spectrum


def thermal_model():
    # gate 8's fully thermal bath on the bare dressed model
    return dataclasses.replace(
        protected_model(), spectrum=BathSpectrum.flat(0.3, 3, regime=Regime.FULL_THERMAL))


NV_MODELS = {
    "bare": protected_model,
    "ancilla": lambda: protected_model(ancilla=True),
    "unprotected": unprotected_model,
    "thermal": thermal_model,
}


def assert_matches_reference(h, couplings, spectrum):
    lset = jump_operators(h, couplings)
    old = ref.jump_operators(h, couplings)
    assert lset.frequencies == tuple(sorted(old.transitions))
    scale = max([1.0] + [float(np.linalg.norm(a.entries)) for a in couplings])
    for nu, blocks in zip(lset.frequencies, lset.blocks):
        assert np.abs(blocks - np.array(old.transitions[nu])).max() <= 1e-14 * scale

    generator = superoperator(h, lset, spectrum)
    expected = ref.superoperator(h, old, spectrum)
    assert np.abs(generator - expected).max() <= 1e-14 * np.abs(expected).max()

    if old.transitions:
        expected_shift = ref.lamb_shift(old, spectrum).entries
        assert np.abs(lamb_shift(lset, spectrum).entries - expected_shift).max() <= 1e-14 * max(
            1.0, np.abs(expected_shift).max())


@pytest.mark.parametrize("i", range(120))
def test_random_instances_match_the_dict_layer(i):
    assert_matches_reference(*instance(i))


@pytest.mark.parametrize("i", range(60))
def test_near_degenerate_clusters_match_the_dict_layer(i):
    assert_matches_reference(*near_degenerate_instance(i))


def test_near_degenerate_instances_merge_split_levels():
    cases = [near_degenerate_instance(i) for i in range(60)]
    assert {h.dim for h, _, _ in cases} == {3, 4, 5, 6}
    assert {len(c) for _, c, _ in cases} == {1, 2, 3}
    for h, _, _ in cases:
        vals = np.linalg.eigvalsh(h.entries)
        assert np.abs(vals).max() >= 1.0 and (np.diff(vals) < 1e-9).any()
        # each cluster stays far wider than rounding and inside the grouping tolerance
        splits = np.diff(vals)[np.diff(vals) < 0.5]
        assert splits.max() < 1e-9 * np.abs(vals).max() and splits.max() > 1e-13


def test_jump_operators_refuse_a_stretched_cluster():
    # adjacent gaps all below tolerance but the chain spans 10.8x it
    h = HermitianOperator(np.diag(0.9 * np.arange(13)).astype(complex))
    with pytest.raises(NumericalError, match="eigenvalue cluster spans"):
        jump_operators(h, [h], gap_tol=1.0)


@pytest.mark.parametrize("gap_tol", [np.nan, np.inf, 0.0])
def test_jump_operators_refuse_a_gap_tol_not_finite_and_positive(gap_tol):
    h, couplings, _ = instance(1)
    with pytest.raises(ValidationError, match="gap_tol must be finite and positive"):
        jump_operators(h, couplings, gap_tol=gap_tol)


@pytest.mark.parametrize("name", sorted(NV_MODELS))
def test_nv_models_match_the_dict_layer(name):
    model = NV_MODELS[name]()
    assert_matches_reference(model.h, list(model.couplings), model.spectrum)


def test_instances_cover_the_advertised_cases():
    cases = [instance(i) for i in range(120)]
    assert {h.dim for h, _, _ in cases} == {2, 3, 4, 5, 6}
    assert {len(c) for _, c, _ in cases} == {0, 1, 2, 3}
    assert {s.regime for _, _, s in cases} == set(REGIMES)
    assert any(s.lamb_coeffs is not None for _, c, s in cases if c)
    degenerate = [h for h, _, _ in cases if np.diff(np.linalg.eigvalsh(h.entries)).min() < 1e-9]
    assert len(degenerate) >= 20


def test_jump_set_is_two_stacked_fields():
    h, couplings, _ = instance(17)
    lset = jump_operators(h, couplings)
    assert [f.name for f in dataclasses.fields(lset)] == ["frequencies", "blocks"]
    assert list(lset.frequencies) == sorted(lset.frequencies)
    assert lset.blocks.shape == (len(lset.frequencies), len(couplings), h.dim, h.dim)
    with pytest.raises(ValueError):
        lset.blocks[0, 0, 0, 0] = 1.0


def kron_superoperator(h, lset, spectrum):
    """``superoperator`` with its Kronecker sums formed by ``np.kron``."""
    dim = h.dim
    jumps, weighted, k = lindblad._weigh(lset, spectrum, spectrum.rate)
    eye = np.eye(dim)
    feed = np.einsum("xij,xkl->ikjl", weighted, jumps.conj()).reshape(dim * dim, dim * dim)
    hs = h.entries + lamb_shift(lset, spectrum).entries
    commutator = -1j * (np.kron(hs, eye) - np.kron(eye, hs.T))
    return commutator + feed - 0.5 * (np.kron(k, eye) + np.kron(eye, k.T))


@pytest.mark.parametrize("case", ["bare", "ancilla"] + [f"instance {i}" for i in range(0, 120, 7)])
def test_kronecker_sums_equal_np_kron(case):
    if case in NV_MODELS:
        model = NV_MODELS[case]()
        h, couplings, spectrum = model.h, list(model.couplings), model.spectrum
        signal = model.g.entries
    else:
        h, couplings, spectrum = instance(int(case.split()[1]))
        signal = random_hermitian(stream(9200, h.dim), h.dim)
    lset = jump_operators(h, couplings)
    assert np.array_equal(superoperator(h, lset, spectrum), kron_superoperator(h, lset, spectrum))
    eye = np.eye(h.dim)
    for g in (signal, h.entries):
        assert np.array_equal(commutator_superoperator(g),
                              -1j * (np.kron(g, eye) - np.kron(eye, g.T)))
