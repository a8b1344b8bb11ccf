"""``BathSpectrum.rates`` against a loop over the per-frequency path it replaced.

``rates`` evaluates ``gamma`` at every frequency the regime admits and checks
the stack in one pass; a refusal must name the first failing frequency, in
the order given, with that matrix's own deviation or eigenvalue, exactly as
the loop over ``_reference_rates.rate`` did; an error ``gamma`` raises at a
frequency wins only over the frequencies after it.
"""

import numpy as np
import pytest

import _reference_rates as ref
from dressedmet import lindblad
from dressedmet.errors import ValidationError
from dressedmet.lindblad import BathSpectrum, Regime, jump_operators, superoperator
from dressedmet.nv import protected_model
from dressedmet.operators import HermitianOperator, spin_matrices
from dressedmet.tolerances import TOL

FREQS = (-2.5, -1.0, -1e-3, 0.0, 1e-3, 1.0, 2.5)
BUILT_IN = {
    "flat": lambda k, regime: BathSpectrum.flat(0.7, k, regime),
    "ohmic": lambda k, regime: BathSpectrum.ohmic(1.3, 2.0, k, regime),
    "peak0": lambda k, regime: BathSpectrum.peak0(0.4, k, regime),
}


def loop(spectrum, freqs):
    """The old path: one ``rate`` call per frequency, stacked; or the first refusal."""
    try:
        mats = [ref.rate(spectrum, nu) for nu in freqs]
    except Exception as exc:  # the class and the message are compared
        return f"{type(exc).__name__}: {exc}"
    k = spectrum.n_couplings
    return np.array(mats, dtype=complex).reshape(len(freqs), k, k)


def stacked(spectrum, freqs):
    try:
        return spectrum.rates(freqs)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("kind", sorted(BUILT_IN))
def test_built_in_shapes_are_bitwise_the_loop(kind, regime, k):
    spectrum = BUILT_IN[kind](k, regime)
    assert_same(stacked(spectrum, FREQS), loop(spectrum, FREQS))
    for nu in FREQS:
        assert_same(spectrum.rates([nu])[0].astype(complex), loop(spectrum, [nu])[0])


def custom(bad_at):
    """A two-coupling gamma over five frequencies; ``bad_at`` maps an index to its matrix,
    or to an exception ``gamma`` raises there."""
    freqs = (-1.0, -0.5, 0.0, 0.5, 1.0)
    good = np.array([[1.0, 0.2j], [-0.2j, 0.5]])

    def gamma(nu):
        out = bad_at.get(freqs.index(nu), good)
        if isinstance(out, Exception):
            raise out
        return out

    return BathSpectrum(Regime.FULL_THERMAL, gamma, 2), freqs


SKEW = np.array([[1.0, 1e-9], [0.0, 1.0]])
INDEFINITE = np.diag([1.0, -0.5])


@pytest.mark.parametrize("bad_at", [
    {2: SKEW},
    {1: INDEFINITE},
    {1: INDEFINITE, 2: SKEW},
    {2: INDEFINITE, 1: SKEW},
    {3: np.eye(3)},
    {3: np.eye(3), 1: INDEFINITE},
    {1: np.array([[np.nan, 0.0], [0.0, 1.0]]), 0: INDEFINITE},
    # the failing matrix's own deviation, not the larger one of a passing matrix
    {0: 1e6 * np.eye(2) + np.array([[0.0, 1e-7], [0.0, 0.0]]), 2: SKEW},
    {0: np.array([[0.25]]), 4: np.array([[2.0 + 0j]])},
    {1: np.array([[-1.0]])},
    {0: INDEFINITE, 2: RuntimeError("no rate here")},
    {2: RuntimeError("no rate here"), 3: SKEW},
    {1: SKEW, 3: "not a number"},
], ids=["skew-3rd", "indefinite-2nd", "indefinite-2nd-skew-3rd", "skew-2nd-indefinite-3rd",
        "shape-4th", "indefinite-2nd-shape-4th", "nan-2nd-indefinite-1st", "own-deviation",
        "broadcast", "broadcast-indefinite", "indefinite-1st-raises-3rd", "raises-3rd-skew-4th",
        "skew-2nd-unreadable-4th"])
def test_custom_gamma_refuses_and_accepts_as_the_loop(bad_at):
    spectrum, freqs = custom(bad_at)
    assert_same(stacked(spectrum, freqs), loop(spectrum, freqs))


def test_the_first_failing_frequency_is_named_with_its_own_deviation():
    spectrum, freqs = custom({0: 1e6 * np.eye(2) + np.array([[0.0, 1e-7], [0.0, 0.0]]),
                              2: SKEW})
    with pytest.raises(ValidationError, match=r"at nu=0.0 is not Hermitian \(deviation 1.000e-09\)"):
        spectrum.rates(freqs)
    spectrum, freqs = custom({1: INDEFINITE, 2: SKEW})
    with pytest.raises(ValidationError, match="at nu=-0.5 has negative eigenvalue -0.5"):
        spectrum.rates(freqs)


def test_shift_coefficients_are_bitwise_the_loop():
    shift = BathSpectrum(Regime.FULL_THERMAL, lambda nu: np.eye(2), 2,
                         lamb_coeffs=lambda nu: np.array([[-0.5 * nu]]))
    for nu in FREQS:
        got = shift._coefficients("shift", shift.lamb_coeffs, [nu], TOL)[0]
        assert got.tobytes() == ref.lamb(shift, nu).tobytes()


@pytest.mark.parametrize("regime", list(Regime))
def test_a_spectrum_over_no_couplings_gives_empty_rates(regime):
    for spectrum in (BathSpectrum.flat(0.3, 0, regime),
                     BathSpectrum(regime, lambda nu: np.zeros((0, 0)), 0),
                     BathSpectrum(regime, lambda nu: np.eye(1), 0)):
        assert spectrum.rates([0.5])[0].shape == (0, 0)
        assert spectrum.rates(FREQS).shape == (len(FREQS), 0, 0)


def test_the_generator_reads_its_rates_in_one_stacked_call(monkeypatch):
    model = protected_model()
    spectrum = BathSpectrum.flat(0.3, 3, regime=Regime.FULL_THERMAL)
    lset = model.jump_set()
    before = superoperator(model.h, lset, spectrum)
    calls = []
    counted = BathSpectrum.rates

    def rates(self, freqs, *args, **kwargs):
        calls.append(tuple(freqs))
        return counted(self, freqs, *args, **kwargs)

    monkeypatch.setattr(BathSpectrum, "rates", rates)
    assert superoperator(model.h, lset, spectrum).tobytes() == before.tobytes()
    assert calls == [lset.frequencies]


def test_a_hermitian_coupling_is_not_checked_again(monkeypatch):
    h = HermitianOperator(np.diag([0.0, 1.0, 3.0]))
    couplings = [HermitianOperator(m) for m in spin_matrices(2)]
    checked = []
    original = lindblad.require_hermitian

    def counting(stack, what, tol):
        checked.append(len(stack))
        return original(stack, what, tol)

    monkeypatch.setattr(lindblad, "require_hermitian", counting)
    jump_operators(h, couplings)
    jump_operators(h, [couplings[0], np.asarray(spin_matrices(2)[1])])
    assert checked == [1]
