"""The Cholesky positivity check against the stacked ``eigvalsh`` it replaced.

``simulate._check_states`` factors ``herm - floor I`` of every record at once
and runs ``eigvalsh`` only to name a failing record;
``_reference_propagate._check_states`` is the ``eigvalsh`` check kept
verbatim.  On stacks whose smallest eigenvalue is planted near the floor the
two must give the same verdict and the same message.  They may disagree
within about 1e-15 of the floor: the factorization's backward error is of
order ``d eps |rho|`` and ``eigvalsh``'s of ``eps |rho|``, so a plant that
close could fall either way.  The nearest plant here, 1e-12, is far outside
that band.  One departure is declared: a record with a non-finite entry is
refused as a failing record, which the oracle may raise ``LinAlgError`` for or
pass.
"""

import math
import warnings

import numpy as np
import pytest

from dressedmet import simulate
from dressedmet.tolerances import TOL, Tolerances

import _reference_propagate as reference

RECORDS = 5
WHERE = {"first": 0, "middle": RECORDS // 2, "last": RECORDS - 1}
# planted minus floor; the two checks may disagree within about 1e-15 of the floor
GAPS = (-0.1, -1e-9, -1e-12, 1e-12, 1e-9, 0.1)


def _outcome(check, records, tol):
    try:
        check(records, tol)
    except Exception as exc:  # the verdict, or whatever else the check raises
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _states(vals, rng):
    """Hermitian ``U diag(vals) U^dag`` for random unitaries, stacked like ``vals``."""
    shape = vals.shape + vals.shape[-1:]
    u, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return (u * vals[..., None, :]) @ np.swapaxes(u, -2, -1).conj()


def _planted(dim, offsets, plants, rng):
    """``(RECORDS, offsets, dim, dim)`` states with eigenvalues in [0.05, 1], but
    for each ``record: value`` of ``plants`` a smallest eigenvalue ``value`` in
    that record's middle offset."""
    vals = rng.uniform(0.05, 1.0, size=(RECORDS, offsets, dim))
    for record, value in plants.items():
        vals[record, offsets // 2, 0] = value
    return _states(vals, rng)


@pytest.mark.parametrize("floor", [TOL.positivity_floor, 0.0])
@pytest.mark.parametrize("gap", GAPS)
@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("offsets", [1, 3])
@pytest.mark.parametrize("dim", [2, 3, 6])
def test_a_planted_eigenvalue_gets_the_reference_verdict(dim, offsets, where, gap, floor):
    rng = np.random.default_rng([dim, offsets, WHERE[where]])
    records = _planted(dim, offsets, {WHERE[where]: floor + gap}, rng)
    tol = Tolerances(positivity_floor=floor)
    want = _outcome(reference._check_states, records, tol)
    assert _outcome(simulate._check_states, records, tol) == want
    if gap < 0:
        assert want.startswith("NumericalError: state lost positivity: min eigenvalue")
    else:
        assert want == "ok"


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_the_first_of_two_failing_records_is_named(dim):
    rng = np.random.default_rng(dim)
    floor = TOL.positivity_floor
    records = _planted(dim, 3, {1: floor - 1e-9, 3: floor - 0.1}, rng)
    got = _outcome(simulate._check_states, records, TOL)
    assert got == _outcome(reference._check_states, records, TOL)
    assert got.endswith(f"min eigenvalue {floor - 1e-9:.3e}")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("also_failing", [False, True])
def test_a_non_finite_stack_gets_the_reference_outcome(bad, also_failing):
    # the declared departure from the oracle: a non-finite record fails with a
    # minimum of nan, where the oracle's eigvalsh raises LinAlgError or passes
    # it (nan < floor is false), and it is named before a later failing record
    rng = np.random.default_rng(3)
    plants = {RECORDS - 1: TOL.positivity_floor - 0.1} if also_failing else {}
    records = _planted(3, 2, plants, rng)
    records[WHERE["middle"], 1, 2, 2] = bad
    for floor in (TOL.positivity_floor, -math.inf):
        assert (_outcome(simulate._check_states, records, Tolerances(positivity_floor=floor))
                == "NumericalError: state lost positivity: min eigenvalue nan")


def test_a_failing_record_before_a_non_finite_one_is_named():
    rng = np.random.default_rng(4)
    floor = TOL.positivity_floor
    records = _planted(3, 2, {0: floor - 0.1}, rng)
    records[WHERE["last"], 0, 1, 1] = math.nan
    got = _outcome(simulate._check_states, records, TOL)
    assert got == f"NumericalError: state lost positivity: min eigenvalue {floor - 0.1:.3e}"


def test_an_empty_stack_passes():
    records = np.empty((0, 2, 3, 3), dtype=complex)
    assert _outcome(simulate._check_states, records, TOL) == "ok"


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return refuse


def test_a_floor_of_minus_inf_passes_any_finite_stack_at_once(monkeypatch):
    rng = np.random.default_rng(5)
    records = _planted(3, 2, {0: -10.0, RECORDS - 1: -1e300}, rng)
    lenient = Tolerances(positivity_floor=-math.inf)
    assert _outcome(reference._check_states, records, lenient) == "ok"
    for name in ("cholesky", "eigvalsh"):  # nothing finite can fail it: no factorization
        monkeypatch.setattr(simulate.np.linalg, name, _refuse(name))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate._check_states(records, lenient)


def test_a_positive_stack_never_reaches_eigvalsh(monkeypatch):
    rng = np.random.default_rng(7)
    records = _planted(6, 3, {WHERE["middle"]: 0.0}, rng)
    monkeypatch.setattr(simulate.np.linalg, "eigvalsh", _refuse("eigvalsh"))
    simulate._check_states(records, TOL)
