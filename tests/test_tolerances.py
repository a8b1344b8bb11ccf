"""Every ``Tolerances`` field is read by a public call, and only those fields exist.

For each field, one public call must change its result or its refusal when
only that field moves off its default; a field added without an entry in
``HONOURED`` fails here, so a threshold that nothing reads cannot come back
as a setting.  The fixed thresholds are module constants of
``dressedmet.tolerances`` with the values the fields had, and naming one as
a field is a ``TypeError``.
"""

import dataclasses
import math

import numpy as np
import pytest

from dressedmet import tolerances
from dressedmet.errors import ToolkitError
from dressedmet.lindblad import BathSpectrum, Regime, jump_operators
from dressedmet.nv import protected_model
from dressedmet.operators import HermitianOperator, ScalarField, orthonormal_span
from dressedmet.simulate import ProbeModel, SimConfig, evolve, qfi_numeric
from dressedmet.tolerances import TOL, Tolerances


def _span_of_a_skewed_generator(tol):
    # an anti-Hermitian part of 1e-11 fails the default 1e-12 and passes 1e-6
    skewed = np.eye(2) + 1e-11 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return orthonormal_span([skewed], ScalarField.REAL, tol=tol).size


def _slightly_indefinite_rate(tol):
    spec = BathSpectrum(Regime.FULL_THERMAL, lambda nu: np.diag([1.0, -1e-9]), 2)
    return spec.rates([1.0], tol)[0].tolist()


def _merged_levels(tol):
    # levels 1e-6 apart stay apart at gap_rel 1e-9 and merge at 1e-5
    h = HermitianOperator(np.diag([0.0, 1.0, 1.0 + 1e-6]).astype(complex))
    return len(jump_operators(h, [HermitianOperator(np.ones((3, 3)))], tol=tol).frequencies)


def _thermal_run(tol):
    # consecutive traces of this run differ in their last bit: a drift above 0 and below 1e-9
    model = dataclasses.replace(
        protected_model(), spectrum=BathSpectrum.flat(0.3, 3, regime=Regime.FULL_THERMAL))
    cfg = SimConfig(t_final=0.1, dt=0.01)
    return evolve(model.rho0, model.h, model.jump_set(), model.spectrum, cfg, tol).trace_drift


def _indefinite_start(tol):
    model = protected_model()
    rho0 = np.diag([0.6, 0.6, -0.2]).astype(complex)
    cfg = SimConfig(t_final=0.01, dt=0.01)
    return evolve(rho0, model.h, model.jump_set(), model.spectrum, cfg, tol).times.tolist()


def _free_qubit_estimate(tol):
    pauli_z = np.diag([1.0, -1.0]).astype(complex)
    model = ProbeModel(h=HermitianOperator(np.zeros((2, 2))), g=HermitianOperator(0.5 * pauli_z),
                       couplings=(), spectrum=BathSpectrum.flat(1.0, 0),
                       rho0=np.full((2, 2), 0.5, dtype=complex))
    return qfi_numeric(model, 3.0, delta=0.5, tol=tol).reliable


# field -> (a public call of a Tolerances, a value of the field that changes its outcome)
HONOURED = {
    "hermiticity": (_span_of_a_skewed_generator, 1e-6),
    "psd": (_slightly_indefinite_rate, 1e-6),
    "gap_rel": (_merged_levels, 1e-5),
    "trace_drift": (_thermal_run, 1e-30),
    "positivity_floor": (_indefinite_start, -math.inf),
    "qfi_disagreement": (_free_qubit_estimate, 1.0),
}

# the thresholds no caller varies: constants, with the values they had as fields
FIXED = {
    "state_norm": 1e-12,
    "orthonormality": 1e-10,
    "span_drop": 1e-10,
    "membership": 1e-9,
    "marginal_factor": 10.0,
    "decomposition": 1e-10,
    "traceless": 1e-10,
    "rank": 1e-10,
    "kl": 1e-8,
    "gap_abs": 1e-12,
    "stability": 0.1,
}


def _outcome(call, tol):
    try:
        return "ok", call(tol)
    except ToolkitError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("field", Tolerances._fields)
def test_each_field_changes_a_public_result(field):
    call, value = HONOURED[field]
    moved = TOL._replace(**{field: value})
    assert _outcome(call, TOL) != _outcome(call, moved)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_a_fixed_threshold_is_a_constant_not_a_field(name):
    assert getattr(tolerances, name.upper()) == FIXED[name]
    with pytest.raises(TypeError):
        Tolerances(**{name: FIXED[name]})
