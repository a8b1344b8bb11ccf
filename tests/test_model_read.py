"""The stacked model reader against the per-array reader it replaced.

``ProbeModel.from_json_dict`` checks the couplings, ``h`` and ``g`` of a
model as one stack, with one Hermiticity check, and reads them one at a time
only to name a fault.  Mutated leaves of the models that ``nv-demo
--emit-models`` writes (bare and ``--ancilla``) and of the bench's fully
thermal variant, with one fault or two, must give what
``_reference_model_read`` gives: bitwise-equal entries for an accepted
document, and the same exception class and message for a refused one.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from _reference_model_read import from_json_dict as reference_read
from dressedmet.errors import ValidationError
from dressedmet.nv import protected_model, unprotected_model
from dressedmet.simulate import ProbeModel
from dressedmet.tolerances import TOL

THERMAL_SPECTRUM = {"regime": "full-thermal", "gamma": {"kind": "flat", "rate": 0.3}}


def _text_round_trip(doc):
    return json.loads(json.dumps(doc))


def _thermal():
    doc = protected_model().to_json_dict()
    doc["spectrum"] = THERMAL_SPECTRUM
    return doc


BASES = [_text_round_trip(doc) for doc in (
    protected_model().to_json_dict(),
    unprotected_model().to_json_dict(),
    protected_model(ancilla=True).to_json_dict(),
    _thermal(),
)]


def _paths(node, path=()):
    """Every path of ``node``: ``(path, value)`` for dicts, lists and leaves alike."""
    yield path, node
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _operator_paths(doc, hermitian_only=False):
    names = [("h",), ("g",)] + [("couplings", i) for i in range(len(doc["couplings"]))]
    return names if hermitian_only else names + [("rho0",)]


LEAF_VALUES = [float("nan"), float("inf"), float("-inf"), True, "1", None, 1e308, 1e65]


def _mutations(doc):
    """Every single-fault mutation of ``doc`` as ``(kind, path, argument)``."""
    out = []
    for path, node in _paths(doc):
        if isinstance(node, dict):
            out += [("drop", path, key) for key in node] + [("stray", path, None)]
        elif not isinstance(node, list):
            out += [("leaf", path, value) for value in LEAF_VALUES]
            if path[-1] == "dim":
                out.append(("leaf", path, 2.5))
    for op in _operator_paths(doc):
        out += [("ragged", op + (part, row), None) for part in ("re", "im")
                for row in range(_at(doc, op)["dim"])]
    for op in _operator_paths(doc, hermitian_only=True):
        out += [("skew", op, factor) for factor in (0.5, 2.0)]
    return out


def _mutate(doc, kind, path, arg):
    doc = copy.deepcopy(doc)
    if kind == "leaf":
        _at(doc, path[:-1])[path[-1]] = arg
    elif kind == "drop":
        del _at(doc, path)[arg]
    elif kind == "stray":
        _at(doc, path)["stray"] = 1.0
    elif kind == "ragged":
        _at(doc, path).pop()
    else:  # an anti-Hermitian entry just below (0.5) or above (2.0) the hermiticity rule
        op = _at(doc, path)
        size = max(1.0, float(np.abs(np.array(op["re"]) + 1j * np.array(op["im"])).max()))
        op["re"][0][1] += arg * TOL.hermiticity * size
    return doc


def outcome(read, doc):
    """What ``read`` makes of ``doc``: the refusal, or the model's arrays as bytes."""
    try:
        model = read(copy.deepcopy(doc))
    except Exception as exc:  # the class and the message are compared
        return type(exc), str(exc)
    arrays = [model.h.entries, model.g.entries, np.asarray(model.rho0)]
    arrays += [a.entries for a in model.couplings]
    return ([(a.dtype, a.shape, a.tobytes()) for a in arrays], model.spectrum.descriptor,
            None if model.code is None else model.code.frame.tobytes(), model.gap_tol)


MUTATIONS = [(i, m) for i, doc in enumerate(BASES) for m in _mutations(doc)]


@seed(20261020)
@settings(max_examples=400, deadline=None, database=None)
@given(st.sampled_from(MUTATIONS))
def test_a_mutated_model_reads_as_it_did(case):
    i, (kind, path, arg) = case
    doc = _mutate(BASES[i], kind, path, arg)
    assert outcome(ProbeModel.from_json_dict, doc) == outcome(reference_read, doc)


@seed(20261021)
@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_a_model_with_two_faults_names_the_same_one(data):
    i = data.draw(st.sampled_from(range(len(BASES))))
    first, second = (data.draw(st.sampled_from(_mutations(BASES[i]))) for _ in range(2))
    try:  # the second fault may sit under a key the first one dropped
        doc = _mutate(_mutate(BASES[i], *first), *second)
    except (KeyError, IndexError, TypeError):
        assume(False)
    assert outcome(ProbeModel.from_json_dict, doc) == outcome(reference_read, doc)


@pytest.mark.parametrize("i", range(len(BASES)))
def test_every_base_model_reads_bitwise_as_it_did(i):
    assert outcome(ProbeModel.from_json_dict, BASES[i]) == outcome(reference_read, BASES[i])


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_the_hermiticity_rule_holds_at_its_threshold(factor, accepted):
    doc = _mutate(BASES[2], "skew", ("couplings", 1), factor)
    got = outcome(ProbeModel.from_json_dict, doc)
    assert got == outcome(reference_read, doc)
    assert (got[0] is not ValidationError) == accepted


def test_whole_numbers_and_a_missing_im_still_read_one_at_a_time():
    doc = copy.deepcopy(BASES[0])
    doc["h"] = {"dim": 3.0, "re": [[1, 0, 0], [0, 0, 0], [0, 0, -1]]}
    assert outcome(ProbeModel.from_json_dict, doc) == outcome(reference_read, doc)


def test_the_first_of_two_faults_in_reading_order_is_named():
    # a non-Hermitian coupling before a NaN in h; the spectrum is read between g and rho0
    skewed = copy.deepcopy(BASES[0])
    skewed["couplings"][0]["re"][0][1] += 1.0
    skewed["h"]["re"][0][0] = float("nan")
    late = copy.deepcopy(BASES[0])
    late["spectrum"]["regime"] = "sideways"
    late["rho0"]["re"][0][0] = float("nan")
    for doc, named in ((skewed, "operator is not Hermitian"), (late, "bad spectrum")):
        got = outcome(ProbeModel.from_json_dict, doc)
        assert got == outcome(reference_read, doc) and named in got[1]


def test_couplings_that_are_not_a_list_fail_as_before():
    for couplings in (5, None, "ab", {"a": 1}):
        doc = dict(BASES[0], couplings=couplings)
        assert outcome(ProbeModel.from_json_dict, doc) == outcome(reference_read, doc)
