"""The JSON wire format: exact round trips and one key rule for every document.

Every document kind the package writes (operator, state, code, bath spectrum,
probe model) must read back into a value that writes the same text.  Every
reader rejects a missing key and a key it does not know, naming it, and
reads dimensions only from whole numbers.  Arrays of the wrong shape and
models whose parts act on different spaces are validation errors.  The one
file writer rewrites a file in place.
"""

import dataclasses
import os
import stat

import numpy as np
import pytest

from dressedmet.codespace import CodeSpace
from dressedmet.errors import ValidationError
from dressedmet.jsonio import (
    finite_number,
    json_text,
    operator_from_json,
    operator_to_json,
    state_from_json,
    state_to_json,
    write_text,
)
from dressedmet.lindblad import BathSpectrum, Regime, spectrum_from_json
from dressedmet.nv import nv_ancilla_code, nv_bare_code, protected_model, unprotected_model
from dressedmet.simulate import ProbeModel, SimConfig

from conftest import random_state

SPECTRA = {
    "flat": lambda regime: BathSpectrum.flat(0.7, 2, regime=regime),
    "ohmic": lambda regime: BathSpectrum.ohmic(1.1, 3.0, 2, regime=regime),
    "peak0": lambda regime: BathSpectrum.peak0(0.5, 2, regime=regime),
}

MODELS = {
    "bare": protected_model,
    "ancilla": lambda: protected_model(ancilla=True),
    "unprotected": unprotected_model,
    "gap_tol": lambda: dataclasses.replace(unprotected_model(), gap_tol=1e-3),
}


def assert_round_trip(doc, decode, encode):
    assert json_text(encode(decode(doc))) == json_text(doc)


class TestRoundTrip:
    def test_operator(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert_round_trip(operator_to_json(m), operator_from_json, operator_to_json)

    def test_state(self, rng):
        doc = state_to_json(random_state(rng, 4))
        assert_round_trip(doc, state_from_json, state_to_json)

    @pytest.mark.parametrize("code", [nv_bare_code, nv_ancilla_code])
    def test_code(self, code):
        assert_round_trip(code().to_json_dict(), CodeSpace.from_json_dict, CodeSpace.to_json_dict)

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("kind", sorted(SPECTRA))
    def test_spectrum(self, kind, regime):
        doc = SPECTRA[kind](regime).descriptor
        assert_round_trip(doc, lambda d: spectrum_from_json(d, 2), lambda s: s.descriptor)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_model(self, name):
        doc = MODELS[name]().to_json_dict()
        assert_round_trip(doc, ProbeModel.from_json_dict, ProbeModel.to_json_dict)

    def test_peak0_is_dephasing_in_every_regime(self):
        for regime in Regime:
            spec = BathSpectrum.peak0(0.5, 1, regime=regime)
            for nu in (-1.0, 0.0, 1.0):
                np.testing.assert_array_equal(spec.rates([nu])[0], [[0.5 if nu == 0 else 0.0]])


class TestKeyRule:
    @pytest.mark.parametrize("path", [
        (), ("spectrum",), ("spectrum", "gamma"), ("code",), ("h",), ("code", "psi1"),
    ])
    def test_unknown_key_is_named(self, path):
        doc = protected_model(ancilla=True).to_json_dict()
        part = doc
        for key in path:
            part = part[key]
        part["stray"] = 1.0
        with pytest.raises(ValidationError, match="stray"):
            ProbeModel.from_json_dict(doc)

    def test_missing_key_is_named(self):
        doc = unprotected_model().to_json_dict()
        del doc["spectrum"]["regime"]
        with pytest.raises(ValidationError, match="regime"):
            ProbeModel.from_json_dict(doc)

    def test_state_form_of_the_initial_state_is_gone(self):
        # a model carries its initial state as the density matrix rho0 only
        doc = protected_model().to_json_dict()
        psi = nv_bare_code().psi0
        del doc["rho0"]
        doc["psi0"] = state_to_json(psi)
        with pytest.raises(ValidationError, match="rho0"):
            ProbeModel.from_json_dict(doc)

    def test_stray_gamma_parameter_is_an_unexpected_keyword(self):
        doc = {"regime": "full-thermal", "gamma": {"kind": "peak0", "rate": 0.5, "gamma": 2.0}}
        with pytest.raises(ValidationError, match="gamma"):
            spectrum_from_json(doc, 1)

    @pytest.mark.parametrize("doc", [
        {"regime": "sideways", "gamma": {"kind": "flat", "rate": 1.0}},
        {"regime": "full-thermal", "gamma": {"rate": 1.0}},
        {"regime": "full-thermal", "gamma": "flat"},
        {"regime": "full-thermal", "gamma": {"kind": "ohmic", "rate": 1.0}},
    ])
    def test_bad_descriptor(self, doc):
        with pytest.raises(ValidationError):
            spectrum_from_json(doc, 1)


class TestWholeNumberDims:
    @pytest.mark.parametrize("dim", [2.5, "2", True])
    def test_array_dim(self, dim):
        with pytest.raises(ValidationError, match="dim"):
            operator_from_json({"dim": dim, "re": [[1, 0], [0, 1]]})
        with pytest.raises(ValidationError, match="dim"):
            state_from_json({"dim": dim, "re": [1, 0]})

    def test_whole_float_dim_reads_as_int(self):
        np.testing.assert_array_equal(operator_from_json({"dim": 2.0, "re": [[1, 0], [0, 1]]}),
                                      np.eye(2))

    @pytest.mark.parametrize("sys_dim, anc_dim", [(1.5, 4.9), ("2", 2), (4, True)])
    def test_code_dims(self, sys_dim, anc_dim):
        # four-dimensional states, so only the rounding of the dims would match them
        doc = {"psi0": state_to_json(np.eye(4)[0]), "psi1": state_to_json(np.eye(4)[1]),
               "sys_dim": sys_dim, "anc_dim": anc_dim}
        with pytest.raises(ValidationError, match="_dim"):
            CodeSpace.from_json_dict(doc)


class TestBadShape:
    @pytest.mark.parametrize("doc", [
        {"dim": 3, "re": [[1, 0], [0, 1]]},
        {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0]]},
        {"dim": 2, "re": [[1, 0], [0]]},
        {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0]]},
        {"dim": 2, "re": [[1, 0], [0, "a"]]},
    ])
    def test_operator(self, doc):
        with pytest.raises(ValidationError, match="shape"):
            operator_from_json(doc)

    @pytest.mark.parametrize("doc", [
        {"dim": 3, "re": [1, 0]},
        {"dim": 2, "re": [1, [0]]},
    ])
    def test_state(self, doc):
        with pytest.raises(ValidationError, match="shape"):
            state_from_json(doc)


class TestNumericEntries:
    """Array entries are JSON numbers: strings and booleans do not read as numbers."""

    @pytest.mark.parametrize("doc", [
        {"dim": 2, "re": [["1", "0"], ["0", " 1e0 "]]},
        {"dim": 2, "re": [[True, False], [False, True]]},
        {"dim": 2, "re": [[1, 0], [0, 1]], "im": [["0", "0"], ["0", "0"]]},
        {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[False, False], [False, False]]},
        {"dim": 2, "re": [[1, 0], [0, None]]},
        {"dim": 2, "re": [[1, 0], [0, 10 ** 400]]},
        {"dim": 2, "re": [[True, 0], [0, 1]]},
        {"dim": 2, "re": [[True, 0.0], [0.0, 1.0]]},
        {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, False], [0, 0]]},
        {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [True, 0.0]]},
    ])
    def test_operator(self, doc):
        with pytest.raises(ValidationError, match="numeric"):
            operator_from_json(doc)

    @pytest.mark.parametrize("re", [["1", "0"], [True, False], [True, 0], [0.5, False]])
    def test_state(self, re):
        with pytest.raises(ValidationError, match="numeric"):
            state_from_json({"dim": 2, "re": re})


class TestFiniteScalars:
    """Scalar parameters are finite JSON numbers: no strings, booleans or NaN."""

    @pytest.mark.parametrize("value", [5, 5.0, -0.25, 2 ** 60])
    def test_numbers(self, value):
        out = finite_number(value, "x")
        assert type(out) is float and out == value

    @pytest.mark.parametrize("value", [
        "5", " 5 ", True, False, None, [5], float("nan"), float("inf"), -float("inf"),
        pytest.param(10 ** 400, id="10**400"),
    ])
    def test_refused(self, value):
        with pytest.raises(ValidationError, match="x must be a finite number"):
            finite_number(value, "x")

    @pytest.mark.parametrize("doc, field", [
        ({"t_final": "5"}, "t_final"),
        ({"t_final": True}, "t_final"),
        ({"t_final": 5.0, "dt": True}, "dt"),
        ({"t_final": 5.0, "dt": "0.1"}, "dt"),
    ])
    def test_config(self, doc, field):
        with pytest.raises(ValidationError, match=field):
            SimConfig.from_json_dict(doc)

    @pytest.mark.parametrize("gamma, field", [
        ({"kind": "flat", "rate": "2"}, "rate"),
        ({"kind": "peak0", "rate": True}, "rate"),
        ({"kind": "flat", "rate": float("nan")}, "rate"),
        ({"kind": "ohmic", "rate": 1.0, "cutoff": "3"}, "cutoff"),
    ])
    def test_spectrum(self, gamma, field):
        with pytest.raises(ValidationError, match=f"spectrum {field}"):
            spectrum_from_json({"regime": "full-thermal", "gamma": gamma}, 1)

    @pytest.mark.parametrize("gap_tol", [float("nan"), float("inf"), "1e-3", True])
    def test_model_gap_tol(self, gap_tol):
        doc = dict(protected_model().to_json_dict(), gap_tol=gap_tol)
        with pytest.raises(ValidationError, match="gap_tol"):
            ProbeModel.from_json_dict(doc)

    def test_nan_gap_tol_of_a_model_value_is_refused(self):
        # at NaN the protected model's six frequencies merged into (0.0,)
        model = protected_model()
        assert len(model.jump_set().frequencies) == 6
        with pytest.raises(ValidationError, match="gap_tol"):
            dataclasses.replace(model, gap_tol=float("nan")).jump_set()

    def test_whole_numbers_still_load(self):
        assert SimConfig.from_json_dict({"t_final": 5, "dt": 1}) == SimConfig(5.0, 1.0)
        spec = spectrum_from_json({"regime": "full-thermal",
                                   "gamma": {"kind": "ohmic", "rate": 2, "cutoff": 3}}, 1)
        assert spec.descriptor["gamma"] == {"kind": "ohmic", "rate": 2.0, "cutoff": 3.0}
        doc = dict(unprotected_model().to_json_dict(), gap_tol=1)
        assert ProbeModel.from_json_dict(doc).gap_tol == 1.0


class TestModelDims:
    """Every operator of a model acts on the space of its ``h``."""

    @staticmethod
    def two_level(doc, field):
        small = operator_to_json(np.eye(2) / 2)
        if field == "couplings":
            doc[field][0] = small
        else:
            doc[field] = small
        return doc

    @pytest.mark.parametrize("field", ["rho0", "g", "couplings"])
    def test_two_level_part_of_a_three_level_model(self, field):
        doc = self.two_level(unprotected_model().to_json_dict(), field)
        with pytest.raises(ValidationError, match=r"\(2, 2\), but h has dim 3"):
            ProbeModel.from_json_dict(doc)

    def test_code(self):
        doc = unprotected_model().to_json_dict()
        doc["code"] = nv_ancilla_code().to_json_dict()
        with pytest.raises(ValidationError, match="code has dim 6, but h has dim 3"):
            ProbeModel.from_json_dict(doc)


class TestWriteText:
    def test_shorter_text_over_a_longer_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("stale\n" * 100)
        write_text(path, "new\n")
        assert path.read_bytes() == b"new\n"

    def test_new_file_follows_the_umask(self, tmp_path):
        umask = os.umask(0o022)
        try:
            write_text(tmp_path / "fresh.txt", "x")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(os.stat(tmp_path / "fresh.txt").st_mode) == 0o644

    def test_non_regular_file_is_not_truncated(self):
        write_text(os.devnull, "anything\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_gets_the_text_and_no_truncate(self, tmp_path):
        # a pipe cannot seek, so a truncate there would raise
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_text(fifo, "through the pipe\n")
            assert os.read(reader, 100) == b"through the pipe\n"
        finally:
            os.close(reader)
