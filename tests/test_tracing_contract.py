"""The benchmark's tracer must find every name it wraps and every field it reads.

``bench/tracing.py`` replaces ``(module, attribute)`` pairs on
``dressedmet.<module>`` with timing wrappers, and its ``AFTER`` hooks (plus
the Stiefel wrapper) read fields of the wrapped functions' results, such as
``SdpSolution.iterations`` and ``Trajectory.trace_drift``.  A refactor that
renames, moves or inlines one of those functions, or drops one of those
fields, would otherwise break traced benchmark runs without failing any test.
"""

import importlib
import importlib.util
import json
import math
from collections import defaultdict
from pathlib import Path

import pytest

import dressedmet
from dressedmet.jsonio import dump_json, operator_to_json
from dressedmet.nv import protected_model, unprotected_model
from dressedmet.operators import spin_matrices

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_patches():
    return load_tracing().PATCHES


@pytest.mark.parametrize("module, attr, span", load_patches())
def test_traced_name_resolves(module, attr, span):
    mod = importlib.import_module(f"dressedmet.{module}")
    assert callable(getattr(mod, attr, None)), f"dressedmet.{module}.{attr} ({span}) is gone"


def traced_commands(tmp_path):
    """Tiny CLI runs that reach every function with a result-reading hook and
    every name the tracer wraps on ``cli``."""
    sx, sy, sz = spin_matrices(2)
    files = {}
    for name, m in (("g", sz @ sz), ("sx", sx), ("sy", sy), ("sz", sz)):
        files[name] = str(tmp_path / f"{name}.json")
        dump_json(operator_to_json(m), files[name])
    for name, model in (("protected", protected_model()), ("unprotected", unprotected_model())):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(model.to_json_dict()))
    files["cfg"] = str(tmp_path / "cfg.json")
    (tmp_path / "cfg.json").write_text(json.dumps({"t_final": 1.0, "dt": 0.01}))
    return [
        ["check", "--criterion", "thm1", "--generator", files["g"], "--couplings", files["sz"]],
        ["optimize", "--generator", files["g"], "--couplings", files["sz"],
         "--out", str(tmp_path / "sol.json")],
        ["build-code", "--from-sdp", str(tmp_path / "sol.json"),
         "--out", str(tmp_path / "code.json")],
        ["verify", "--code", str(tmp_path / "code.json"), "--couplings", files["sz"]],
        ["no-go", "--couplings", files["sx"], files["sy"], files["sz"], "--restarts", "2",
         "--out", str(tmp_path / "no-go.json")],
        ["simulate", "--model", files["unprotected"], "--config", files["cfg"],
         "--out", str(tmp_path / "traj.csv")],
        ["sweep", "--protected", files["protected"], "--unprotected", files["unprotected"],
         "--tgrid", "0.5:1.0:2", "--config", files["cfg"], "--out", str(tmp_path / "sweep.csv")],
    ]


def traced_run(tracing, tmp_path):
    """Spans of the traced commands, run under the wrappers of ``tracing.PATCHES``."""
    for module in {m for m, _, _ in tracing.PATCHES}:
        importlib.import_module(f"dressedmet.{module}")
    spans = []
    tracer = tracing.Tracer(dressedmet, spans)
    tracer.install()
    try:
        codes = [dressedmet.cli.dispatch(argv) for argv in traced_commands(tmp_path)]
    finally:
        tracer.remove()
    assert codes == [0] * len(codes)
    return spans


def test_every_cli_patch_records_a_span(tmp_path, capsys):
    # with only the cli wrappers installed, a span of a name can come only
    # from the cli lookup; a reference captured at import would record none
    tracing = load_tracing()
    tracing.PATCHES = [p for p in tracing.PATCHES if p[0] == "cli"]
    names = {span.name for span in traced_run(tracing, tmp_path)}
    for _, attr, span in tracing.PATCHES:
        assert span in names, f"cli.{attr} recorded no {span} span"


def test_result_hooks_read_finite_numbers(tmp_path, capsys):
    tracing = load_tracing()
    spans = traced_run(tracing, tmp_path)

    attrs = defaultdict(list)
    for span in spans:
        if span.attrs is not None:
            attrs[span.name].append(span.attrs)
    for name in list(tracing.AFTER) + ["codespace.stiefel_minimize"]:
        assert attrs[name], f"no {name} span carries attributes"
        for record in attrs[name]:
            assert record, f"{name} recorded no fields"
            for key, value in record.items():
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, key, value)
