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
import dressedmet.cli
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


NV_TABLE = ["nv-demo", "--table", "--restarts", "2"]


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


# the one entry nothing reaches: no command or library path has called
# constructive_bound since the primal was read off the dual's central path
UNREACHED = {("sdp", "constructive_bound")}


def run_commands(argvs):
    codes = [dressedmet.cli.dispatch(argv) for argv in argvs]
    assert codes == [0] * len(codes)


def bench_direct_calls(tmp_path):
    """The benchmark's two calls that bypass the CLI, looked up on the package as it does."""
    sz = spin_matrices(2)[2]
    dressedmet.codespace.code_search(sz @ sz, [sz], 3, restarts=1, seed=0)
    path = tmp_path / "direct_model.json"
    path.write_text(json.dumps(protected_model().to_json_dict()))
    sim = dressedmet.simulate
    model = sim.ProbeModel.from_json_dict(dressedmet.jsonio.load_json(path))
    sim.qfi_numeric(model, 0.5, sim.SimConfig(t_final=0.5, dt=0.01))


def traced_run(tracing, run):
    """Spans recorded while ``run()`` goes under the wrappers of ``tracing.PATCHES``."""
    for module in {m for m, _, _ in tracing.PATCHES}:
        importlib.import_module(f"dressedmet.{module}")
    spans = []
    tracer = tracing.Tracer(dressedmet, spans)
    tracer.install()
    try:
        run()
    finally:
        tracer.remove()
    return spans


def patch_spans(module, run):
    """Installs only the ``PATCHES`` entries on ``module``; returns them and the span names.

    Entries on different modules can share a span name, so with one module's
    wrappers alone a span can come only from that module's lookup: a
    reference captured at import would record none."""
    tracing = load_tracing()
    tracing.PATCHES = [p for p in tracing.PATCHES if p[0] == module]
    return tracing.PATCHES, {span.name for span in traced_run(tracing, run)}


def test_every_cli_patch_records_a_span(tmp_path, capsys):
    patches, names = patch_spans("cli", lambda: run_commands(traced_commands(tmp_path)))
    for _, attr, span in patches:
        assert span in names, f"cli.{attr} recorded no {span} span"


def test_every_nv_patch_records_a_span(capsys):
    patches, names = patch_spans("nv", lambda: run_commands([NV_TABLE]))
    assert len(patches) == 5
    for _, attr, span in patches:
        assert span in names, f"nv.{attr} recorded no {span} span"


@pytest.mark.parametrize("module", sorted({m for m, _, _ in load_patches()} - {"cli", "nv"}))
def test_every_library_patch_records_a_span(module, tmp_path, capsys):
    def run():
        run_commands(traced_commands(tmp_path) + [NV_TABLE])
        bench_direct_calls(tmp_path)

    patches, names = patch_spans(module, run)
    for _, attr, span in patches:
        if (module, attr) in UNREACHED:
            assert span not in names, f"{module}.{attr} is reached now: drop it from UNREACHED"
        else:
            assert span in names, f"{module}.{attr} recorded no {span} span"


def test_result_hooks_read_finite_numbers(tmp_path, capsys):
    tracing = load_tracing()
    spans = traced_run(tracing, lambda: run_commands(traced_commands(tmp_path)))

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


@pytest.mark.parametrize("search", ["no_go_search", "code_search"])
def test_one_stiefel_span_per_restart(search):
    """Each restart is one ``stiefel_minimize`` call, looked up on ``codespace``,
    whose result the tracer reads as ``float(result[0])``."""
    sx, sy, sz = spin_matrices(2)
    restarts = 3
    args = {
        "no_go_search": ([sx, sy, sz], 3),
        "code_search": (sz @ sz, [sx, sz], 3),
    }[search]

    def run():
        getattr(dressedmet.codespace, search)(*args, restarts=restarts, seed=1)

    spans = traced_run(load_tracing(), run)
    stiefel = [s for s in spans if s.name == "codespace.stiefel_minimize"]
    assert len(stiefel) == restarts
    for span in stiefel:
        assert math.isfinite(span.attrs["f"]) and span.attrs["evals"] >= 1
