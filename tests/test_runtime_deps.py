"""Runtime dependencies stay numpy only.

The test extras install scipy, hypothesis and pytest, so an ``import scipy``
in ``src/`` would pass every other test.  A fresh interpreter imports every
``dressedmet`` module and runs golden inputs through ``cli.dispatch``
(a model emitted and simulated), then lists what it loaded.  Within the
package, the static design layers (``criteria``, ``sdp``, ``codespace``) import
no dynamics module, directly or through the modules they import.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import importlib, json, pkgutil, sys
import dressedmet
from dressedmet import cli
names = [m.name for m in pkgutil.iter_modules(dressedmet.__path__)]
for name in names:
    importlib.import_module("dressedmet." + name)
codes = [cli.dispatch(["nv-demo", "--emit-models", "bare"]),
         cli.dispatch(["simulate", "--model", "bare/unprotected_model.json",
                       "--config", sys.argv[1], "--delta-omega", "0.3", "--out", "sim.csv"])]
loaded = sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "hypothesis", "pytest"})
print(json.dumps({"modules": names, "codes": codes, "loaded": loaded}))
"""


def test_the_package_runs_on_numpy_alone(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(GOLDEN / "inputs" / "sim.json")],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert {"cli", "lindblad", "simulate", "jsonio", "operators"} <= set(report["modules"])
    assert report["codes"] == [0, 0]
    assert report["loaded"] == []
    assert (tmp_path / "sim.csv").read_text().startswith("t,coherence,purity,trace_drift\n")


def _package_imports(path: Path) -> set:
    """The sibling modules ``path`` imports at any depth of its source."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.add(node.module)
    return names


def test_the_static_design_layers_import_no_dynamics_module():
    # the design is static (criteria, SDP, code pair, control field); the master
    # equation only checks it afterwards
    package = SRC / "dressedmet"
    reached, todo = set(), ["criteria", "sdp", "codespace"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += sorted(_package_imports(package / f"{name}.py"))
    assert reached.isdisjoint({"lindblad", "simulate", "nv", "cli"}), sorted(reached)
