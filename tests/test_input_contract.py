"""The CLI's input contract, on mutated golden inputs.

The ``cli`` docstring promises exit codes 0 to 3 and no output from a
refused run.  Each example takes one step of ``golden/cases.json`` run by
``check``, ``optimize``, ``build-code``, ``verify`` or ``no-go``, mutates one
of its input documents (a leaf set to NaN, +-inf, ``true``, ``"1"``,
``null``, 1e308, -1, 0 or ``[1]``; a key dropped or added; a row or vector
made ragged; ``dim`` changed; the operator cut to a smaller dimension that
the other inputs do not share) and runs it through ``cli.dispatch``.  The
inputs of ``build-code`` and ``verify`` are the golden ``optimize`` and
``build-code`` outputs that those steps read.  Every run must:

- exit with 0, 1, 2 or 3, raising nothing;
- raise no warning (tier-1 turns ``RuntimeWarning`` into an error);
- on exit 1 or 2, write no output file, no sidecar and nothing on stdout;
- on exit 0 or 3, write only finite numbers.

The dynamics commands ``simulate`` and ``sweep`` keep the same contract on
the ``nv-models`` steps of ``golden/cases.json``, whose models are the golden
``nv-demo --emit-models`` outputs: each example mutates one model or config
document the same way, or draws the ``--delta-omega`` value or the three
``--tgrid`` fields from extreme, malformed and valid values.  An accepted run
exits 0 and writes a CSV of finite values.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dressedmet.cli import dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("check", "optimize", "build-code", "verify", "no-go")
# the chained inputs of build-code and verify, as the golden optimize and
# build-code steps wrote them
CHAINED = ("sol.json", "code.json")


def _steps():
    """``(argv, {file name: document})`` of every golden step the contract covers."""
    spec = json.loads((GOLDEN / "cases.json").read_text())
    steps = []
    for case, case_steps in spec["cases"].items():
        for argv in case_steps:
            if argv[0] not in COMMANDS:
                continue
            docs = {}
            for flag, arg in zip(argv, argv[1:]):
                if arg.startswith("{inputs}/"):
                    docs[arg] = json.loads((GOLDEN / "inputs" / arg[len("{inputs}/"):]).read_text())
                elif arg in CHAINED and flag != "--out":
                    docs[arg] = json.loads((GOLDEN / "expected" / case / arg).read_text())
            steps.append((argv, docs))
    return steps


STEPS = _steps()
LEAF_VALUES = [float("nan"), float("inf"), float("-inf"), True, "1", None, 1e308, -1, 0, [1]]


def _paths(node, path=()):
    yield path, node
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutations(doc):
    """Every single-fault mutation of ``doc`` as ``(kind, path, argument)``."""
    out = []
    for path, node in _paths(doc):
        if isinstance(node, dict):
            out += [("drop", path, key) for key in node] + [("stray", path, None)]
            if isinstance(node.get("dim"), int) and isinstance(node.get("re"), list):
                out += [("leaf", path + ("dim",), node["dim"] + step) for step in (-1, 1)]
                if node["dim"] > 1 and isinstance(node["re"][0], list):
                    out.append(("shrink", path, None))
        elif isinstance(node, list):
            if node:
                out.append(("ragged", path, None))
        else:
            out += [("leaf", path, value) for value in LEAF_VALUES]
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
    else:  # the leading block of an operator: valid, one dimension smaller
        op = _at(doc, path)
        op["dim"] -= 1
        for part in ("re", "im"):
            if part in op:
                op[part] = [row[:-1] for row in op[part][:-1]]
    return doc


def _refuse_constant(name):
    raise AssertionError(f"non-finite number {name} in an accepted run's output")


def _assert_finite(node, where):
    if isinstance(node, float):
        assert math.isfinite(node), where
    elif isinstance(node, dict):
        for key, child in node.items():
            _assert_finite(child, f"{where}.{key}")
    elif isinstance(node, list):
        for child in node:
            _assert_finite(child, where)


def _run(argv, docs, workdir):
    """Exit code, stdout and the files the run wrote, with ``docs`` as its inputs."""
    names = {}
    for i, (arg, doc) in enumerate(docs.items()):
        names[arg] = workdir / f"input{i}.json"
        names[arg].write_text(json.dumps(doc))
    before = set(workdir.iterdir())
    argv = argv[:1] + [str(workdir / a) if flag == "--out" else str(names.get(a, a))
                       for flag, a in zip(argv, argv[1:])]
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = dispatch(argv)
        except SystemExit as exc:  # argparse's usage refusal, exit 1
            code = exc.code
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), sorted(set(workdir.iterdir()) - before)


@seed(20261021)
@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_a_mutated_input_keeps_the_cli_contract(data):
    argv, docs = data.draw(st.sampled_from(STEPS))
    target = data.draw(st.sampled_from(sorted(docs)))
    mutation = data.draw(st.sampled_from(_mutations(docs[target])))
    docs = {**docs, target: _mutate(docs[target], *mutation)}
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, written = _run(argv, docs, Path(tmp))
        assert code in (0, 1, 2, 3)
        if code in (1, 2):
            assert not written and not stdout
            return
        texts = [path.read_text() for path in written] + ([stdout] if stdout.startswith("{") else [])
        assert texts or stdout
        for text in texts:
            _assert_finite(json.loads(text, parse_constant=_refuse_constant), argv[0])


def test_every_step_is_drawn_from_the_golden_cases():
    assert {argv[0] for argv, _ in STEPS} == set(COMMANDS)
    assert all(docs for _, docs in STEPS)


def test_the_unmutated_steps_pass():
    for argv, docs in STEPS:
        with tempfile.TemporaryDirectory() as tmp:
            code, _, written = _run(argv, docs, Path(tmp))
            assert code in (0, 3) and (written or argv[0] == "check")


# ---------------------------------------------------------------------------
# the dynamics commands
# ---------------------------------------------------------------------------

MODELS = GOLDEN / "expected" / "nv-models"


def _dynamics_steps():
    """``(argv, {file name: document})`` of the golden ``simulate`` and ``sweep`` steps."""
    steps = []
    for argv in json.loads((GOLDEN / "cases.json").read_text())["cases"]["nv-models"]:
        if argv[0] not in ("simulate", "sweep"):
            continue
        docs = {}
        for flag, arg in zip(argv, argv[1:]):
            if arg.startswith("{inputs}/"):
                docs[arg] = json.loads((GOLDEN / "inputs" / arg[len("{inputs}/"):]).read_text())
            elif arg.endswith(".json"):
                docs[arg] = json.loads((MODELS / arg).read_text())
        steps.append((argv, docs))
    return steps


DYNAMICS_STEPS = _dynamics_steps()
# argument values: extreme, malformed, and valid ones
NUMBERS = ["nan", "inf", "-inf", "1e308", "1e400", "-1", "0", "", "x", "0.3", "1e10"]
TIMES = ["nan", "inf", "1e308", "-1", "0", "", "x", "0.25", "0.5", "2", "1e6"]
COUNTS = ["0", "1", "2", "3", "-1", "100001", "1e308", "", "x", "3log", "0log"]


def _with_argument(argv, flag, value):
    """``argv`` with ``flag`` set to ``value``, appended when absent."""
    if flag in argv:
        i = argv.index(flag) + 1
        return argv[:i] + [value] + argv[i + 1:]
    return argv + [flag, value]


def _read_csv(text):
    header, *rows = text.splitlines()
    values = [float(x) for row in rows for x in row.split(",")]
    assert header and rows and all(math.isfinite(x) for x in values), text[:200]


@seed(20261022)
@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_a_mutated_dynamics_input_keeps_the_cli_contract(data):
    argv, docs = data.draw(st.sampled_from(DYNAMICS_STEPS))
    target = data.draw(st.sampled_from(sorted(docs) + ["argument"]))
    if target != "argument":
        mutation = data.draw(st.sampled_from(_mutations(docs[target])))
        docs = {**docs, target: _mutate(docs[target], *mutation)}
    elif argv[0] == "simulate":
        argv = _with_argument(argv, "--delta-omega", data.draw(st.sampled_from(NUMBERS)))
    else:
        fields = [data.draw(st.sampled_from(TIMES)), data.draw(st.sampled_from(TIMES)),
                  data.draw(st.sampled_from(COUNTS))]
        argv = _with_argument(argv, "--tgrid", ":".join(fields))
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, written = _run(argv, docs, Path(tmp))
        assert code in (0, 1, 2)
        if code:
            assert not written and not stdout
            return
        assert not stdout and len(written) == 2  # the CSV and its sidecar
        for path in written:
            if path.suffix == ".csv":
                _read_csv(path.read_text())
            else:
                _assert_finite(json.loads(path.read_text(), parse_constant=_refuse_constant), argv[0])


def test_every_dynamics_command_is_drawn_from_the_golden_cases():
    assert sorted({argv[0] for argv, _ in DYNAMICS_STEPS}) == ["simulate", "sweep"]
    assert all(docs for _, docs in DYNAMICS_STEPS)


def test_the_unmutated_dynamics_steps_pass():
    for argv, docs in DYNAMICS_STEPS:
        with tempfile.TemporaryDirectory() as tmp:
            code, _, written = _run(argv, docs, Path(tmp))
            assert code == 0 and len(written) == 2


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_a_non_finite_signal_offset_is_refused(value):
    argv, docs = next(step for step in DYNAMICS_STEPS if step[0][0] == "simulate")
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, written = _run(_with_argument(argv, "--delta-omega", value), docs, Path(tmp))
    assert (code, stdout, written) == (1, "", [])


def test_a_run_of_10_to_the_12_states_is_refused():
    argv, docs = next(step for step in DYNAMICS_STEPS if step[0][0] == "simulate")
    config = next(arg for arg in docs if arg.startswith("{inputs}/"))
    docs = {**docs, config: {"t_final": 1e6, "dt": 1e-6}}
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, written = _run(argv, docs, Path(tmp))
    assert (code, stdout, written) == (1, "", [])
