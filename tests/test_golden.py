"""Golden outputs: every CLI workflow against what it wrote when last pinned.

Each case of ``golden/cases.json`` runs its steps through ``cli.dispatch``
in a fresh directory.  Everything the steps leave (output files, manifest
sidecars, stdout, exit codes) must match ``golden/expected/<case>/`` by the
rules in ``golden/README.md``: names, shapes, exit codes, verdicts and CSV
headers exactly, numbers within the per-field tolerances of ``cases.json``.

After a change that alters outputs on purpose, rewrite the expected files
(and list every changed field as a declared behaviour change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dressedmet.cli import dispatch
from dressedmet.codespace import CodeSpace, partial_trace

GOLDEN = Path(__file__).resolve().parent / "golden"
SPEC = json.loads((GOLDEN / "cases.json").read_text())
TOLS = SPEC["tolerances"]
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
CODE_KEYS = {"psi0", "psi1", "sys_dim", "anc_dim"}


def _files():
    return {p.as_posix() for p in Path().rglob("*") if p.is_file()}


def run_case(steps):
    """Run ``steps`` in the current directory; returns ``{name: text}`` of all
    they left, and the names whose manifest may not match by ``config_hash``.

    A step that reads a file an earlier step wrote hashes bytes that are fixed
    only to rounding, so the hash of its manifest is not compared.
    """
    codes, unhashed = [], set()
    for i, step in enumerate(steps):
        chained = any(not a.startswith("{inputs}") and os.path.isfile(a) for a in step)
        before = _files()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(dispatch([a.format(inputs=GOLDEN / "inputs") for a in step]))
        if out.getvalue():
            Path(f"step{i}.stdout").write_text(out.getvalue())
        if chained:
            unhashed |= _files() - before
    produced = {name: Path(name).read_text() for name in sorted(_files())}
    produced["exit_codes.json"] = json.dumps(codes) + "\n"
    return produced, unhashed


def _close(want, got, field, where):
    tol = TOLS.get(field, TOLS["*"])
    if "factor" in tol:  # a count: may grow by at most the factor
        assert isinstance(got, int) and 0 <= got <= tol["factor"] * want, where
        return
    assert math.isfinite(got), where
    err = abs(got - want)
    assert err <= tol["rel"] * max(abs(want), abs(got)) + tol["abs"], (
        f"{where}: {got!r} != {want!r} (field {field!r})")


def _marginals(doc):
    code = CodeSpace.from_json_dict(doc)
    return np.array([
        partial_trace(np.outer(s.amplitudes, s.amplitudes.conj()), code.sys_dim, code.anc_dim)
        for s in (code.psi0, code.psi1)])


def same_json(want, got, where, hashed, field="*"):
    """Keys, lengths, strings, booleans and whole numbers exactly; floats by the
    tolerance of the nearest enclosing key that ``cases.json`` names.

    A code document is compared by the system marginals of its two states,
    which fix it up to an ancilla rotation, a manifest without its
    ``wall_time``, and a string of several lines (a markdown table) as text.
    """
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(want) == sorted(got), where
        if set(want) == CODE_KEYS:
            assert (want["sys_dim"], want["anc_dim"]) == (got["sys_dim"], got["anc_dim"]), where
            np.testing.assert_allclose(_marginals(got), _marginals(want), rtol=TOLS["code"]["rel"],
                                       atol=TOLS["code"]["abs"], err_msg=where)
            return
        for key in want:
            if key == "wall_time" or (key == "config_hash" and not hashed):
                continue
            same_json(want[key], got[key], f"{where}.{key}", hashed, key if key in TOLS else field)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(want) == len(got), where
        for i, (w, g) in enumerate(zip(want, got)):
            same_json(w, g, f"{where}[{i}]", hashed, field)
    elif isinstance(want, float) or (type(want) is int and "factor" in TOLS.get(field, {})):
        assert type(got) is type(want), where
        _close(want, got, field, where)
    elif isinstance(want, str) and "\n" in want:
        assert isinstance(got, str), where
        same_text(where, want, got)
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def same_text(name, want, got):
    """Line count, CSV header and the text between numbers exactly; numbers by
    the tolerance of their CSV column (of ``*`` outside a CSV)."""
    wl, gl = want.splitlines(), got.splitlines()
    assert len(wl) == len(gl), name
    columns = wl[0].split(",") if name.endswith(".csv") else None
    if columns:
        assert gl[0] == wl[0], f"{name}: CSV header"
    for n, (w, g) in enumerate(zip(wl, gl)):
        assert NUMBER.sub("#", g) == NUMBER.sub("#", w), f"{name}:{n + 1}"
        for j, (x, y) in enumerate(zip(NUMBER.findall(w), NUMBER.findall(g))):
            _close(float(x), float(y), columns[j] if columns else "*", f"{name}:{n + 1}")


def compare(expected, produced, unhashed):
    assert sorted(produced) == sorted(expected)
    for name, want in expected.items():
        got = produced[name]
        if name.endswith(".json") or want.startswith("{"):
            same_json(json.loads(want), json.loads(got), name, name not in unhashed)
        else:
            same_text(name, want, got)


@pytest.mark.parametrize("case", sorted(SPEC["cases"]))
def test_golden_case(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    produced, unhashed = run_case(SPEC["cases"][case])
    folder = GOLDEN / "expected" / case
    expected = {p.relative_to(folder).as_posix(): p.read_text()
                for p in sorted(folder.rglob("*")) if p.is_file()}
    compare(expected, produced, unhashed)


def regenerate():
    """Rewrite ``golden/expected`` from the package on ``sys.path``."""
    shutil.rmtree(GOLDEN / "expected", ignore_errors=True)
    home = os.getcwd()
    for case, steps in sorted(SPEC["cases"].items()):
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                produced, _ = run_case(steps)
            finally:
                os.chdir(home)
        for name, text in produced.items():
            path = GOLDEN / "expected" / case / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        print(f"{case}: {len(produced)} files", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
