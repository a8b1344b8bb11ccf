"""Mutation probe: does the test suite catch a planted slip in each kernel?

Each mutant replaces one source fragment, which must occur exactly once in
its module, and runs the test files that cover that kernel.  Every mutant
runs in a fresh copy of ``src/``, ``tests/`` and ``pyproject.toml`` under a
temporary directory, one pytest process at a time, with ``-x`` and with the
node ceiling of ``tests/test_source_size.py`` deselected (a mutant that adds
a node would otherwise count as caught by the ceiling alone).  The output is
one JSON list: per mutant, ``caught`` (or ``survived``, ``equivalent`` when a
surviving mutant is marked so, or ``error`` when pytest did not run the
tests), the first failing test, and the seconds taken.

Standard library only; pytest does not collect this file.  Run it from the
root of a checkout as ``python tests/mutants.py``; for a subset, call
:func:`run` on the chosen entries of :data:`MUTANTS`.

``tests/test_mutants.py`` checks in tier-1 that every fragment still occurs
exactly once and that every mutated module still compiles, so the list
breaks loudly when the code moves; the probe itself is not part of tier-1.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
CEILING = "tests/test_source_size.py::test_src_stays_within_its_node_ceiling"


class Mutant(NamedTuple):
    name: str
    module: str  # under src/dressedmet, without .py
    fragment: str  # occurs exactly once in the module
    replacement: str
    tests: Tuple[str, ...]  # test files that cover the kernel
    equivalent: Optional[str] = None  # why a survivor changes no reachable behaviour


MUTANTS = [
    # the kernels of the design and dynamics layers
    Mutant("certifies_raw_lower", "sdp",
           "abs(upper - max(0.0, lower))", "abs(upper - lower)",
           ("tests/test_sdp.py",)),
    Mutant("step_margin_sign", "sdp",
           "1.0 + alpha * low < -_STEP_MARGIN", "1.0 + alpha * low < _STEP_MARGIN",
           ("tests/test_dual_newton.py", "tests/test_sdp.py"),
           "differs only for a trial within 1e-9 relative of the cone's edge, which the "
           "line search rejects by its barrier term as it rejects one outside: both halve"),
    Mutant("fidelity_cut", "simulate",
           "keep = vals > 1e-14 *", "keep = vals > 1e-13 *",
           ("tests/test_simulate.py",)),
    Mutant("rk4_fourth_term", "simulate",
           "poly = eye + a / 4.0", "poly = eye + a / 5.0",
           ("tests/test_propagator.py", "tests/test_blocked_propagation.py")),
    Mutant("positivity_shift_sign", "simulate",
           "herm[..., diag, diag] -= floor", "herm[..., diag, diag] += floor",
           ("tests/test_positivity_check.py",)),
    Mutant("positivity_no_minus_inf_return", "simulate",
           "        if floor == -math.inf:\n            return\n", "",
           ("tests/test_positivity_check.py",)),
    Mutant("armijo_halved", "codespace",
           "f_new <= f + _ARMIJO * step * slope", "f_new <= f + 0.5 * _ARMIJO * step * slope",
           ("tests/test_stiefel.py",)),
    Mutant("bfgs_curvature_tie", "codespace",
           "if sy > 0.0:", "if sy >= 0.0:",
           ("tests/test_stiefel.py", "tests/test_codespace.py")),
    Mutant("stiefel_floor_4x", "codespace",
           "floor, step = ROUNDING * max(1.0, abs(f)), 1.0",
           "floor, step = 4 * ROUNDING * max(1.0, abs(f)), 1.0",
           ("tests/test_stiefel.py",)),
    Mutant("kl_mean_one_sided", "codespace",
           "mean = 0.5 * (blocks[:, 0, 0] + blocks[:, 1, 1])",
           "mean = 0.5 * (blocks[:, 0, 0] + blocks[:, 0, 0])",
           ("tests/test_codespace.py",)),
    Mutant("anticommutator_untransposed", "lindblad",
           "- 0.5 * _kron_sum(k, k.T)", "- 0.5 * _kron_sum(k, k)",
           ("tests/test_lindblad.py", "tests/test_lindblad_stacked.py")),
    Mutant("stretched_cluster_100x", "lindblad",
           "if cluster[-1] - cluster[0] > 10.0 * gap_tol:",
           "if cluster[-1] - cluster[0] > 100.0 * gap_tol:",
           ("tests/test_lindblad.py", "tests/test_lindblad_stacked.py")),
    # one per edit of the static-design and default-step clean-up
    Mutant("penalty_at_descent_weight", "codespace",
           "pen = fn(v, 0.0)[0]", "pen = fn(v)[0]",
           ("tests/test_codespace.py", "tests/test_stiefel.py")),
    Mutant("default_dt_first_offset", "simulate",
           "_default_dt(_offset_hamiltonians(model, offsets), lset,",
           "_default_dt(_offset_hamiltonians(model, offsets)[:1], lset,",
           ("tests/test_propagator.py", "tests/test_golden.py")),
    Mutant("dressing_lifts_everything", "codespace",
           "nu0 * (np.eye(code.total_dim) - code.projector)",
           "nu0 * np.eye(code.total_dim) - code.projector",
           ("tests/test_codespace.py", "tests/test_nv.py")),
    Mutant("primal_reports_certificate", "sdp",
           "g_tilde=g_tilde,", "g_tilde=HermitianOperator(x),",
           ("tests/test_sdp.py", "tests/test_golden.py")),
    Mutant("zero_splitting_accepted", "nv",
           "if d_split <= 0:", "if d_split < 0:",
           ("tests/test_nv.py",)),
    Mutant("restarts_unbounded", "codespace",
           "if not 1 <= restarts <= MAX_RESTARTS:", "if not 1 <= restarts:",
           ("tests/test_codespace.py", "tests/test_cli.py")),
    Mutant("offset_sum_warns", "simulate",
           'with np.errstate(over="ignore", invalid="ignore"):\n        hams = ',
           "if True:\n        hams = ",
           ("tests/test_simulate.py", "tests/test_input_contract.py")),
]


def source(mutant: Mutant, root: Path = ROOT) -> Path:
    return root / "src" / "dressedmet" / f"{mutant.module}.py"


def mutated_text(mutant: Mutant, root: Path = ROOT) -> str:
    """The module's text with the mutant applied; a fragment that does not occur
    exactly once is a ``ValueError``."""
    text = source(mutant, root).read_text()
    count = text.count(mutant.fragment)
    if count != 1:
        raise ValueError(f"{mutant.name}: fragment occurs {count} times in {mutant.module}.py")
    return text.replace(mutant.fragment, mutant.replacement)


def run(mutant: Mutant) -> dict:
    """Apply ``mutant`` in a fresh copy of the checkout and run its test files."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        source(mutant, copy).write_text(mutated_text(mutant))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--deselect", CEILING, *mutant.tests]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True, env=env)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    if proc.returncode == 0:
        status = "equivalent" if mutant.equivalent else "survived"
    else:
        status = "caught" if proc.returncode == 1 and failed else "error"
    out = {"name": mutant.name, "module": mutant.module, "status": status,
           "test": failed.group(1) if failed else None,
           "seconds": round(time.perf_counter() - start, 1)}
    if status == "equivalent":
        out["reason"] = mutant.equivalent
    if status == "error":
        out["output"] = (proc.stdout + proc.stderr)[-2000:]
    return out


def main() -> int:
    results = []
    for mutant in MUTANTS:
        results.append(run(mutant))
        print(json.dumps(results[-1]), file=sys.stderr)  # progress
    print(json.dumps(results, indent=1))
    return 0 if all(r["status"] in ("caught", "equivalent") for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
