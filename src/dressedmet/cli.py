"""Command-line interface: every workflow behind one binary.

Exit codes: 0 success, 1 usage or input validation failure, 2 numerical
failure (non-certified optimization, integrator breakdown), 3 negative
verdict from ``check --gate``.  JSON documents written to stdout embed their
run manifest, file outputs get a ``<path>.manifest.json`` sidecar, and text
on stdout goes out as is.  Every document of a run is rendered before any is
written, so a refused one (a non-finite number in JSON) writes nothing, and
each file is rewritten in place (``jsonio.write_text``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .codespace import CodeSpace, check_conditions, code_from_optimizer, no_go_search
from .criteria import condition_by_name
from .errors import NumericalError, ValidationError
from .jsonio import hermitian_from_json, json_text, load_json, operator_from_json, write_text
from .operators import HermitianOperator
from .sdp import SdpProblem, solve_primal
from .simulate import ProbeModel, ScalingRecord, SimConfig, scaling_sweep
from .tolerances import TOL

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_GATE = 3

# a subcommand returns (exit code, outputs); an output is (path or None for
# stdout, document), and a document is a JSON dict or text (CSV, markdown)
Document = Union[dict, str]
Outputs = List[Tuple[Optional[str], Document]]
Result = Tuple[int, Outputs]


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit 1 instead of 2."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _InputPath(str):
    """Argument value naming an input file; the manifest hashes its bytes."""


def _hashed(value):
    if isinstance(value, _InputPath):
        with open(value, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    if isinstance(value, list):
        return [_hashed(v) for v in value]
    return value


def _manifest(args: argparse.Namespace, t0: float) -> dict:
    """Provenance of one run: its inputs are hashed by content, not by path."""
    conf = {k: _hashed(v) for k, v in vars(args).items() if k not in ("func", "out")}
    blob = json.dumps(conf, sort_keys=True, separators=(",", ":"))
    return {
        "command": args.command,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest(),
        "seed": getattr(args, "seed", 0),
        "tool_version": __version__,
        "wall_time": time.monotonic() - t0,
    }


def _write_outputs(outputs: Outputs, manifest: dict) -> None:
    """Render every document, then write them all: a refused one writes nothing."""
    sidecar = json_text(manifest)
    rendered = []
    for path, doc in outputs:
        if isinstance(doc, dict):
            doc = json_text(doc if path is not None else {**doc, "manifest": manifest})
        rendered.append((path, doc))
        if path is not None:
            rendered.append((path + ".manifest.json", sidecar))
    for path, text in rendered:
        if path is None:
            sys.stdout.write(text)
        else:
            write_text(path, text)


def _load_hermitian(path: str) -> HermitianOperator:
    return hermitian_from_json(load_json(path))


def _csv_text(header: str, cols: np.ndarray) -> str:
    """CSV of the rows of ``cols``, every value in ``%.11e``, in one format pass."""
    row = ",".join(["%.11e"] * cols.shape[1]) + "\n"
    return header + "\n" + (row * len(cols)) % tuple(cols.ravel().tolist())


def _parse_tgrid(text: str) -> np.ndarray:
    """Grid syntax 'start:stop:N' (linear) or 'start:stop:Nlog' (geometric)."""
    spec = text.strip()
    logspaced = spec.endswith("log")
    if logspaced:
        spec = spec[:-3]
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"bad tgrid {text!r}; expected start:stop:N[log]")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"bad tgrid {text!r}; expected start:stop:N[log]")
    if count < 2 or not (math.isfinite(start) and math.isfinite(stop) and stop > start):
        raise ValidationError("tgrid needs finite stop > start and at least 2 points")
    if logspaced:
        if start <= 0:
            raise ValidationError("log tgrid needs start > 0")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> Result:
    g = _load_hermitian(args.generator)
    if args.criterion == "hnls":
        ops: Sequence = [operator_from_json(load_json(p)) for p in args.couplings]
    else:
        ops = [_load_hermitian(p) for p in args.couplings]
    report = condition_by_name(args.criterion, g, ops)
    code = EXIT_GATE if args.gate and not report.verdict else EXIT_OK
    return code, [(args.out, report.to_json_dict())]


def _cmd_optimize(args: argparse.Namespace) -> Result:
    g = _load_hermitian(args.generator)
    couplings = [_load_hermitian(p) for p in args.couplings]
    solution = solve_primal(SdpProblem.from_couplings(g, couplings))
    code = EXIT_OK if solution.certified else EXIT_NUMERICAL
    return code, [(args.out, solution.to_json_dict())]


def _cmd_build_code(args: argparse.Namespace) -> Result:
    doc = load_json(args.from_sdp)
    if "g_tilde" not in doc:
        raise ValidationError("solution JSON lacks a 'g_tilde' field")
    code = code_from_optimizer(hermitian_from_json(doc["g_tilde"]))
    return EXIT_OK, [(args.out, code.to_json_dict())]


def _cmd_verify(args: argparse.Namespace) -> Result:
    code = CodeSpace.from_json_dict(load_json(args.code))
    couplings = [_load_hermitian(p) for p in args.couplings]
    g = (_load_hermitian(args.generator) if args.generator is not None
         else HermitianOperator(np.zeros((code.sys_dim, code.sys_dim))))
    report = check_conditions(code, g, couplings)
    payload = dataclasses.asdict(report)
    if args.generator is None:
        payload["signal"] = None
    payload["kl_ok"] = bool(report.kl_violation <= TOL.kl)
    return EXIT_OK, [(args.out, payload)]


def _cmd_no_go(args: argparse.Namespace) -> Result:
    couplings = [_load_hermitian(p) for p in args.couplings]
    if not couplings:
        raise ValidationError("no-go search needs at least one coupling")
    sys_dim = couplings[0].entries.shape[0]
    floor = no_go_search(couplings, sys_dim, restarts=args.restarts, seed=args.seed)
    payload = {
        "min_penalty": floor,
        "feasible": bool(floor < args.feasible_tol),
        "feasible_tol": args.feasible_tol,
        "sys_dim": sys_dim,
        "restarts": args.restarts,
        "seed": args.seed,
    }
    return EXIT_OK, [(args.out, payload)]


def _cmd_simulate(args: argparse.Namespace) -> Result:
    model = ProbeModel.from_json_dict(load_json(args.model))
    cfg = SimConfig.from_json_dict(load_json(args.config))
    traj = model.evolve(args.delta_omega, cfg)
    purity = np.trace(traj.states @ traj.states, axis1=-2, axis2=-1).real
    drift = np.abs(np.trace(traj.states, axis1=-2, axis2=-1).real - 1.0)
    cols = np.stack([traj.times, model.coherences(traj.states), purity, drift], axis=1)
    return EXIT_OK, [(args.out, _csv_text("t,coherence,purity,trace_drift", cols))]


def _cmd_sweep(args: argparse.Namespace) -> Result:
    protected = ProbeModel.from_json_dict(load_json(args.protected))
    unprotected = ProbeModel.from_json_dict(load_json(args.unprotected))
    tgrid = _parse_tgrid(args.tgrid)
    cfg = SimConfig.from_json_dict(load_json(args.config)) if args.config is not None else None
    records = scaling_sweep(protected, unprotected, tgrid, cfg=cfg)
    names = [f.name for f in dataclasses.fields(ScalingRecord)]
    cols = np.array([[getattr(r, n) for n in names] for r in records])
    return EXIT_OK, [(args.out, _csv_text(",".join(names), cols))]


def _cmd_nv_demo(args: argparse.Namespace) -> Result:
    from .nv import nv_verdict_table, protected_model, unprotected_model

    if not (args.table or args.regime or args.emit_models):
        raise ValidationError("nv-demo needs --table, --regime, or --emit-models")
    outputs: Outputs = []
    if args.emit_models:
        os.makedirs(args.emit_models, exist_ok=True)
        pm = protected_model(gamma=args.gamma, ratio=args.ratio, ancilla=args.ancilla)
        um = unprotected_model(gamma=args.gamma)
        for name, model in (("protected_model", pm), ("unprotected_model", um)):
            outputs.append((os.path.join(args.emit_models, name + ".json"), model.to_json_dict()))
    if args.table or args.regime:
        table = nv_verdict_table(restarts=args.restarts, seed=args.seed)
        if args.table and args.out is None:
            doc: Document = table.to_markdown()
        elif args.table:
            doc = {**dataclasses.asdict(table), "markdown": table.to_markdown()}
        else:
            # a regime with a single cell answers for both ancilla choices
            cells = [c for c in table.cells if c.regime == args.regime]
            cell = next((c for c in cells if c.ancilla == args.ancilla), cells[0])
            doc = dataclasses.asdict(cell)
        outputs.append((args.out, doc))
    return EXIT_OK, outputs


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="dressedmet", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("check", help="evaluate a protection criterion")
    p.add_argument("--criterion", required=True, choices=("thm1", "thm2", "hnls"))
    p.add_argument("--generator", type=_InputPath, required=True, help="signal generator JSON")
    p.add_argument("--couplings", type=_InputPath, nargs="*", default=[], metavar="FILE",
                   help="coupling (or jump, for hnls) operator JSON files")
    p.add_argument("--gate", action="store_true",
                   help="exit 3 when the verdict is negative")
    p.add_argument("--out", default=None, help="write report here instead of stdout")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("optimize", help="solve the code-design optimization")
    p.add_argument("--generator", type=_InputPath, required=True)
    p.add_argument("--couplings", type=_InputPath, nargs="*", default=[], metavar="FILE")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("build-code", help="turn an optimizer into explicit code states")
    p.add_argument("--from-sdp", type=_InputPath, required=True, dest="from_sdp",
                   help="solution JSON from 'optimize'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_build_code)

    p = sub.add_parser("verify", help="check protection conditions of a code")
    p.add_argument("--code", type=_InputPath, required=True, help="code JSON")
    p.add_argument("--couplings", type=_InputPath, nargs="*", default=[], metavar="FILE")
    p.add_argument("--generator", type=_InputPath, default=None,
                   help="optional generator JSON for the signal entry")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("no-go", help="search for a protected pair by descent")
    p.add_argument("--couplings", type=_InputPath, nargs="+", default=[], metavar="FILE")
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feasible-tol", type=float, default=1e-8, dest="feasible_tol")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_no_go)

    p = sub.add_parser("simulate", help="integrate one trajectory to CSV")
    p.add_argument("--model", type=_InputPath, required=True, help="probe model JSON")
    p.add_argument("--config", type=_InputPath, required=True, help="integration config JSON")
    p.add_argument("--delta-omega", type=float, default=0.0, dest="delta_omega",
                   help="signal detuning applied to the Hamiltonian")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="precision-scaling sweep to CSV")
    p.add_argument("--protected", type=_InputPath, required=True)
    p.add_argument("--unprotected", type=_InputPath, required=True)
    p.add_argument("--tgrid", required=True, help="start:stop:N[log]")
    p.add_argument("--config", type=_InputPath, default=None,
                   help="optional integration config JSON")
    p.add_argument("--out", required=True, help="scaling CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("nv-demo", help="defect-center worked example")
    p.add_argument("--regime", choices=("dephasing", "relaxation", "thermal"),
                   default=None)
    p.add_argument("--ancilla", action="store_true")
    p.add_argument("--table", action="store_true",
                   help="emit the full verdict table (markdown on stdout)")
    p.add_argument("--emit-models", default=None, dest="emit_models", metavar="DIR",
                   help="write probe model JSONs for 'simulate' and 'sweep'")
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--ratio", type=float, default=0.1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_nv_demo)

    return parser


_PARSER = build_parser()


def dispatch(argv: Optional[List[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    t0 = time.monotonic()
    try:
        code, outputs = args.func(args)
        _write_outputs(outputs, _manifest(args, t0))
        return code
    except ValidationError as exc:
        print(f"dressedmet: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"dressedmet: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"dressedmet: bad input: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
