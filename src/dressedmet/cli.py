"""Command-line interface: every workflow behind one binary.

Exit codes: 0 success, 1 usage or input validation failure, 2 numerical
failure (non-certified optimization, integrator breakdown), 3 negative
verdict from ``check --gate``.  JSON documents written to stdout embed their
run manifest; file outputs get a ``<path>.manifest.json`` sidecar.

The environment variable DM_SEED overrides any ``--seed`` flag, so batch
drivers can repin randomness without editing command lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .codespace import CodeSpace, check_conditions, code_from_optimizer, no_go_search
from .criteria import condition_by_name
from .errors import NumericalError, ValidationError
from .jsonio import dump_json, json_text, load_json, operator_from_json
from .operators import HermitianOperator
from .sdp import SdpProblem, solve_primal
from .simulate import ProbeModel, ScalingRecord, SimConfig, scaling_sweep
from .tolerances import TOL

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_GATE = 3

# argument names whose values are paths; hashed by content in the manifest
_FILE_ARGS = {
    "generator", "couplings", "code", "model", "config",
    "protected", "unprotected", "from_sdp",
}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit 1 instead of 2."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_hash: str
    seed: int
    tool_version: str
    wall_time: float

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "tool_version": self.tool_version,
            "wall_time": self.wall_time,
        }


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _config_hash(command: str, args: argparse.Namespace) -> str:
    conf: dict = {"command": command}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command", "out"):
            continue
        if key in _FILE_ARGS and value is not None:
            if isinstance(value, (list, tuple)):
                conf[key] = [_file_digest(p) for p in value]
            else:
                conf[key] = _file_digest(value)
        else:
            conf[key] = value
    blob = json.dumps(conf, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _resolve_seed(args: argparse.Namespace) -> int:
    env = os.environ.get("DM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"DM_SEED must be an integer, got {env!r}")
    return int(getattr(args, "seed", 0))


def _manifest(command: str, args: argparse.Namespace, seed: int, t0: float) -> RunManifest:
    return RunManifest(
        command=command,
        config_hash=_config_hash(command, args),
        seed=seed,
        tool_version=__version__,
        wall_time=time.monotonic() - t0,
    )


def _emit_json(payload: dict, out: Optional[str], manifest: RunManifest) -> None:
    if out is None:
        payload = dict(payload)
        payload["manifest"] = manifest.to_json_dict()
        sys.stdout.write(json_text(payload))
    else:
        dump_json(payload, out)
        _write_sidecar(out, manifest)


def _write_sidecar(out: str, manifest: RunManifest) -> None:
    dump_json(manifest.to_json_dict(), out + ".manifest.json")


def _load_matrix(path: str) -> np.ndarray:
    return operator_from_json(load_json(path))


def _load_hermitian(path: str) -> HermitianOperator:
    return HermitianOperator(_load_matrix(path))


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
    if count < 2 or stop <= start:
        raise ValidationError("tgrid needs stop > start and at least 2 points")
    if logspaced:
        if start <= 0:
            raise ValidationError("log tgrid needs start > 0")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    g = _load_hermitian(args.generator)
    if args.criterion == "hnls":
        ops: Sequence = [_load_matrix(p) for p in args.couplings]
    else:
        ops = [_load_hermitian(p) for p in args.couplings]
    report = condition_by_name(args.criterion, g, ops)
    payload = report.to_json_dict()
    _emit_json(payload, args.out, _manifest("check", args, _resolve_seed(args), t0))
    if args.gate and not report.verdict:
        return EXIT_GATE
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    g = _load_hermitian(args.generator)
    couplings = [_load_hermitian(p) for p in args.couplings]
    problem = SdpProblem.from_couplings(g, couplings)
    solution = solve_primal(problem, tol=args.tol)
    _emit_json(
        solution.to_json_dict(), args.out,
        _manifest("optimize", args, _resolve_seed(args), t0),
    )
    return EXIT_OK if solution.certified else EXIT_NUMERICAL


def _cmd_build_code(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    doc = load_json(args.from_sdp)
    if "g_tilde" not in doc:
        raise ValidationError("solution JSON lacks a 'g_tilde' field")
    g_tilde = HermitianOperator(operator_from_json(doc["g_tilde"]))
    code = code_from_optimizer(g_tilde)
    _emit_json(
        code.to_json_dict(), args.out,
        _manifest("build-code", args, _resolve_seed(args), t0),
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    code = CodeSpace.from_json_dict(load_json(args.code))
    couplings = [_load_hermitian(p) for p in args.couplings]
    if args.generator is not None:
        g = _load_hermitian(args.generator)
    else:
        g = HermitianOperator(np.zeros((code.sys_dim, code.sys_dim)))
    report = check_conditions(code, g, couplings)
    payload = report.to_json_dict()
    if args.generator is None:
        payload["signal"] = None
    payload["kl_ok"] = bool(report.kl_violation <= TOL.kl)
    _emit_json(payload, args.out, _manifest("verify", args, _resolve_seed(args), t0))
    return EXIT_OK


def _cmd_no_go(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    couplings = [_load_hermitian(p) for p in args.couplings]
    if not couplings:
        raise ValidationError("no-go search needs at least one coupling")
    seed = _resolve_seed(args)
    sys_dim = couplings[0].entries.shape[0]
    floor = no_go_search(couplings, sys_dim, restarts=args.restarts, seed=seed)
    payload = {
        "min_penalty": floor,
        "feasible": bool(floor < args.feasible_tol),
        "feasible_tol": args.feasible_tol,
        "sys_dim": sys_dim,
        "restarts": args.restarts,
        "seed": seed,
    }
    _emit_json(payload, args.out, _manifest("no-go", args, seed, t0))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    model = ProbeModel.from_json_dict(load_json(args.model))
    cfg = SimConfig.from_json_dict(load_json(args.config))
    traj = model.evolve(args.delta_omega, cfg)
    purity = np.trace(traj.states @ traj.states, axis1=-2, axis2=-1).real
    drift = np.abs(np.trace(traj.states, axis1=-2, axis2=-1).real - 1.0)
    cols = np.stack([traj.times, model.coherences(traj.states), purity, drift], axis=1)
    with open(args.out, "w") as fh:
        fh.write("t,coherence,purity,trace_drift\n")
        fh.write(("%.11e,%.11e,%.11e,%.11e\n" * len(cols)) % tuple(cols.ravel().tolist()))
    _write_sidecar(args.out, _manifest("simulate", args, _resolve_seed(args), t0))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    protected = ProbeModel.from_json_dict(load_json(args.protected))
    unprotected = ProbeModel.from_json_dict(load_json(args.unprotected))
    tgrid = _parse_tgrid(args.tgrid)
    cfg = None
    if args.config is not None:
        cfg = SimConfig.from_json_dict(load_json(args.config))
    records = scaling_sweep(protected, unprotected, tgrid, cfg=cfg)
    with open(args.out, "w") as fh:
        fh.write(ScalingRecord.CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")
    _write_sidecar(args.out, _manifest("sweep", args, _resolve_seed(args), t0))
    return EXIT_OK


def _cmd_nv_demo(args: argparse.Namespace) -> int:
    from .nv import nv_verdict_table, protected_model, unprotected_model

    t0 = time.monotonic()
    seed = _resolve_seed(args)
    if not (args.table or args.regime or args.emit_models):
        raise ValidationError("nv-demo needs --table, --regime, or --emit-models")

    if args.emit_models:
        os.makedirs(args.emit_models, exist_ok=True)
        pm = protected_model(gamma=args.gamma, ratio=args.ratio, ancilla=args.ancilla)
        um = unprotected_model(gamma=args.gamma)
        for name, model in (("protected_model", pm), ("unprotected_model", um)):
            path = os.path.join(args.emit_models, name + ".json")
            dump_json(model.to_json_dict(), path)
            _write_sidecar(path, _manifest("nv-demo", args, seed, t0))
        if not (args.table or args.regime):
            return EXIT_OK

    table = nv_verdict_table(restarts=args.restarts, seed=seed)
    if args.table:
        payload = table.to_json_dict()
        payload["markdown"] = table.to_markdown()
        if args.out is None:
            sys.stdout.write(table.to_markdown())
            return EXIT_OK
        _emit_json(payload, args.out, _manifest("nv-demo", args, seed, t0))
        return EXIT_OK

    picks = {
        ("dephasing", False): 0, ("dephasing", True): 0,
        ("relaxation", False): 1, ("relaxation", True): 2,
        ("thermal", False): 3, ("thermal", True): 3,
    }
    cell = table.cells[picks[(args.regime, args.ancilla)]]
    _emit_json(cell.to_json_dict(), args.out, _manifest("nv-demo", args, seed, t0))
    return EXIT_OK


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
    p.add_argument("--generator", required=True, help="signal generator JSON")
    p.add_argument("--couplings", nargs="*", default=[], metavar="FILE",
                   help="coupling (or jump, for hnls) operator JSON files")
    p.add_argument("--gate", action="store_true",
                   help="exit 3 when the verdict is negative")
    p.add_argument("--out", default=None, help="write report here instead of stdout")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("optimize", help="solve the code-design optimization")
    p.add_argument("--generator", required=True)
    p.add_argument("--couplings", nargs="*", default=[], metavar="FILE")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("build-code", help="turn an optimizer into explicit code states")
    p.add_argument("--from-sdp", required=True, dest="from_sdp",
                   help="solution JSON from 'optimize'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_build_code)

    p = sub.add_parser("verify", help="check protection conditions of a code")
    p.add_argument("--code", required=True, help="code JSON")
    p.add_argument("--couplings", nargs="*", default=[], metavar="FILE")
    p.add_argument("--generator", default=None,
                   help="optional generator JSON for the signal entry")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("no-go", help="search for a protected pair by descent")
    p.add_argument("--couplings", nargs="+", default=[], metavar="FILE")
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feasible-tol", type=float, default=1e-8, dest="feasible_tol")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_no_go)

    p = sub.add_parser("simulate", help="integrate one trajectory to CSV")
    p.add_argument("--model", required=True, help="probe model JSON")
    p.add_argument("--config", required=True, help="integration config JSON")
    p.add_argument("--delta-omega", type=float, default=0.0, dest="delta_omega",
                   help="signal detuning applied to the Hamiltonian")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="precision-scaling sweep to CSV")
    p.add_argument("--protected", required=True)
    p.add_argument("--unprotected", required=True)
    p.add_argument("--tgrid", required=True, help="start:stop:N[log]")
    p.add_argument("--config", default=None, help="optional integration config JSON")
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


def dispatch(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
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
