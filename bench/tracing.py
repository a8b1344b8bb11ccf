"""Spans around the package's public functions, recorded from outside it.

The package imports with ``from .x import y``, so a wrapper replaces a name
where it is looked up: ``cli.solve_primal`` rather than ``sdp.solve_primal``
for the CLI's optimize command, ``sdp.solve_dual`` for the call inside the
barrier solver, and so on.  ``install`` swaps the wrappers in and
``remove`` restores the originals, so untraced passes run the bare code.

Spans stay in memory as (name, start, end, parent span, item id, attrs) and
are written once, at the end of the run.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional

# (module, attribute looked up by the caller, span name); the span name is
# the layer and function that actually run
PATCHES = [
    ("cli", "dispatch", "cli.dispatch"),
    ("cli", "load_json", "jsonio.load_json"),
    ("jsonio", "load_json", "jsonio.load_json"),
    ("cli", "condition_by_name", "criteria.condition_by_name"),
    ("nv", "linear_span_condition", "criteria.linear_span_condition"),
    ("nv", "quadratic_span_condition", "criteria.quadratic_span_condition"),
    ("cli", "solve_primal", "sdp.solve_primal"),
    ("sdp", "solve_dual", "sdp.solve_dual"),
    ("sdp", "constructive_bound", "sdp.constructive_bound"),
    ("cli", "code_from_optimizer", "codespace.code_from_optimizer"),
    ("cli", "check_conditions", "codespace.check_conditions"),
    ("nv", "check_conditions", "codespace.check_conditions"),
    ("cli", "no_go_search", "codespace.no_go_search"),
    ("nv", "no_go_search", "codespace.no_go_search"),
    ("codespace", "code_search", "codespace.code_search"),
    ("codespace", "stiefel_minimize", "codespace.stiefel_minimize"),
    ("simulate", "jump_operators", "lindblad.jump_operators"),
    ("lindblad", "jump_operators", "lindblad.jump_operators"),  # nv imports it late
    ("simulate", "superoperator", "lindblad.superoperator"),
    ("simulate", "evolve", "simulate.evolve"),
    ("cli", "scaling_sweep", "simulate.scaling_sweep"),
    ("simulate", "qfi_numeric", "simulate.qfi_numeric"),
    ("nv", "nv_verdict_table", "nv.nv_verdict_table"),  # cli imports it late
]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Optional[int]
    attrs: Optional[dict]


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _nominal_steps(cfg, times) -> int:
    """RK4 steps of one trajectory from 0 through ``times`` at ``cfg.dt``."""
    steps, prev = 0, 0.0
    for t in times:
        if t > prev:
            steps += max(1, math.ceil((t - prev) / cfg.dt - 1e-12))
        prev = t
    return steps


def _evolve_attrs(args, kwargs, traj) -> dict:
    cfg = _arg(args, kwargs, 4, "cfg")
    attrs = {"records": len(traj.times), "trace_drift": float(traj.trace_drift)}
    if cfg.dt is not None:
        attrs["steps"] = _nominal_steps(cfg, [cfg.t_final])
    return attrs


def _sweep_attrs(args, kwargs, records) -> dict:
    cfg = _arg(args, kwargs, 3, "cfg")
    if cfg is None or cfg.dt is None:
        return {}
    # two probes, three trajectories each (offset 0 and +-delta)
    return {"steps": 6 * _nominal_steps(cfg, [float(t) for t in _arg(args, kwargs, 2, "tgrid")])}


AFTER: Dict[str, Callable[[tuple, dict, Any], dict]] = {
    "sdp.solve_primal": lambda a, k, r: {"newton_steps": r.iterations},
    "sdp.solve_dual": lambda a, k, r: {"iterations": r.iterations, "certified": bool(r.certified)},
    "lindblad.superoperator": lambda a, k, r: {"dim": int(r.shape[0] ** 0.5 + 0.5)},
    "simulate.evolve": _evolve_attrs,
    "simulate.scaling_sweep": _sweep_attrs,
}


class Tracer:
    """Wraps one import of the package; spans go to the shared ``spans`` list."""

    def __init__(self, pkg, spans: List[Optional[Span]]):
        self.pkg = pkg
        self.spans = spans
        self.item: Optional[int] = None
        self._stack: List[int] = []
        self._saved: list = []

    def install(self) -> None:
        for module, attr, name in PATCHES:
            mod = getattr(self.pkg, module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            if name == "codespace.stiefel_minimize":
                wrapper = self._wrap_stiefel(original)
            else:
                wrapper = self._wrap(name, original)
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _call(self, name, fn, args, kwargs, after):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.item, None)
        if after is not None:
            self.spans[index] = self.spans[index]._replace(attrs=after(args, kwargs, result))
        return result

    def _wrap(self, name, fn):
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, after)

        return wrapper

    def _wrap_stiefel(self, fn):
        """Also wraps the objective, to count and time its evaluations."""

        def wrapper(objective, *args, **kwargs):
            evals = [0, 0.0]

            def counted(v):
                t0 = perf_counter()
                out = objective(v)
                evals[1] += perf_counter() - t0
                evals[0] += 1
                return out

            def after(a, k, result):
                return {"f": float(result[0]), "evals": evals[0], "eval_s": evals[1]}

            return self._call("codespace.stiefel_minimize", fn, (counted,) + args, kwargs, after)

        return wrapper


def write_spans(spans: List[Span], path: str) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")


# unit and direction of every per-layer metric, in report order
LAYER_METRICS = {
    "sdp.barrier.self_s": ("s", "lower"),
    "sdp.newton_steps": ("count", "lower"),
    "sdp.newton_step_ms": ("ms", "lower"),
    "sdp.solve_dual.busy_s": ("s", "lower"),
    "sdp.dual_iterations": ("count", "lower"),
    "sdp.dual_iter_ms": ("ms", "lower"),
    "sdp.certified_ratio": ("ratio", "higher"),
    "sdp.constructive_bound.busy_s": ("s", "lower"),
    "criteria.calls": ("count", "lower"),
    "criteria.busy_s": ("s", "lower"),
    "codespace.stiefel_minimize.calls": ("count", "lower"),
    "codespace.stiefel_minimize.busy_s": ("s", "lower"),
    "codespace.restart_ms": ("ms", "lower"),
    "codespace.objective_evals": ("count", "lower"),
    "codespace.objective_us": ("us", "lower"),
    "codespace.evals_per_restart": ("count", "lower"),
    "codespace.restart_hit_ratio": ("ratio", "higher"),
    "codespace.no_go_search.busy_s": ("s", "lower"),
    "codespace.code_search.busy_s": ("s", "lower"),
    "nv.nv_verdict_table.busy_s": ("s", "lower"),
    "codespace.code_from_optimizer.busy_s": ("s", "lower"),
    "codespace.check_conditions.busy_s": ("s", "lower"),
    "codespace.code_ok_ratio": ("ratio", "higher"),
    "lindblad.jump_operators.calls": ("count", "lower"),
    "lindblad.jump_operators.busy_s": ("s", "lower"),
    "lindblad.superoperator.calls": ("count", "lower"),
    "lindblad.superoperator_ms.d3": ("ms", "lower"),
    "lindblad.superoperator_ms.d6": ("ms", "lower"),
    "simulate.evolve.calls": ("count", "lower"),
    "simulate.evolve.self_s": ("s", "lower"),
    "simulate.step_ns": ("ns", "lower"),
    "simulate.scaling_sweep.busy_s": ("s", "lower"),
    "simulate.qfi_numeric.busy_s": ("s", "lower"),
    "simulate.records": ("count", "lower"),
    "cli.csv_row_us": ("us", "lower"),
    "simulate.trace_drift_max": ("ratio", "lower"),
    "cli.dispatch.calls": ("count", "lower"),
    "cli.dispatch.self_s": ("s", "lower"),
    "jsonio.load_json.busy_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "fail_frac": ("ratio", "lower"),
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: List[Span], facts: Dict[int, dict], passes: int) -> Dict[str, float]:
    """Per-layer values from the spans of ``passes`` traced passes.

    Times and counts are per pass; per-call figures and ratios are taken
    over all traced calls.  ``facts`` maps item id to what its check
    learned (kind, rows written, whether the built code passed KL).
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        dur = s.end - s.start
        calls[s.name] += 1
        busy[s.name] += dur
        self_time[s.name] += dur - child_time[i]
        by_name[s.name].append((i, s, dur - child_time[i]))

    def attr_sum(name, key):
        return sum((s.attrs or {}).get(key, 0) for _, s, _ in by_name[name])

    criteria = [n for n in busy if n.startswith("criteria.")]
    out = {
        "sdp.barrier.self_s": self_time["sdp.solve_primal"] / passes,
        "sdp.newton_steps": attr_sum("sdp.solve_primal", "newton_steps") / passes,
        "sdp.newton_step_ms": _ratio(self_time["sdp.solve_primal"],
                                     attr_sum("sdp.solve_primal", "newton_steps"), 1e3),
        "sdp.solve_dual.busy_s": busy["sdp.solve_dual"] / passes,
        "sdp.dual_iterations": attr_sum("sdp.solve_dual", "iterations") / passes,
        "sdp.dual_iter_ms": _ratio(busy["sdp.solve_dual"],
                                   attr_sum("sdp.solve_dual", "iterations"), 1e3),
        "sdp.certified_ratio": _ratio(attr_sum("sdp.solve_dual", "certified"),
                                      calls["sdp.solve_dual"]),
        "sdp.constructive_bound.busy_s": busy["sdp.constructive_bound"] / passes,
        "criteria.calls": sum(calls[n] for n in criteria) / passes,
        "criteria.busy_s": sum(busy[n] for n in criteria) / passes,
    }

    stiefel = "codespace.stiefel_minimize"
    evals = attr_sum(stiefel, "evals")
    best = {}
    for _, s, _ in by_name[stiefel]:
        best[s.parent] = min(best.get(s.parent, math.inf), s.attrs["f"])
    hits = sum(s.attrs["f"] <= best[s.parent] + 1e-6 for _, s, _ in by_name[stiefel])
    chains = [f for f in facts.values() if "kl_ok" in f]
    out.update({
        "codespace.stiefel_minimize.calls": calls[stiefel] / passes,
        "codespace.stiefel_minimize.busy_s": busy[stiefel] / passes,
        "codespace.restart_ms": _ratio(busy[stiefel], calls[stiefel], 1e3),
        "codespace.objective_evals": evals / passes,
        "codespace.objective_us": _ratio(attr_sum(stiefel, "eval_s"), evals, 1e6),
        "codespace.evals_per_restart": _ratio(evals, calls[stiefel]),
        "codespace.restart_hit_ratio": _ratio(hits, calls[stiefel]),
        "codespace.no_go_search.busy_s": busy["codespace.no_go_search"] / passes,
        "codespace.code_search.busy_s": busy["codespace.code_search"] / passes,
        "nv.nv_verdict_table.busy_s": busy["nv.nv_verdict_table"] / passes,
        "codespace.code_from_optimizer.busy_s": busy["codespace.code_from_optimizer"] / passes,
        "codespace.check_conditions.busy_s": busy["codespace.check_conditions"] / passes,
        "codespace.code_ok_ratio": _ratio(sum(f["kl_ok"] for f in chains), len(chains)),
    })

    sup = by_name["lindblad.superoperator"]

    def sup_ms(dim):
        picked = [s.end - s.start for _, s, _ in sup if s.attrs["dim"] == dim]
        return _ratio(sum(picked), len(picked), 1e3)

    stepped = [(self_s, s.attrs["steps"]) for name in ("simulate.evolve", "simulate.scaling_sweep")
               for _, s, self_s in by_name[name] if "steps" in (s.attrs or {})]
    simulate_items = {i for i, f in facts.items() if f.get("kind") == "simulate"}
    rows = sum(f.get("rows", 0) for f in facts.values())
    cli_self = sum(self_s for _, s, self_s in by_name["cli.dispatch"] if s.item in simulate_items)
    drifts = [s.attrs["trace_drift"] for _, s, _ in by_name["simulate.evolve"]]
    out.update({
        "lindblad.jump_operators.calls": calls["lindblad.jump_operators"] / passes,
        "lindblad.jump_operators.busy_s": busy["lindblad.jump_operators"] / passes,
        "lindblad.superoperator.calls": calls["lindblad.superoperator"] / passes,
        "lindblad.superoperator_ms.d3": sup_ms(3),
        "lindblad.superoperator_ms.d6": sup_ms(6),
        "simulate.evolve.calls": calls["simulate.evolve"] / passes,
        "simulate.evolve.self_s": self_time["simulate.evolve"] / passes,
        "simulate.step_ns": _ratio(sum(t for t, _ in stepped), sum(n for _, n in stepped), 1e9),
        "simulate.scaling_sweep.busy_s": busy["simulate.scaling_sweep"] / passes,
        "simulate.qfi_numeric.busy_s": busy["simulate.qfi_numeric"] / passes,
        "simulate.records": attr_sum("simulate.evolve", "records") / passes,
        "cli.csv_row_us": _ratio(cli_self, rows, 1e6),
        "simulate.trace_drift_max": max(drifts, default=0.0),
        "cli.dispatch.calls": calls["cli.dispatch"] / passes,
        "cli.dispatch.self_s": self_time["cli.dispatch"] / passes,
        "jsonio.load_json.busy_s": busy["jsonio.load_json"] / passes,
    })
    return out
