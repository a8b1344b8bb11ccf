"""Benchmark of the dressedmet toolkit: one workload per run, in one process.

    python3 bench/run.py --workload design --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --compare before.jsonl after.jsonl

A run imports the package from ``src/`` of the checkout it is started in,
sets up (import, inputs, emitted models, one warm-up item) several times and
keeps the median, then runs passes over the workload's item list until
``--seconds`` have gone by, ending at a whole pass.  Each item
is checked against its closed form after it is timed.  Every item and
set-up is timed between two readings of a fixed numpy kernel, and its time
is scaled to the kernel's reference speed (``Probe``), so that the host's
changes of speed do not show as changes of the program's.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run alternates untraced and traced
passes, so its tracing overhead is measured in the same process.

Every run also appends a full record (machine, settings, per-pass and
per-item figures) to ``--out``; ``--compare`` reads two such files.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 1
# a second seed, not used while tuning, on which a claimed gain must also hold
HELDOUT_SEED = 7919
SETUP_REPEATS = 11
# the probe kernel's time on the 2-core VM the benchmark was tuned on, at
# its fastest (README, Steadiness): a time scaled to it reads what the work
# takes there while no other tenant slows the cores
REF_PROBE_S = 0.35e-3
PROBE_REPEATS = 5
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PACKAGE_MODULES = ("cli", "codespace", "criteria", "jsonio", "lindblad", "nv", "sdp", "simulate")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


class Package:
    """The package's modules from one fresh import."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "dressedmet" or n.startswith("dressedmet.")]:
            del sys.modules[name]
        for name in PACKAGE_MODULES:
            setattr(self, name, importlib.import_module("dressedmet." + name))


def _machine(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
        "seed": seed,
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Probe:
    """A fixed kernel whose time tells how fast the host runs just now.

    The kernel is small numpy work like the package's, each call mostly
    interpreter and numpy overhead: 36x36 complex matrix-vector products,
    9x9 eigvalsh and number formatting.  A reading is the median of
    ``PROBE_REPEATS`` runs of it, 2–4 ms in all.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
        self.v = rng.standard_normal(36) + 0j
        h = rng.standard_normal((9, 9))
        self.h = h + h.T

    def _kernel(self) -> list:
        np, x, rows = self.np, self.v, []
        for _ in range(20):
            x = self.a @ x
            x = x / np.linalg.norm(x)
            w = np.linalg.eigvalsh(self.h)
            rows.append(f"{x[0].real:.6g},{w[0]:.6g}")
        return rows

    def read(self) -> float:
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


class ScaledClock:
    """Times spans of work and scales each to the probe's reference speed.

    The probe is read before and after every span (the reading after one
    span serves as the reading before the next); a span's time is scaled
    by ``REF_PROBE_S`` over the mean of the two readings.
    """

    def __init__(self):
        self.probe = Probe()
        self.last = self.probe.read()
        self.readings = [self.last]

    def scale(self, elapsed: float) -> float:
        before, self.last = self.last, self.probe.read()
        self.readings.append(self.last)
        return elapsed * REF_PROBE_S / (0.5 * (before + self.last))


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_item(item, index, facts, failures) -> float:
    """Time one item, then check it; a failure is recorded, never raised.

    Returns the item's unscaled time."""
    start = time.perf_counter()
    try:
        outcome = item.run()
    except Exception:
        failures.append(f"{item.kind}: {traceback.format_exc(limit=3)}")
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    try:
        facts[index] = dict(item.check(outcome), kind=item.kind)
    except Exception as exc:  # a checker crash is a failed item too
        failures.append(f"{item.kind}: {type(exc).__name__}: {exc}")
    return elapsed


def _setup(workloads, name, seed, work, k):
    """The ``k``-th set-up: fresh import, inputs, emitted models, one warm-up item."""
    start = time.perf_counter()
    workload = workloads.WORKLOADS[name](Package(), str(work), seed)
    workload.prepare()
    failures = []
    _run_item(workload.warmup_item(k), -1, {}, failures)
    return time.perf_counter() - start, workload, failures


def run(name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    import workloads
    import tracing

    work = OUT_DIR / f"work-{name}"
    clock = ScaledClock()
    setups, raw_setups, failures = [], [], []

    def setup():
        elapsed, workload, warmup_failures = _setup(workloads, name, seed, work, len(setups))
        raw_setups.append(elapsed)
        setups.append(clock.scale(elapsed))
        failures.extend(warmup_failures)
        return workload

    # set-ups are spread over the run, so their median does not follow the
    # machine's speed in the run's first second only
    workload = setup()
    spans, traced_facts = [], {}
    latencies = {}                  # item index -> untraced scaled latencies
    walls = {False: [], True: []}   # scaled pass times, by traced
    raw_walls = []                  # unscaled untraced pass times
    attempted = 0
    start = time.perf_counter()
    deadline = start + seconds
    p = 0
    while True:
        while len(setups) < SETUP_REPEATS and (
                time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
            workload = setup()
        traced = trace and p % 2 == 1
        tracer = tracing.Tracer(workload.pkg, spans)
        wall = raw_wall = 0.0
        if traced:
            tracer.install()
        items = workload.items_for(p)
        try:
            for i in workload.order(p, len(items)):
                item = items[i]
                tracer.item = attempted
                elapsed = _run_item(item, attempted, traced_facts if traced else {}, failures)
                attempted += 1
                latency = clock.scale(elapsed)
                wall += latency
                raw_wall += elapsed
                if not traced:
                    latencies.setdefault(i, []).append(latency)
        finally:
            tracer.remove()
        walls[traced].append(wall)
        if not traced:
            raw_walls.append(raw_wall)
        p += 1
        # start another pass only if it should end within half a pass of
        # the deadline, so a run lasts about --seconds
        if time.perf_counter() + 0.5 * raw_wall >= deadline and (p >= 2 or not trace):
            break
    while len(setups) < SETUP_REPEATS:
        setup()
    attempted += len(setups)  # each set-up ran one warm-up item
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    kinds = [item.kind for item in items]
    record = {
        "workload": name, "seconds": seconds, "trace": int(trace),
        "machine": _machine(seed), "attempted": attempted, "failed": len(failures),
        "setup_s_each": setups, "pass_wall_s": walls[False], "passes": p,
        "unscaled": {"setup_s_each": raw_setups, "pass_wall_s": raw_walls},
        "probe_ms": [1e3 * t for t in statistics.quantiles(clock.readings, n=4)],
        "item_ms": [[kinds[i], [1e3 * t for t in ts]] for i, ts in sorted(latencies.items())],
    }
    if trace:
        metrics = tracing.layer_metrics(spans, traced_facts, len(walls[True]))
        metrics["trace.wall_s"] = statistics.median(walls[True])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls[False])
        metrics["fail_frac"] = len(failures) / attempted
        units = {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}
        record["traced_pass_wall_s"] = walls[True]
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracing.write_spans(spans, str(spans_path))
        print(f"# {len(spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        ms = sorted(1e3 * t for ts in latencies.values() for t in ts)
        p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls[False]),
            "item_p50_ms": statistics.median(ms),
            "item_p90_ms": p90,
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END
        print(f"# {len(ms)} item latencies from {p} passes; "
              f"{sum(x > p90 for x in ms)} beyond p90")
    record["metrics"] = metrics
    with open(out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print("# " + json.dumps(record["machine"]))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------


def _spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(before, after, better: str, bound: float) -> str:
    """better / worse / within bound / unresolved, by the benchmark's rules.

    A gain needs the new median to beat the old one by more than the old
    runs' quartile distance and the new run to win nine tenths of the pairs
    (runs paired in file order).  A loss is a median worse by more than the
    bound.  Otherwise a spread wider than the bound on either side leaves
    the metric unresolved.
    """
    if len(before) < 2 or len(after) < 2:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    m0, q1_0, q3_0 = _spread(before)
    m1, q1_1, q3_1 = _spread(after)
    pairs = list(zip(before, after))
    wins = sum(sign * (b - a) > 0 for b, a in pairs)
    if sign * (m0 - m1) > q3_0 - q1_0 and wins >= 0.9 * len(pairs):
        return "better"
    if sign * (m1 - m0) > bound * abs(m0):
        return "worse"
    if max(q3_0 - q1_0, q3_1 - q1_1) > bound * abs(m0):
        return "unresolved"
    return "within bound"


def compare(before_path: str, after_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def load(path):
        runs = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], []).append(rec)
        return runs

    before, after = load(before_path), load(after_path)
    print(f"{'workload':<11} {'metric':<12} {'before med [q1, q3]':>30} "
          f"{'after med [q1, q3]':>30} {'ratio':>7}  verdict")
    for name in sorted(set(before) & set(after)):
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]] for r in before[name] if m["name"] in r["metrics"]]
            a = [r["metrics"][m["name"]] for r in after[name] if m["name"] in r["metrics"]]
            if not a or not b:
                continue
            cols = []
            for vals in (b, a):
                if len(vals) > 1:
                    med, q1, q3 = _spread(vals)
                    cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
                else:
                    cols.append(f"{vals[0]:.4g} [single run]")
            ratio = statistics.median(a) / statistics.median(b)
            print(f"{name:<11} {m['name']:<12} {cols[0]:>30} {cols[1]:>30} {ratio:>7.3f}  "
                  f"{verdict(b, a, m['better'], m['bound'])}")
        fails = [sum(r["failed"] for r in runs[name]) for runs in (before, after)]
        print(f"{name:<11} {'failed':<12} {fails[0]:>30} {fails[1]:>30}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("design", "sweep", "trajectory"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(OUT_DIR / "results.jsonl"),
                        help="append the full run record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two result files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    # run hygiene, before numpy is imported: DM_SEED would override the
    # commands' --seed, and BLAS threads stay within the machine's cores
    os.environ.pop("DM_SEED", None)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "dressedmet" / "__init__.py").is_file():
        print(f"bench: no package source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(args.out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
