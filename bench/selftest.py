"""Self-test of the benchmark: smoke runs, a perturbed closed form, compare.

    python3 bench/selftest.py          (about half a minute on two cores)

Each run is a subprocess started like the real ones, with ``--seconds 0``
(one pass untraced, two passes traced).  Results go to a scratch file under
``.bench_out`` so the run log is left alone.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_out" / "selftest"

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(*args, code=None, cwd=ROOT):
    """Run the benchmark (or ``code`` with the same arguments) and return
    the exit code, the parsed last stdout line (or None) and stderr."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    argv = ["--seconds", "0", "--out", str(SCRATCH / "results.jsonl"), *args]
    cmd = [sys.executable, "-c", code, *argv] if code else [sys.executable, "bench/run.py", *argv]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last, proc.stderr


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload, trace, section):
        code, result, err = bench("--workload", workload, "--trace", str(trace))
        self.assertEqual(code, 0, err)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], err)
        self.assertEqual(result["failed"], 0, err)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], float, name)
        return result["metrics"]

    def test_workloads(self):
        for workload in ("design", "sweep", "trajectory"):
            with self.subTest(workload=workload):
                e2e = self.check_run(workload, 0, "end_to_end")
                for name in ("setup_s", "wall_s", "item_p50_ms", "item_p90_ms", "peak_rss_mb"):
                    self.assertGreater(e2e[name]["value"], 0.0, name)
                layers = self.check_run(workload, 1, "per_layer")
                self.assertEqual(layers["fail_frac"]["value"], 0.0)
                self.assertGreater(layers["cli.dispatch.calls"]["value"], 0.0)


class PerturbedClosedForm(unittest.TestCase):
    def test_wrong_expectation_counts_as_failure(self):
        # the unprotected decay rate is 2 gamma; expecting 2.5 must fail the
        # three unprotected trajectories of every pass, and nothing else
        code = ("import sys; sys.path.insert(0, 'bench'); import workloads, run; "
                "workloads.EXPECTED['unprotected_decay_rate'] = 2.5; "
                "sys.exit(run.main(sys.argv[1:]))")
        status, result, err = bench("--workload", "trajectory", "--trace", "1", code=code)
        self.assertEqual(status, 0, err)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 6, err)
        frac = result["metrics"]["fail_frac"]["value"]
        self.assertAlmostEqual(frac, 6 / result["attempted"])
        self.assertIn("decay off by", err)


class NoProgram(unittest.TestCase):
    def test_fails_without_the_package(self):
        bare = SCRATCH / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "bench")
        status, result, _ = bench("--workload", "trajectory", "--trace", "0", cwd=bare)
        self.assertNotEqual(status, 0)
        self.assertIsNone(result)


class Scaling(unittest.TestCase):
    def test_scale_uses_mean_of_readings_around_the_span(self):
        clock = run.ScaledClock()
        readings = iter([2 * run.REF_PROBE_S])
        clock.probe = type("Stub", (), {"read": lambda self: next(readings)})()
        clock.last = run.REF_PROBE_S
        # readings 1 and 2 (in REF_PROBE_S) around the span: a host at 2/3 speed
        self.assertAlmostEqual(clock.scale(3.0), 2.0)
        self.assertEqual(clock.last, 2 * run.REF_PROBE_S)


class Verdicts(unittest.TestCase):
    def test_rules(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
        faster = [x * 0.8 for x in base]
        slower = [x * 1.3 for x in base]
        noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 1.0, 0.8, 1.2]
        self.assertEqual(run.verdict(base, faster, "lower", 0.1), "better")
        self.assertEqual(run.verdict(base, slower, "lower", 0.1), "worse")
        self.assertEqual(run.verdict(base, base, "lower", 0.1), "within bound")
        self.assertEqual(run.verdict(base, noisy, "lower", 0.1), "unresolved")
        self.assertEqual(run.verdict(base, faster, "higher", 0.1), "worse")
        self.assertEqual(run.verdict(base[:1], base, "lower", 0.1), "unresolved")


if __name__ == "__main__":
    unittest.main()
