"""Command-line surface: exit codes, JSON payloads, manifests, CSV outputs.

Frozen oracle values:
- Axial design problem (generator S_z^2, coupling S_z): optimized value 1,
  optimizer diag(1/2, 1, 1/2), witness diag(1/2, -1, 1/2).  The code built
  from that witness passes every protection condition with signal 1; its
  strict product-level deviation is 1/sqrt(2) (the product set contains the
  squared signal), so the verify report says kl_ok false.
- Random-restart floor for the full spin triple: 2 (not feasible); the lone
  axial coupling admits a zero-penalty pair (feasible).
- Undressed trajectory: coherence (1/2) e^{-2t}, purity (1 + e^{-4t}) / 2.
- Sweep columns: protected Fisher t^2/4, unprotected t^2 e^{-4t} (its code
  pair holds the bare generator with level gap 2).

Exit codes: 0 success, 1 usage/validation, 2 numerical failure, 3 gate.
"""

import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dressedmet
from dressedmet.cli import (
    EXIT_GATE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    _parse_tgrid,
    dispatch,
)
from dressedmet.errors import ValidationError
from dressedmet.jsonio import dump_json, operator_to_json
from dressedmet.nv import protected_model, unprotected_model
from dressedmet.operators import spin_matrices
from dressedmet.sdp import SdpProblem, solve_dual
from dressedmet.simulate import MAX_STEPS, ProbeModel, _step_count

SX, SY, SZ = spin_matrices(2)

FLOAT_FIELD = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def ops(tmp_path):
    paths = {}
    for name, m in (("szsq", SZ @ SZ), ("sx", SX), ("sy", SY), ("sz", SZ)):
        p = tmp_path / f"{name}.json"
        dump_json(operator_to_json(m), p)
        paths[name] = str(p)
    return paths


def forbid_grids(monkeypatch):
    """Make building a time grid fail, so a refusal test never allocates one."""
    def refuse(*args, **kwargs):
        raise AssertionError("a time grid was built")

    for name in ("linspace", "geomspace"):
        monkeypatch.setattr(np, name, refuse)


def run(capsys, argv):
    rc = dispatch(argv)
    return rc, capsys.readouterr().out


def _pyproject_string(table, key):
    """The basic string ``key = "..."`` under ``[table]`` in pyproject.toml.

    A line reader rather than tomllib, which python 3.10 lacks.
    """
    current = None
    for line in PYPROJECT.read_text().splitlines():
        header = re.fullmatch(r"\s*\[([\w.-]+)\]\s*(#.*)?", line)
        if header:
            current = header.group(1)
            continue
        entry = re.fullmatch(r'\s*"?([\w.-]+)"?\s*=\s*"([^"\\]*)"\s*(#.*)?', line)
        if current == table and entry and entry.group(1) == key:
            return entry.group(2)
    raise KeyError(f"{key} not found under [{table}] in {PYPROJECT}")


def _child_env():
    """Environment in which a child imports the same package as this process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(dressedmet.__file__).resolve().parents[1]),
                      env.get("PYTHONPATH")]))
    return env


class TestCheck:
    def test_linear_criterion_report(self, capsys, ops):
        rc, out = run(capsys, ["check", "--criterion", "thm1",
                               "--generator", ops["szsq"], "--couplings", ops["sz"]])
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["verdict"] is True
        assert doc["residual_norm"] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-9)
        assert doc["span_dim"] == 2
        assert doc["marginal"] is False
        assert set(doc["manifest"]) == {
            "command", "config_hash", "seed", "tool_version", "wall_time"}

    def test_huge_couplings_keep_the_verdict_or_are_refused(self, capsys, ops, tmp_path):
        # couplings at 1e100 used to exit 0 with the residual of a smaller span
        residuals = []
        for scale in (1.0, 1e64, 1e65):
            path = tmp_path / f"b{scale:g}.json"
            dump_json(operator_to_json(scale * (SZ + 0.3 * SX)), path)
            rc, out = run(capsys, ["check", "--criterion", "thm2",
                                   "--generator", ops["sx"], "--couplings", str(path)])
            if scale > 1e64:
                assert rc == EXIT_USAGE and out == ""
            else:
                assert rc == EXIT_OK
                residuals.append(json.loads(out)["residual_norm"])
        assert residuals[1] == pytest.approx(residuals[0], rel=1e-12)

    def test_gate_turns_negative_verdict_into_exit_3(self, capsys, ops):
        argv = ["check", "--criterion", "thm2", "--generator", ops["szsq"],
                "--couplings", ops["sx"], ops["sy"], ops["sz"]]
        rc, out = run(capsys, argv + ["--gate"])
        assert rc == EXIT_GATE
        assert json.loads(out)["verdict"] is False
        rc, _ = run(capsys, argv)
        assert rc == EXIT_OK

    def test_jump_products_swallow_generator(self, capsys, ops):
        rc, out = run(capsys, ["check", "--criterion", "hnls",
                               "--generator", ops["szsq"], "--couplings", ops["sz"]])
        assert rc == EXIT_OK
        assert json.loads(out)["verdict"] is False

    def test_file_output_gets_sidecar(self, capsys, ops, tmp_path):
        out_path = tmp_path / "report.json"
        rc, _ = run(capsys, ["check", "--criterion", "thm1",
                             "--generator", ops["szsq"], "--couplings", ops["sz"],
                             "--out", str(out_path)])
        assert rc == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert "manifest" not in doc
        side = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert set(side) == {"command", "config_hash", "seed", "tool_version",
                             "wall_time"}


class TestDesignChain:
    def test_optimize_build_verify(self, capsys, ops, tmp_path):
        sol_path = tmp_path / "sol.json"
        rc, _ = run(capsys, ["optimize", "--generator", ops["szsq"],
                             "--couplings", ops["sz"], "--out", str(sol_path)])
        assert rc == EXIT_OK
        sol = json.loads(sol_path.read_text())
        assert sol["certified"] is True
        assert sol["primal_value"] == pytest.approx(1.0, abs=1e-6)
        assert sol["gap"] < 1e-6
        assert np.allclose(np.diagonal(sol["x_certificate"]["re"]),
                           [0.5, 1.0, 0.5], atol=1e-5)

        code_path = tmp_path / "code.json"
        rc, _ = run(capsys, ["build-code", "--from-sdp", str(sol_path),
                             "--out", str(code_path)])
        assert rc == EXIT_OK
        assert set(json.loads(code_path.read_text())) == {
            "anc_dim", "psi0", "psi1", "sys_dim"}

        rc, out = run(capsys, ["verify", "--code", str(code_path),
                               "--couplings", ops["sz"],
                               "--generator", ops["szsq"]])
        assert rc == EXIT_OK
        rep = json.loads(out)
        assert rep["dephasing_violation"] < 1e-12
        assert rep["relaxation_violation"] < 1e-12
        assert rep["signal"] == pytest.approx(1.0, abs=1e-6)
        # the product set contains the squared signal, which must split the
        # pair, so strict correctability is honestly reported as failed
        assert rep["kl_ok"] is False
        assert rep["kl_violation"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    def test_verify_without_generator_blanks_signal(self, capsys, ops, tmp_path):
        sol_path = tmp_path / "sol.json"
        run(capsys, ["optimize", "--generator", ops["szsq"],
                     "--couplings", ops["sz"], "--out", str(sol_path)])
        code_path = tmp_path / "code.json"
        run(capsys, ["build-code", "--from-sdp", str(sol_path),
                     "--out", str(code_path)])
        rc, out = run(capsys, ["verify", "--code", str(code_path),
                               "--couplings", ops["sz"]])
        assert rc == EXIT_OK
        assert json.loads(out)["signal"] is None

    def test_non_finite_generator_is_usage_error(self, capsys, tmp_path):
        # a NaN entry used to pass as Hermitian and get certified value 0
        gen = tmp_path / "nan.json"
        gen.write_text(json.dumps({"dim": 2, "re": [[float("nan"), 0.0], [0.0, -1.0]]}))
        sol_path = tmp_path / "sol.json"
        rc, out = run(capsys, ["optimize", "--generator", str(gen), "--out", str(sol_path)])
        assert rc == EXIT_USAGE
        assert out == "" and not sol_path.exists()

    def test_optimize_counts_newton_steps_once(self, capsys, ops, tmp_path):
        sol_path = tmp_path / "sol.json"
        run(capsys, ["optimize", "--generator", ops["szsq"], "--couplings", ops["sz"],
                     "--out", str(sol_path)])
        sol = json.loads(sol_path.read_text())
        assert "dual_iterations" not in sol
        steps = solve_dual(SdpProblem.from_couplings(SZ @ SZ, [SZ])).iterations
        assert steps > 0 and sol["iterations"] == steps

    def test_tol_flag_is_gone(self, capsys, ops):
        with pytest.raises(SystemExit) as exc:
            dispatch(["optimize", "--generator", ops["szsq"], "--couplings", ops["sz"],
                      "--tol", "1e-8"])
        assert exc.value.code == EXIT_USAGE

    def test_build_code_needs_witness_field(self, capsys, tmp_path):
        bad = tmp_path / "notasolution.json"
        bad.write_text(json.dumps({"primal_value": 1.0}))
        rc, _ = run(capsys, ["build-code", "--from-sdp", str(bad)])
        assert rc == EXIT_USAGE


class TestNoGo:
    def test_triple_is_infeasible_at_floor(self, capsys, ops):
        rc, out = run(capsys, ["no-go", "--couplings", ops["sx"], ops["sy"],
                               ops["sz"], "--restarts", "24", "--seed", "5"])
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert doc["min_penalty"] == pytest.approx(2.0, abs=1e-6)
        assert doc["sys_dim"] == 3
        assert doc["seed"] == 5

    def test_axial_alone_is_feasible(self, capsys, ops):
        rc, out = run(capsys, ["no-go", "--couplings", ops["sz"],
                               "--restarts", "8"])
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["min_penalty"] < 1e-10

    def test_requires_couplings(self, capsys):
        rc, _ = run(capsys, ["no-go"])
        assert rc == EXIT_USAGE


class TestSeedHandling:
    def test_dm_seed_is_ignored(self, capsys, ops, monkeypatch):
        monkeypatch.setenv("DM_SEED", "11")
        rc, out = run(capsys, ["no-go", "--couplings", ops["sz"],
                               "--restarts", "4", "--seed", "3"])
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["seed"] == 3
        assert doc["manifest"]["seed"] == 3


class TestManifest:
    def test_reruns_are_reproducible(self, capsys, ops, tmp_path):
        argv = ["check", "--criterion", "thm1", "--generator", ops["szsq"],
                "--couplings", ops["sz"]]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, argv + ["--out", str(p1)])
        run(capsys, argv + ["--out", str(p2)])
        assert p1.read_text() == p2.read_text()
        m1 = json.loads((tmp_path / "a.json.manifest.json").read_text())
        m2 = json.loads((tmp_path / "b.json.manifest.json").read_text())
        for key in ("command", "config_hash", "seed", "tool_version"):
            assert m1[key] == m2[key]

    @staticmethod
    def input_files(capsys, ops, tmp_path):
        """Valid inputs for every file-valued argument of every subcommand."""
        files = {"g": ops["szsq"], "sz": ops["sz"]}
        for name, model in (("protected", protected_model()),
                            ("unprotected", unprotected_model())):
            files[name] = str(tmp_path / f"{name}.json")
            dump_json(model.to_json_dict(), files[name])
        files["cfg"] = str(tmp_path / "cfg.json")
        dump_json({"t_final": 0.2, "dt": 0.01}, files["cfg"])
        files["sol"] = str(tmp_path / "sol.json")
        files["code"] = str(tmp_path / "code.json")
        assert run(capsys, ["optimize", "--generator", files["g"], "--couplings", files["sz"],
                            "--out", files["sol"]])[0] == EXIT_OK
        assert run(capsys, ["build-code", "--from-sdp", files["sol"],
                            "--out", files["code"]])[0] == EXIT_OK
        return files

    # (argv with {file} placeholders, the input whose bytes change); one
    # case per input-path argument of every subcommand
    HASH_CASES = [
        (["check", "--criterion", "thm1", "--generator", "{g}", "--couplings", "{sz}"], "g"),
        (["check", "--criterion", "thm1", "--generator", "{g}", "--couplings", "{sz}"], "sz"),
        (["optimize", "--generator", "{g}", "--couplings", "{sz}"], "g"),
        (["optimize", "--generator", "{g}", "--couplings", "{sz}"], "sz"),
        (["build-code", "--from-sdp", "{sol}"], "sol"),
        (["verify", "--code", "{code}", "--couplings", "{sz}", "--generator", "{g}"], "code"),
        (["verify", "--code", "{code}", "--couplings", "{sz}", "--generator", "{g}"], "sz"),
        (["verify", "--code", "{code}", "--couplings", "{sz}", "--generator", "{g}"], "g"),
        (["no-go", "--couplings", "{sz}", "--restarts", "2"], "sz"),
        (["simulate", "--model", "{unprotected}", "--config", "{cfg}"], "unprotected"),
        (["simulate", "--model", "{unprotected}", "--config", "{cfg}"], "cfg"),
        (["sweep", "--protected", "{protected}", "--unprotected", "{unprotected}",
          "--tgrid", "0.1:0.2:2", "--config", "{cfg}"], "protected"),
        (["sweep", "--protected", "{protected}", "--unprotected", "{unprotected}",
          "--tgrid", "0.1:0.2:2", "--config", "{cfg}"], "unprotected"),
        (["sweep", "--protected", "{protected}", "--unprotected", "{unprotected}",
          "--tgrid", "0.1:0.2:2", "--config", "{cfg}"], "cfg"),
    ]

    def test_hash_tracks_file_content_not_path(self, capsys, ops, tmp_path):
        files = self.input_files(capsys, ops, tmp_path)
        for i, (template, changed) in enumerate(self.HASH_CASES):
            argv = [a.format(**files) for a in template]

            def config_hash(out_name):
                out = tmp_path / out_name
                rc, _ = run(capsys, argv + ["--out", str(out)])
                assert rc == EXIT_OK, argv
                return json.loads(Path(f"{out}.manifest.json").read_text())["config_hash"]

            h1 = config_hash("r1.out")
            # the same document in new bytes (an indent no earlier case used) at the same path
            path = Path(files[changed])
            path.write_text(json.dumps(json.loads(path.read_text()), indent=i + 3))
            h2 = config_hash("r1.out")
            assert h1 != h2, (template[0], changed)
            assert config_hash("r2.out") == h2, (template[0], changed)

    def test_hash_matches_the_pinned_value(self, capsys, ops):
        rc, out = run(capsys, ["check", "--criterion", "thm1", "--generator", ops["szsq"],
                               "--couplings", ops["sz"]])
        assert rc == EXIT_OK
        assert json.loads(out)["manifest"]["config_hash"] == (
            "d6f1f227d9e3ca26458e214e786fa88ede936c805cf906030ce5f88c6c9f247c")

    def test_non_finite_payload_writes_nothing(self, capsys, ops, tmp_path):
        # JSON has no NaN; the payload is refused before any output
        argv = ["no-go", "--couplings", ops["sz"], "--restarts", "2", "--feasible-tol", "nan"]
        out = tmp_path / "r.json"
        for extra in ([], ["--out", str(out)]):
            rc, stdout = run(capsys, argv + extra)
            assert rc == EXIT_USAGE
            assert stdout == ""
        assert not out.exists()
        assert not (tmp_path / "r.json.manifest.json").exists()

    def test_failed_run_writes_no_emitted_model(self, capsys, tmp_path):
        # the models are ready before the table fails, but nothing is written
        mdir = tmp_path / "models"
        rc, out = run(capsys, ["nv-demo", "--emit-models", str(mdir), "--table",
                               "--restarts", "0"])
        assert rc == EXIT_USAGE
        assert out == ""
        assert not mdir.exists()

    def test_negative_gamma_emits_no_model(self, capsys, tmp_path):
        mdir = tmp_path / "models"
        rc = dispatch(["nv-demo", "--emit-models", str(mdir), "--gamma", "-1"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("dressedmet: bath rate must be >= 0")
        assert not mdir.exists()

    def test_sidecars_of_one_run_share_one_manifest(self, capsys, tmp_path):
        mdir = tmp_path / "models"
        assert run(capsys, ["nv-demo", "--emit-models", str(mdir)])[0] == EXIT_OK
        sidecars = [(mdir / f"{name}_model.json.manifest.json").read_text()
                    for name in ("protected", "unprotected")]
        assert sidecars[0] == sidecars[1]


class TestInPlaceWrites:
    """Every output file is rewritten in place: the bytes of a fresh write, on
    the same inode, with the same mode and links."""

    WALL_TIME = re.compile(r'"wall_time": [^,\n]+')

    @staticmethod
    def inputs(tmp_path):
        files = {"cfg": str(tmp_path / "cfg.json")}
        dump_json({"t_final": 0.2, "dt": 0.01}, files["cfg"])
        for name, model in (("protected", protected_model()),
                            ("unprotected", unprotected_model())):
            files[name] = str(tmp_path / f"{name}.json")
            dump_json(model.to_json_dict(), files[name])
        return files

    @pytest.mark.parametrize("command", ["simulate", "sweep", "nv-demo"])
    def test_rewrite_over_a_longer_file_matches_a_fresh_write(self, capsys, tmp_path, command):
        files = self.inputs(tmp_path)
        out = tmp_path / "out"
        argv = {
            "simulate": ["simulate", "--model", files["unprotected"], "--config", files["cfg"],
                         "--out", str(out / "traj.csv")],
            "sweep": ["sweep", "--protected", files["protected"],
                      "--unprotected", files["unprotected"], "--tgrid", "0.1:0.2:2",
                      "--config", files["cfg"], "--out", str(out / "sweep.csv")],
            "nv-demo": ["nv-demo", "--emit-models", str(out)],
        }[command]
        out.mkdir()
        assert run(capsys, argv)[0] == EXIT_OK
        fresh = {p.name: p.read_text() for p in out.iterdir()}
        assert len(fresh) == (4 if command == "nv-demo" else 2)
        for name, text in fresh.items():
            (out / name).write_text("stale\n" * (len(text) // 6 + 100))
        assert run(capsys, argv)[0] == EXIT_OK
        for name, text in fresh.items():
            again = (out / name).read_text()
            if name.endswith(".manifest.json"):
                text, again = self.WALL_TIME.sub("", text), self.WALL_TIME.sub("", again)
            assert again == text, name

    def test_file_keeps_its_inode_mode_and_links(self, capsys, tmp_path):
        files = self.inputs(tmp_path)
        target, alias, link = tmp_path / "traj.csv", tmp_path / "alias.csv", tmp_path / "link.csv"
        target.write_text("stale\n" * 10000)
        target.chmod(0o600)
        os.link(target, alias)
        link.symlink_to(target)
        before = os.stat(target)
        rc, _ = run(capsys, ["simulate", "--model", files["unprotected"],
                             "--config", files["cfg"], "--out", str(link)])
        assert rc == EXIT_OK
        after = os.stat(target)
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == 0o600
        assert link.is_symlink() and os.readlink(link) == str(target)
        text = target.read_text()
        lines = text.splitlines()
        assert lines[0] == "t,coherence,purity,trace_drift" and len(lines) == 22
        assert lines[-1].startswith("2.00000000000e-01,") and text.endswith("\n")
        assert alias.read_text() == text
        assert (tmp_path / "link.csv.manifest.json").exists()

    def test_refused_document_leaves_an_existing_file_as_it_was(self, capsys, ops, tmp_path):
        out, sidecar = tmp_path / "r.json", tmp_path / "r.json.manifest.json"
        out.write_bytes(b"earlier result\n")
        sidecar.write_bytes(b"earlier manifest\n")
        rc, stdout = run(capsys, ["no-go", "--couplings", ops["sz"], "--restarts", "2",
                                  "--feasible-tol", "nan", "--out", str(out)])
        assert (rc, stdout) == (EXIT_USAGE, "")
        assert out.read_bytes() == b"earlier result\n"
        assert sidecar.read_bytes() == b"earlier manifest\n"


class TestSimulate:
    def test_trajectory_csv(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(unprotected_model().to_json_dict()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"t_final": 0.5, "dt": 0.01}))
        csv_path = tmp_path / "traj.csv"
        rc, _ = run(capsys, ["simulate", "--model", str(model_path),
                             "--config", str(cfg_path), "--out", str(csv_path)])
        assert rc == EXIT_OK
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "t,coherence,purity,trace_drift"
        assert len(lines) == 52
        for field in lines[-1].split(","):
            assert FLOAT_FIELD.match(field)
        t, coh, purity, drift = (float(x) for x in lines[-1].split(","))
        assert t == pytest.approx(0.5, rel=1e-12)
        assert coh == pytest.approx(0.5 * math.exp(-1.0), abs=1e-9)
        assert purity == pytest.approx(0.5 * (1.0 + math.exp(-2.0)), abs=1e-9)
        assert drift < 1e-12
        assert (tmp_path / "traj.csv.manifest.json").exists()

    def test_negative_state_is_numerical_failure(self, capsys, tmp_path):
        doc = unprotected_model().to_json_dict()
        doc["rho0"] = operator_to_json(np.diag([1.2, -0.2, 0.0]).astype(complex))
        model_path = tmp_path / "bad.json"
        model_path.write_text(json.dumps(doc))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"t_final": 0.5, "dt": 0.01}))
        rc, _ = run(capsys, ["simulate", "--model", str(model_path),
                             "--config", str(cfg_path),
                             "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_NUMERICAL

    def test_non_hermitian_state_is_usage_error(self, capsys, tmp_path):
        # unit trace and a positive Hermitian part, but coherence 0.8 > 1/2
        rho0 = np.diag([0.5, 0.5, 0.0]).astype(complex)
        rho0[0, 1] = 0.8
        doc = unprotected_model().to_json_dict()
        doc["rho0"] = operator_to_json(rho0)
        model_path = tmp_path / "bad.json"
        model_path.write_text(json.dumps(doc))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"t_final": 0.5, "dt": 0.01}))
        csv_path = tmp_path / "x.csv"
        rc = dispatch(["simulate", "--model", str(model_path), "--config", str(cfg_path),
                       "--out", str(csv_path)])
        assert rc == EXIT_USAGE
        assert "Hermitian" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.json", "cfg.json"]

    def test_mismatched_model_dimension_is_usage_error(self, capsys, tmp_path):
        doc = unprotected_model().to_json_dict()
        doc["rho0"] = operator_to_json(np.eye(2) / 2)
        model_path = tmp_path / "bad.json"
        model_path.write_text(json.dumps(doc))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"t_final": 0.5, "dt": 0.01}))
        rc = dispatch(["simulate", "--model", str(model_path), "--config", str(cfg_path),
                       "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE
        assert "rho0 has shape (2, 2), but h has dim 3" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.json", "cfg.json"]

    @pytest.mark.parametrize("cfg", [
        '{"t_final": Infinity}',
        '{"t_final": 1.0, "record_stride": Infinity}',
        '{"t_final": 1.0, "record_stride": 2.7}',
    ])
    def test_non_finite_or_fractional_config_is_usage_error(self, capsys, tmp_path, cfg):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(unprotected_model().to_json_dict()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg)
        rc = dispatch(["simulate", "--model", str(model_path), "--config", str(cfg_path),
                       "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("dressedmet: ")


    def test_overflowing_step_count_is_usage_error(self, capsys, tmp_path):
        # t_final / dt is inf; it used to raise OverflowError out of evolve
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(unprotected_model().to_json_dict()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"t_final": 1e300, "dt": 1e-300}')
        rc = dispatch(["simulate", "--model", str(model_path), "--config", str(cfg_path),
                       "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE
        assert "step count is not finite" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "m.json"]

    @pytest.mark.parametrize("cfg, states", [
        # 1e12 steps: the record marks alone used to ask numpy for 7.28 TiB
        ('{"t_final": 1e6, "dt": 1e-6}', 10**12 + 1),
        # the unprotected model's default dt, 1e-3 over its total bath rate 3
        ('{"t_final": 1e5}', 300000001),
        # one state over the bound, counted with a stride
        ('{"t_final": 292.96875, "dt": 0.0009765625, "record_stride": 3}', 100001),
    ])
    def test_oversized_record_count_is_usage_error(self, capsys, tmp_path, cfg, states):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(unprotected_model().to_json_dict()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg)
        rc = dispatch(["simulate", "--model", str(model_path), "--config", str(cfg_path),
                       "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"dressedmet: the run would store {states} states, over 100000\n"
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "m.json"]

    def test_a_run_at_the_record_bound_writes_every_row(self, capsys, tmp_path):
        # 99999 steps of 2^-10 store 100000 states, t = 0 included
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(unprotected_model().to_json_dict()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"t_final": 99999 * 2.0 ** -10, "dt": 2.0 ** -10}))
        csv_path = tmp_path / "x.csv"
        rc = dispatch(["simulate", "--model", str(model_path), "--config", str(cfg_path),
                       "--out", str(csv_path)])
        assert rc == EXIT_OK
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        assert rows.shape == (100000, 4)
        assert np.array_equal(rows[:, 0], np.arange(100000) * 2.0 ** -10)

    def test_oversized_step_count_is_usage_error(self, capsys, tmp_path):
        # 10^12 steps that store 10001 states: past the step bound, not the record bound
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(unprotected_model().to_json_dict()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"t_final": 1e6, "dt": 1e-6, "record_stride": 100000000}')
        start = time.perf_counter()
        rc = dispatch(["simulate", "--model", str(model_path), "--config", str(cfg_path),
                       "--out", str(tmp_path / "x.csv")])
        assert time.perf_counter() - start < 1.0
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"dressedmet: the run would take {10**12} steps, over 100000000\n"
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "m.json"]

    def test_a_run_at_the_step_bound_is_counted_not_refused(self):
        # 97656.25 = 10^8 steps of 2^-10 exactly; one step more is refused
        dt = 2.0 ** -10
        assert MAX_STEPS == 10**8
        assert _step_count(MAX_STEPS * dt, dt) == MAX_STEPS
        assert _step_count(MAX_STEPS * dt, dt, stride=10**4) == MAX_STEPS
        with pytest.raises(ValidationError, match="the run would take 100000001 steps, over 100000000"):
            _step_count((MAX_STEPS + 1) * dt, dt)

    def test_negative_bath_rate_is_usage_error(self, capsys, tmp_path):
        # the protected model never evaluates its nu = 0 rate while it runs
        doc = protected_model().to_json_dict()
        doc["spectrum"]["gamma"]["rate"] = -1.0
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(doc))
        (tmp_path / "cfg.json").write_text('{"t_final": 0.1, "dt": 0.01}')
        rc = dispatch(["simulate", "--model", str(model_path), "--config",
                       str(tmp_path / "cfg.json"), "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("dressedmet: bad spectrum: bath rate must be >= 0")
        assert not (tmp_path / "x.csv").exists()

    def test_nan_gap_tol_is_usage_error(self, capsys, tmp_path):
        # the JSON reader takes the NaN literal; a NaN tolerance used to merge
        # the whole spectrum into one zero-frequency jump
        text = json.dumps(dict(protected_model().to_json_dict(), gap_tol=float("nan")))
        assert '"gap_tol": NaN' in text
        model_path = tmp_path / "m.json"
        model_path.write_text(text)
        (tmp_path / "cfg.json").write_text('{"t_final": 0.1, "dt": 0.01}')
        rc = dispatch(["simulate", "--model", str(model_path), "--config",
                       str(tmp_path / "cfg.json"), "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE
        assert "gap_tol must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestSweep:
    def test_emitted_models_sweep_to_csv(self, capsys, tmp_path):
        mdir = tmp_path / "models"
        rc, _ = run(capsys, ["nv-demo", "--emit-models", str(mdir)])
        assert rc == EXIT_OK
        names = sorted(os.listdir(mdir))
        assert names == ["protected_model.json", "protected_model.json.manifest.json",
                         "unprotected_model.json", "unprotected_model.json.manifest.json"]
        # the emitted documents round trip into working probe models
        for name in ("protected_model.json", "unprotected_model.json"):
            ProbeModel.from_json_dict(json.loads((mdir / name).read_text()))

        csv_path = tmp_path / "sweep.csv"
        rc, _ = run(capsys, ["sweep",
                             "--protected", str(mdir / "protected_model.json"),
                             "--unprotected", str(mdir / "unprotected_model.json"),
                             "--tgrid", "0.5:2.0:4", "--out", str(csv_path)])
        assert rc == EXIT_OK
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "t,qfi_protected,qfi_unprotected,coherence,crlb"
        assert len(lines) == 5
        for line in lines[1:]:
            t, qp, qu, coh, bound = (float(x) for x in line.split(","))
            assert qp == pytest.approx(t * t / 4.0, rel=1e-6)
            assert qu == pytest.approx(t * t * math.exp(-4.0 * t), rel=1e-5)
            assert coh == pytest.approx(0.5, abs=1e-9)
            assert bound == pytest.approx(1.0 / qp, rel=1e-9)

    def test_bad_grid_is_usage_error(self, capsys, tmp_path):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(unprotected_model().to_json_dict()))
        rc, _ = run(capsys, ["sweep", "--protected", str(model_path),
                             "--unprotected", str(model_path),
                             "--tgrid", "1:2", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("grid", ["nan:2:3", "0.5:inf:3", "nan:2:3log"])
    def test_non_finite_grid_is_usage_error(self, capsys, tmp_path, grid):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(unprotected_model().to_json_dict()))
        csv_path = tmp_path / "x.csv"
        rc = dispatch(["sweep", "--protected", str(model_path), "--unprotected", str(model_path),
                       "--tgrid", grid, "--out", str(csv_path)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("dressedmet: ")
        assert not csv_path.exists()

    def test_oversized_grid_is_usage_error(self, capsys, tmp_path, monkeypatch):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(unprotected_model().to_json_dict()))
        csv_path = tmp_path / "x.csv"
        forbid_grids(monkeypatch)
        rc = dispatch(["sweep", "--protected", str(model_path), "--unprotected", str(model_path),
                       "--tgrid", "1:2:100000000000", "--out", str(csv_path)])
        assert rc == EXIT_USAGE
        assert "2 to 100000 points" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_overflowing_step_count_is_usage_error(self, capsys, tmp_path):
        # 1e302 steps at dt 0.01 used to overflow the int64 step total
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(unprotected_model().to_json_dict()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"t_final": 1.0, "dt": 0.01}')
        csv_path = tmp_path / "x.csv"
        rc = dispatch(["sweep", "--protected", str(model_path), "--unprotected", str(model_path),
                       "--tgrid", "1e-300:1e300:3log", "--config", str(cfg_path),
                       "--out", str(csv_path)])
        assert rc == EXIT_USAGE
        assert "past int64" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_jobs_flag_is_gone(self, capsys, tmp_path):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(unprotected_model().to_json_dict()))
        with pytest.raises(SystemExit) as exc:
            dispatch(["sweep", "--protected", str(model_path),
                      "--unprotected", str(model_path), "--tgrid", "1:2:2",
                      "--jobs", "2", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == EXIT_USAGE


class TestTimeGrid:
    def test_linear(self):
        assert np.allclose(_parse_tgrid("0:1:5"), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_geometric(self):
        assert np.allclose(_parse_tgrid("1:100:3log"), [1.0, 10.0, 100.0])

    @pytest.mark.parametrize("spec", [
        "1:2", "a:b:3", "2:1:5", "1:2:1", "0:10:4log",
    ])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ValidationError):
            _parse_tgrid(spec)

    def test_the_largest_grid_is_accepted(self):
        assert len(_parse_tgrid("1:2:100000log")) == 100000

    @pytest.mark.parametrize("spec", ["1:2:100001", "1:2:100000000000", "1:2:100000000000log"])
    def test_rejects_more_points_than_the_bound(self, spec, monkeypatch):
        # a grid built past a missing check fails here instead of allocating 745 GiB
        forbid_grids(monkeypatch)
        with pytest.raises(ValidationError, match="2 to 100000 points"):
            _parse_tgrid(spec)


class TestNvDemo:
    def test_table_prints_markdown(self, capsys):
        rc, out = run(capsys, ["nv-demo", "--table", "--restarts", "20"])
        assert rc == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "| noise | ancilla | achievable | witness |"
        assert len(lines) == 6

    # a regime with a single cell answers for both ancilla choices
    @pytest.mark.parametrize("regime, ancilla, cell_ancilla, achievable", [
        ("dephasing", False, False, True),
        ("dephasing", True, False, True),
        ("relaxation", False, False, False),
        ("relaxation", True, True, True),
        ("thermal", False, True, False),
        ("thermal", True, True, False),
    ])
    def test_regime_cells(self, capsys, regime, ancilla, cell_ancilla, achievable):
        argv = ["nv-demo", "--regime", regime, "--restarts", "20"]
        rc, out = run(capsys, argv + ["--ancilla"] * ancilla)
        assert rc == EXIT_OK
        cell = json.loads(out)
        assert (cell["regime"], cell["ancilla"]) == (regime, cell_ancilla)
        assert cell["achievable"] is achievable
        if (regime, ancilla) == ("relaxation", False):
            assert cell["witness"]["search_floor"] == pytest.approx(2.0, abs=1e-6)

    def test_needs_a_mode(self, capsys):
        rc, _ = run(capsys, ["nv-demo"])
        assert rc == EXIT_USAGE


class TestExitDiscipline:
    def test_unknown_command_is_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_flag_is_usage(self, capsys, ops):
        with pytest.raises(SystemExit) as exc:
            dispatch(["check", "--generator", ops["szsq"]])
        assert exc.value.code == EXIT_USAGE

    def test_missing_input_file_is_usage(self, capsys):
        rc, _ = run(capsys, ["check", "--criterion", "thm1",
                             "--generator", "/nonexistent.json"])
        assert rc == EXIT_USAGE

    def test_version_exits_clean(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["--version"])
        assert exc.value.code == 0

    def test_console_script_is_installed(self):
        # An installed wrapper is run as it is.  In a plain checkout there is
        # none, so the entry point declared in pyproject.toml is run the way
        # the setuptools wrapper runs it: sys.exit(attr()).
        script = shutil.which("dressedmet")
        if script:
            argv = [script, "--version"]
        else:
            module, _, attr = _pyproject_string("project.scripts", "dressedmet").partition(":")
            code = (f"import sys; from {module} import {attr.split('.')[0]}; "
                    f"sys.exit({attr}())")
            argv = [sys.executable, "-c", code, "--version"]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()
        assert proc.stdout.strip() == dressedmet.__version__
        assert proc.stdout.strip() == _pyproject_string("project", "version")

    def test_python_dash_m_runs_the_cli(self):
        proc = subprocess.run([sys.executable, "-m", "dressedmet", "--version"],
                              capture_output=True, text=True, env=_child_env(),
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == dressedmet.__version__
