"""Tests for the command-line plumbing: config schema, artifacts, exits.

Commands run in-process through main(argv); profile solves use a reduced
grid so the whole file stays fast.  Byte-stability assertions read the
artifact files twice, they do not compare against frozen blobs.
"""

import json
import os

import pytest

import nls_implosion.cli as cli
from nls_implosion.cli import (
    EXIT_ABORT,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_SOLVER,
    ConfigError,
    RunConfig,
    main,
)
from nls_implosion.report import VerificationReport


FAST = ["--n-points", "1024"]


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRunConfig:
    def test_roundtrip_lossless(self, tmp_path):
        cfg = RunConfig(r=2.03, emit=["json"], energy={"m_prime": 3},
                        window=[2.02, 2.066], ds=1e-4)
        path = str(tmp_path / "run.json")
        cfg.to_file(path)
        assert RunConfig.from_file(path) == cfg

    def test_unknown_keys_rejected(self, tmp_path):
        path = str(tmp_path / "run.json")
        with open(path, "w") as fh:
            json.dump({"r": 2.01, "cfl_number": 0.5}, fh)
        with pytest.raises(ConfigError, match="cfl_number"):
            RunConfig.from_file(path)

    def test_bad_emit_rejected(self):
        with pytest.raises(ConfigError, match="emit"):
            RunConfig(emit=["csv", "parquet"])

    def test_format_version_pinned(self):
        with pytest.raises(ConfigError, match="format_version"):
            RunConfig(format_version=99)

    def test_hash_tracks_content(self):
        assert RunConfig().config_hash != RunConfig(r=2.02).config_hash
        assert RunConfig().config_hash == RunConfig().config_hash

    def test_flags_override_file(self, tmp_path):
        path = str(tmp_path / "run.json")
        RunConfig(r=2.03, n_points=512).to_file(path)
        args = cli.build_parser().parse_args(
            ["profile", "--config", path, "--r", "2.01"])
        cfg = cli._effective_config(args)
        assert cfg.r == 2.01          # flag wins
        assert cfg.n_points == 512    # file survives where no flag given

    def test_malformed_file(self, tmp_path):
        path = str(tmp_path / "run.json")
        with open(path, "w") as fh:
            fh.write("r = 2.01\n")
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig.from_file(path)


class TestProfileCommand:
    def test_writes_artifacts_and_prints_residual(self, tmp_path, capsys):
        code = main(["profile", "--r", "2.01", *FAST,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "residual sup" in out
        for name in ("profile_r2.01.csv", "profile_r2.01.json",
                     "profile_r2.01.log.json"):
            assert (tmp_path / name).exists()
        head = read(tmp_path / "profile_r2.01.csv").decode().splitlines()
        assert head[0] == "# format_version: 1"
        assert head[1].startswith("# config_hash: ")

    def test_r_out_of_window(self, tmp_path, capsys):
        code = main(["profile", "--r", "2.5", "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        assert "r outside (1, r*)" in capsys.readouterr().err

    def test_byte_stable_across_reruns(self, tmp_path):
        argv = ["profile", "--r", "2.01", *FAST, "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        first = {n: read(tmp_path / n) for n in os.listdir(tmp_path)}
        assert main(argv) == EXIT_OK
        second = {n: read(tmp_path / n) for n in os.listdir(tmp_path)}
        assert first == second


class TestVerifyCommand:
    def test_reference_r_all_pass(self, tmp_path, capsys):
        code = main(["verify", "--r", "2.01", *FAST,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        assert "ALL PASS" in capsys.readouterr().out
        report = json.loads(read(tmp_path / "verify_r2.01.json"))
        assert report["artifact"]["all_passed"] is True
        assert report["format_version"] == 1

    def test_sign_table(self, tmp_path):
        code = main(["verify", "--r", "2.05", *FAST, "--sample-r", "5",
                     "--window", "2.02:2.066", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        lines = read(tmp_path / "verify_signs_r2.05.csv").decode().splitlines()
        assert lines[2] == "r,W1_plus_Z1,N_W_Ps,both_negative"
        assert len(lines) == 3 + 5
        assert all(row.endswith(",1") for row in lines[3:])

    def test_window_policy(self, tmp_path, capsys):
        # below the near-r* window the outgoing-side checks are skipped;
        # the exit code follows the configured policy
        lenient = main(["verify", "--r", "1.89", *FAST,
                        "--out-dir", str(tmp_path)])
        assert lenient == EXIT_OK
        strict = main(["verify", "--r", "1.89", *FAST, "--require-window",
                       "--out-dir", str(tmp_path)])
        assert strict == EXIT_CHECK_FAILED
        assert "skipped" in capsys.readouterr().err

    def test_precision_gate(self, tmp_path, monkeypatch, capsys):
        # a sampled margin that keeps moving under refinement is a
        # precision-consistency failure, not a pass or a check failure
        def jittery(params, table, n_samples=512, **kw):
            rep = VerificationReport(params={"r": params.r})
            rep.add("partII_fake", "margin depends on sampling",
                    f"{n_samples}", 1.0 if n_samples == 512 else 2.0)
            return rep

        monkeypatch.setattr(cli, "verify_all", jittery)
        code = main(["verify", "--r", "2.01", *FAST,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_PRECISION
        assert "precision-consistency" in capsys.readouterr().err


SIM_FAST = ["--n-points", "1024", "--n", "256", "--s-span", "0.1",
            "--n-samples", "3"]


class TestSimulateCommand:
    def test_default_run(self, tmp_path, capsys):
        code = main(["simulate", "--r", "2.01", *SIM_FAST,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        assert "max |S~/S_d|" in capsys.readouterr().out
        rows = [line.split(",") for line in
                read(tmp_path / "simulate_r2.01.csv").decode().splitlines()
                if not line.startswith("#")]
        header, data = rows[0], rows[1:]
        linf = [float(row[header.index("Linf_Stilde")]) for row in data]
        assert all(v <= 2.0 * linf[0] for v in linf)
        manifest = json.loads(read(tmp_path / "simulate_r2.01.manifest.json"))
        assert "wall_time" not in manifest["artifact"]
        assert manifest["artifact"]["run_config"]["n"] == 256

    def test_quantum_ablation_changes_only_quantum_column(self, tmp_path):
        def data_rows(sub):
            out = tmp_path / sub
            assert main(["simulate", "--r", "2.01", *SIM_FAST,
                         "--no-quantum-pressure" if sub == "off"
                         else "--quantum-pressure",
                         "--out-dir", str(out)]) == EXIT_OK
            text = read(out / "simulate_r2.01.csv").decode()
            return [l for l in text.splitlines() if not l.startswith("#")]

        on, off = data_rows("on"), data_rows("off")
        # at the default s0 the quantum coefficient sits at ~ e^{-200}:
        # the ablation changes no column beyond tolerance, and the
        # quantum term is still reported in its own column
        header = on[0].split(",")
        assert "quantum_sup" in header
        for row_on, row_off in zip(on[1:], off[1:]):
            a = [float(v) for v in row_on.split(",")]
            b = [float(v) for v in row_off.split(",")]
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)

    def test_abort_dumps_last_good(self, tmp_path, capsys):
        code = main(["simulate", "--r", "2.01", *SIM_FAST, "--ds", "0.05",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_ABORT
        assert "aborted" in capsys.readouterr().err
        snap = json.loads(read(tmp_path / "simulate_r2.01.lastgood.json"))
        assert snap["artifact"]["kind"] == "fieldset"
        partial = read(tmp_path / "simulate_r2.01.partial.csv").decode()
        assert partial.count("\n") >= 4   # stamp + header + first sample

    def test_overflowing_quantum_prefactor_below_r2(self, tmp_path, capsys):
        # at r = 1.9 and s0 = 1e4, exp((4 - 2r) s) overflows: a domain
        # error before any step, not a CFL abort with a snapshot
        code = main(["simulate", "--r", "1.9", *SIM_FAST,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "overflows at r = 1.9, s0 = 10000" in err
        assert "aborted" not in err
        assert not (tmp_path / "simulate_r1.9.lastgood.json").exists()
        assert not list(tmp_path.glob("simulate_*"))

    def test_energy_override_and_unknown_key(self, tmp_path, capsys):
        code = main(["simulate", "--r", "2.01", *SIM_FAST,
                     "--energy", "delta_low=0.002",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        manifest = json.loads(read(tmp_path / "simulate_r2.01.manifest.json"))
        assert manifest["artifact"]["config"]["delta_low"] == 0.002
        code = main(["simulate", "--r", "2.01", *SIM_FAST,
                     "--energy", "step_size=0.1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        assert "energy config" in capsys.readouterr().err


class TestSweepCommand:
    def test_values_parsing(self):
        assert cli._parse_values("2.01,2.03") == [2.01, 2.03]
        lin = cli._parse_values("2.0:2.1:3")
        assert lin == pytest.approx([2.0, 2.05, 2.1])

    def test_sweep_summary(self, tmp_path):
        code = main(["sweep", "--values", "2.01,2.03", *FAST,
                     "--verify-samples", "128", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        lines = read(tmp_path / "sweep.csv").decode().splitlines()
        assert lines[2] == "r,ok,all_passed,min_margin,checks"
        assert len(lines) == 3 + 2
        rows = json.loads(read(tmp_path / "sweep.json"))["artifact"]
        assert all(row["all_passed"] for row in rows)

    def test_out_of_range_value(self, tmp_path, capsys):
        code = main(["sweep", "--values", "2.01,2.5",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        assert "r outside" in capsys.readouterr().err

    def test_worker_env(self, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "3")
        assert cli._workers() == 3
        monkeypatch.delenv(cli.WORKERS_ENV)
        assert cli._workers() == 1


class TestPhasePortraitCommand:
    def test_curves_emitted(self, tmp_path):
        code = main(["phase-portrait", "--r", "2.01", "--curve-samples",
                     "64", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        lines = read(tmp_path / "phase_portrait_r2.01.csv").decode().splitlines()
        assert lines[2] == "curve,param,W,Z"
        names = {line.split(",")[0] for line in lines[3:]}
        payload = json.loads(read(tmp_path / "phase_portrait_r2.01.json"))
        assert sorted(names) == payload["artifact"]["curves"]
        assert "P_s" in payload["artifact"]["special_points"]

    def test_deterministic(self, tmp_path):
        argv = ["phase-portrait", "--r", "2.01", "--curve-samples", "64",
                "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        first = read(tmp_path / "phase_portrait_r2.01.csv")
        assert main(argv) == EXIT_OK
        assert first == read(tmp_path / "phase_portrait_r2.01.csv")


class TestMainPlumbing:
    def test_config_error_exit(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"no_such_key": 1}, fh)
        code = main(["profile", "--config", path])
        assert code == EXIT_SOLVER
        assert "configuration error" in capsys.readouterr().err

    def test_emit_selection(self, tmp_path):
        code = main(["profile", "--r", "2.01", *FAST, "--emit", "json",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        assert not (tmp_path / "profile_r2.01.csv").exists()
        assert (tmp_path / "profile_r2.01.json").exists()
