"""Tests for the command-line plumbing: config schema, artifacts, exits.

Commands run in-process through main(argv); profile solves use a reduced
grid so the whole file stays fast.  Byte-stability assertions read the
artifact files twice, they do not compare against frozen blobs.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import nls_implosion.cli as cli
from nls_implosion import dynamics_lab, profile_solver, repulsivity_verifier
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
from nls_implosion.phase_portrait import R_STAR
from nls_implosion.report import VerificationReport
from nls_implosion.selfsimilar_fields import FieldSet, RadialGrid


FAST = ["--n-points", "1024"]


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRunConfig:
    def test_roundtrip_lossless(self, tmp_path):
        cfg = RunConfig(r=2.03, emit=["json"], energy={"m_prime": 3},
                        window=[2.02, 2.066], ds=1e-4)
        path = tmp_path / "run.json"
        path.write_text(cfg.to_json() + "\n")
        assert RunConfig.from_file(str(path)) == cfg

    def test_unknown_keys_rejected(self, tmp_path):
        path = str(tmp_path / "run.json")
        with open(path, "w") as fh:
            json.dump({"r": 2.01, "cfl_number": 0.5}, fh)
        with pytest.raises(ConfigError, match="cfl_number"):
            RunConfig.from_file(path)

    def test_seed_key_rejected(self, tmp_path):
        # the seed was parsed and hashed but never used; it is no key now
        path = str(tmp_path / "run.json")
        with open(path, "w") as fh:
            json.dump({"r": 2.01, "seed": 0}, fh)
        with pytest.raises(ConfigError, match="seed"):
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
        path = tmp_path / "run.json"
        path.write_text(RunConfig(r=2.03, n_points=512).to_json() + "\n")
        args = cli.build_parser().parse_args(
            ["profile", "--config", str(path), "--r", "2.01"])
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

    def test_json_state_rebuilds_the_csv_bit_for_bit(self, tmp_path):
        # the JSON table holds the orbit and the grid, no column; the
        # eleven columns of the CSV, each in %.17g, follow from them on load
        assert main(["profile", "--r", "2.01", *FAST,
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        table = json.loads(read(tmp_path / "profile_r2.01.json"))["artifact"]
        assert "columns" not in table
        assert sorted(table["orbit"]) == ["back", "fwd", "left", "seams",
                                          "series"]
        csv = read(tmp_path / "profile_r2.01.csv").decode()
        body = "".join(line for line in csv.splitlines(keepends=True)
                       if not line.startswith("#"))
        loaded = profile_solver.ProfileTable.from_payload(table)
        assert loaded.to_csv() == body

    def test_reaches_near_r_star(self, tmp_path):
        # the left march's D_Z root sits at xi = 2.51 here; its span ends
        # at the event, not at a fixed xi
        assert main(["profile", "--r", "2.07", *FAST,
                     "--out-dir", str(tmp_path)]) == EXIT_OK

    def test_byte_stable_across_reruns(self, tmp_path):
        argv = ["profile", "--r", "2.01", *FAST, "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        first = {n: read(tmp_path / n) for n in os.listdir(tmp_path)}
        assert main(argv) == EXIT_OK
        second = {n: read(tmp_path / n) for n in os.listdir(tmp_path)}
        assert first == second


def jittery(params, table, n_samples=512, **kw):
    """A check_partII whose one margin doubles when the samples double."""
    rep = VerificationReport(params={"r": params.r})
    rep.add("partII_fake", "margin depends on sampling", f"{n_samples}",
            n_samples / 128)
    return rep


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
        monkeypatch.setattr(repulsivity_verifier, "check_partII", jittery)
        code = main(["verify", "--r", "2.01", *FAST,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_PRECISION
        assert "precision-consistency" in capsys.readouterr().err

    def test_sign_disagreement_in_the_sign_table_exits_3(self, tmp_path,
                                                         capsys):
        # next to r* the factored and extended-precision W1 + Z1 disagree
        # in sign; the table is not written, nor is the report
        top = repr(math.nextafter(R_STAR, 0))
        code = main(["verify", "--r", "2.01", *FAST, "--sample-r", "2",
                     "--window", f"2.06:{top}", "--out-dir", str(tmp_path)])
        assert code == EXIT_PRECISION
        err = capsys.readouterr().err
        assert "precision-consistency failure: W1+Z1:" in err
        assert "disagree in sign" in err
        assert list(tmp_path.iterdir()) == []

    def test_short_xi_range_certifies_the_same_origin_margin(self, tmp_path,
                                                             capsys):
        # w0 is the orbit's own e^(-left_origin), not a fit on the grid
        # nodes near R = 0, so xi_min = -2.5 (no node below R = 0.08) still
        # certifies Part I, with the origin margin of the default range
        margins = []
        for tag, xi_range in (("short", ["--xi-range=-2.5:7"]),
                              ("default", [])):
            out = tmp_path / tag
            code = main(["verify", "--r", "2.01", *FAST, *xi_range,
                         "--out-dir", str(out)])
            assert code == EXIT_OK
            assert "ALL PASS" in capsys.readouterr().out
            checks = json.loads(read(out / "verify_r2.01.json")
                                )["artifact"]["checks"]
            (margin,) = [c["margin"] for c in checks
                         if c["name"] == "partI_origin_coefficient"]
            margins.append(margin)
        assert margins[0] == margins[1]


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

    def test_abort_snapshot_reads_back_on_its_grid(self, tmp_path):
        # the snapshot names its stretched grid instead of a uniform h, and
        # reads back as a FieldSet on the same nodes
        assert main(["simulate", "--r", "2.01", *SIM_FAST, "--ds", "0.05",
                     "--out-dir", str(tmp_path)]) == EXIT_ABORT
        snap = json.loads(read(tmp_path / "simulate_r2.01.lastgood.json"))
        frame = snap["artifact"]["frame"]
        assert "h" not in frame
        assert frame["grid"]["kind"] == "sinh"
        assert frame["grid"]["c"] == dynamics_lab.SIMULATE_GRID_C
        assert frame["grid"]["n"] == 256
        back = FieldSet.from_payload(snap["artifact"])
        grid = RadialGrid.sinh(256, 30.0, dynamics_lab.SIMULATE_GRID_C)
        np.testing.assert_array_equal(back.R, grid.R)
        assert back.grid.h == grid.h
        assert back.s == frame["s"]
        assert back.Psi.tolist() == snap["artifact"]["columns"]["Psi"]
        assert back.S.tolist() == snap["artifact"]["columns"]["S"]

    def test_overflowing_quantum_prefactor_below_r2(self, tmp_path, capsys):
        # at r = 1.9 and s0 = 1e4, exp((4 - 2r) s) overflows: a domain
        # error before any step, not a CFL abort with a snapshot
        code = main(["simulate", "--r", "1.9", *SIM_FAST,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "overflows at r = 1.9, s0 = 10000" in err
        assert "turn quantum pressure off" not in err
        assert "aborted" not in err
        assert not (tmp_path / "simulate_r1.9.lastgood.json").exists()
        assert not list(tmp_path.glob("simulate_*"))

    def test_overflowing_prefactor_refused_with_quantum_off(self, tmp_path,
                                                           capsys):
        # every sample's energies evaluate exp((4 - 2r) s) whatever the
        # flag, so the run is refused instead of writing inf columns
        code = main(["simulate", "--r", "1.9", *SIM_FAST,
                     "--no-quantum-pressure", "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "overflows at r = 1.9, s0 = 10000" in err
        assert "turn quantum pressure off" not in err
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

    def test_energy_without_equals_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--energy", "foo", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []


def _written(out, prefix):
    """The bytes of every file in `out` whose name starts with `prefix`."""
    return {n: read(out / n) for n in sorted(os.listdir(out))
            if n.startswith(prefix)}


def _add_U_nls(text):
    """The stamped profile artifact `text` with a U_nls column, one that
    the orbit alone defines, next to the orbit's pieces."""
    wrapped = json.loads(text)
    wrapped["artifact"]["orbit"]["U_nls"] = [0.0]
    return json.dumps(wrapped, indent=2, sort_keys=True) + "\n"


def _set_seams(text, seams):
    """The stamped profile artifact `text` with its orbit's seams set."""
    wrapped = json.loads(text)
    wrapped["artifact"]["orbit"]["seams"] = seams
    return json.dumps(wrapped, indent=2, sort_keys=True) + "\n"


def _drop(*path):
    """A tamper that drops the entry at `path` of the stamped profile
    artifact's payload."""
    def tamper(text):
        wrapped = json.loads(text)
        entries = wrapped["artifact"]
        for key in path[:-1]:
            entries = entries[key]
        del entries[path[-1]]
        return json.dumps(wrapped, indent=2, sort_keys=True) + "\n"
    return tamper


def _nan_back_origin(text):
    """The stamped profile artifact `text` with the backward march's
    coordinate of P_s not a number."""
    wrapped = json.loads(text)
    wrapped["artifact"]["orbit"]["back"]["origin"] = float("nan")
    return json.dumps(wrapped, indent=2, sort_keys=True) + "\n"


class TestProfileReuse:
    """`verify` and `simulate` read the profile_<tag>.json whose table key
    (the solve's settings and the build) is theirs instead of solving
    again."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = profile_solver.solve_profile

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(profile_solver, "solve_profile", counting)
        return calls

    @pytest.mark.parametrize("command, flags", [
        ("verify", []),
        ("verify", ["--verify-samples", "128", "--sample-r", "2"]),
        ("simulate", []),
        ("simulate", ["--n-samples", "2"]),
        # another grid: the stored orbit, tabulated on it
        ("verify", ["--n-points", "2048"]),
        ("simulate", ["--n-points", "2048"]),
    ])
    def test_reads_the_profile_of_its_table_key(self, command, flags,
                                                tmp_path, monkeypatch,
                                                solves):
        # simulate's settings sit in a config file that profile reads too;
        # the flags are settings profile does not see, n_points among them,
        # since it does not enter the table key.  The out-dir is the
        # same relative path in both working directories, so the stamps
        # agree and the artifacts can be compared byte for byte
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n_points": 1024, "n": 256,
                                      "s_span": 0.1, "n_samples": 3}))
        argv = ["--r", "2.01", "--config", str(config), "--out-dir", "out"]
        for where in ("after", "fresh"):
            (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / "after")
        assert main(["profile", *argv]) == EXIT_OK
        assert len(solves) == 1
        assert main([command, *argv, *flags]) == EXIT_OK
        assert len(solves) == 1
        monkeypatch.chdir(tmp_path / "fresh")
        assert main([command, *argv, *flags]) == EXIT_OK
        assert len(solves) == 2
        reused = _written(tmp_path / "after" / "out", command)
        assert reused and reused == _written(tmp_path / "fresh" / "out",
                                             command)

    def test_table_key_covers_exactly_the_solve_settings(self):
        # n_points only tabulates the orbit, so it keeps the key
        base = RunConfig(n_points=1024)
        others = RunConfig(n_points=2048, out_dir="elsewhere",
                           emit=["json"], s_span=0.5, n=256, n_samples=3,
                           quantum_pressure=False, ds=0.01,
                           energy={"delta_low": 0.002}, sample_r=3,
                           window=[1.95, 2.0], require_window=True,
                           verify_samples=128, curve_samples=8)
        assert cli._table_key(others) == cli._table_key(base)
        for change in ({"r": 2.02}, {"xi_min": -5.0}, {"xi_max": 6.0},
                       {"tol": 1e-11}):
            assert cli._table_key(base.override(change)) \
                != cli._table_key(base), change

    @pytest.mark.parametrize("profile_flags, verify_flags", [
        ([], ["--tol", "1e-11"]),                # another orbit
        (["--emit", "csv"], ["--emit", "csv"]),  # same one, no JSON written
    ])
    def test_other_key_or_no_json_solves_again(self, profile_flags,
                                               verify_flags, tmp_path,
                                               solves):
        argv = ["--r", "2.01", *FAST, "--out-dir", str(tmp_path)]
        assert main(["profile", *argv, *profile_flags]) == EXIT_OK
        assert main(["verify", *argv, *verify_flags]) == EXIT_OK
        assert len(solves) == 2

    def test_build_ignores_scipy(self, monkeypatch):
        # the solve calls no scipy, so a scipy upgrade keeps every table
        import scipy
        cli._build_id.cache_clear()
        before = cli._build_id()
        with monkeypatch.context() as m:
            m.setattr(scipy, "__version__", "0.0.0")
            cli._build_id.cache_clear()
            after = cli._build_id()
        cli._build_id.cache_clear()
        assert after == before

    def test_file_of_another_build_solves_again(self, tmp_path, monkeypatch,
                                                solves):
        # a profile written by another build (other source, or other
        # library versions) may hold another table under the same settings
        argv = ["--r", "2.01", *FAST, "--out-dir", str(tmp_path)]
        assert main(["profile", *argv]) == EXIT_OK
        monkeypatch.setattr(cli, "_build_id", lambda: "another build")
        assert main(["verify", *argv]) == EXIT_OK
        assert len(solves) == 2

    @pytest.mark.parametrize("tamper, message", [
        pytest.param(_add_U_nls,
                     "orbit entries ['U_nls'] are not part of a schema-5 "
                     "table",
                     id="extra-column"),
        pytest.param(lambda text: text[:1000], "JSONDecodeError",
                     id="truncated"),
        pytest.param(_drop("tol"), "DomainError: table key 'tol' is missing",
                     id="missing-tol"),
        pytest.param(_drop("grid", "n_points"),
                     "DomainError: table grid key 'n_points' is missing",
                     id="missing-n-points"),
        pytest.param(_drop("orbit", "left", "origin"),
                     "DomainError: orbit left key 'origin' is missing",
                     id="missing-origin"),
        pytest.param(lambda text: _set_seams(text, [-0.2]),
                     "ValueError: not enough values to unpack",
                     id="one-seam"),
        # the invariants of a solve hold on load: a NaN piece is refused,
        # not certified with NaN margins
        pytest.param(_nan_back_origin,
                     "ConsistencyError: D_W lost positivity on the computed "
                     "orbit", id="nan-origin"),
    ])
    def test_refused_artifact_exits_2_and_profile_rewrites_it(
            self, tamper, message, tmp_path, capsys, solves):
        argv = ["--r", "2.01", *FAST, "--out-dir", str(tmp_path)]
        assert main(["profile", *argv]) == EXIT_OK
        path = tmp_path / "profile_r2.01.json"
        pristine = read(path)
        path.write_text(tamper(pristine.decode()))
        capsys.readouterr()
        # a bad file is reported, not solved over
        assert main(["verify", *argv]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert f"cannot use {path}" in err and message in err
        # the file is at fault, so the message says how to be rid of it
        assert err.rstrip().endswith("; delete it to solve again")
        assert not list(tmp_path.glob("verify_*"))
        assert len(solves) == 1
        # profile never reads its own output, so it restores the file
        assert main(["profile", *argv]) == EXIT_OK
        assert read(path) == pristine

    def test_grid_without_a_node_per_march_refused_without_a_solve(
            self, tmp_path, capsys, solves):
        # the stored orbit on a grid of three nodes leaves the left march
        # none: the refusal a solve on that grid gives, named, no traceback,
        # and no advice to delete a file that a solve could not replace
        argv = ["--r", "2.01", *FAST, "--out-dir", str(tmp_path)]
        assert main(["profile", *argv]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", *argv, "--n-points", "3"]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert ("GridError: n_points = 3 on [-6.0, 7.0] leaves the left "
                "march (xi < -0.2)") in err
        assert "delete it" not in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("verify_*"))
        assert len(solves) == 1

    @pytest.mark.parametrize("key", ["current", "foreign"])
    def test_schema_2_file_refused_under_its_key_else_solved_over(
            self, key, tmp_path, capsys, solves):
        # the table of an older build, decimal columns under schema 2: its
        # key never matches this build's, so only a file moved under the
        # current key is read, and then refused by name
        argv = ["--r", "2.01", *FAST, "--out-dir", str(tmp_path)]
        assert main(["profile", *argv]) == EXIT_OK
        path = tmp_path / "profile_r2.01.json"
        wrapped = json.loads(read(path))
        table = wrapped["artifact"]
        loaded = profile_solver.ProfileTable.from_payload(table)
        del table["grid"], table["orbit"]
        table["schema_version"] = 2
        table["columns"] = {
            name: loaded._column(name).tolist()
            for name in ("xi", "W", "Z", "dR_Ubar", "dR_Sbar")}
        if key == "foreign":
            wrapped["table_key"] = "0" * 16
        path.write_text(json.dumps(wrapped, indent=2, sort_keys=True) + "\n")
        capsys.readouterr()
        if key == "current":
            assert main(["verify", *argv]) == EXIT_SOLVER
            err = capsys.readouterr().err
            assert f"cannot use {path}" in err
            assert "unsupported schema version 2" in err
            assert not list(tmp_path.glob("verify_*"))
            assert len(solves) == 1
        else:
            assert main(["verify", *argv]) == EXIT_OK
            assert len(solves) == 2

    def test_two_processes(self, tmp_path):
        # the workflow as run from a shell: profile, then verify in a new
        # process, against verify alone in an empty directory
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src}

        def run(where, command):
            (tmp_path / where).mkdir(exist_ok=True)
            done = subprocess.run(
                [sys.executable, "-m", "nls_implosion.cli", command,
                 "--r", "2.01", *FAST, "--out-dir", "out"],
                cwd=tmp_path / where, env=env, capture_output=True,
                text=True, timeout=300)
            assert done.returncode == EXIT_OK, done.stderr
            return done.stdout

        run("after", "profile")
        reused, fresh = run("after", "verify"), run("fresh", "verify")
        assert reused == fresh
        written = _written(tmp_path / "after" / "out", "verify_")
        assert written and written == _written(tmp_path / "fresh" / "out",
                                               "verify_")


#: in a fresh interpreter, the solve path (profile, verify, sweep and
#: phase-portrait), then simulate, then the dissipativity probe and the
#: blow-up exponent in process; prints the scipy modules loaded after each
#: of the three
IMPORT_GRAPH = """
import json, sys
from nls_implosion import cli, dynamics_lab, profile_solver
from nls_implosion.phase_portrait import ProfileParams

out = sys.argv[1]
fast = ["--n-points", "1024", "--out-dir", out]
for argv in (["profile", "--r", "2.01"], ["verify", "--r", "2.01"],
             ["sweep", "--values", "2.01,2.03"],
             ["phase-portrait", "--r", "2.01", "--curve-samples", "8"]):
    assert cli.main([*argv, *fast]) == 0, argv


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


solve = scipy_modules()
assert cli.main(["simulate", "--r", "2.01", "--n", "256", "--s-span",
                 "0.05", "--n-samples", "3", *fast]) == 0
simulate = scipy_modules()
table = profile_solver.solve_profile(ProfileParams(r=2.01), n_points=1024)
dynamics_lab.dissipativity_probe(table, trials=4, n=257, n_modes=4)
dynamics_lab.blowup_exponent(table, 4, n_grid=129)
print(json.dumps([solve, simulate, scipy_modules()]))
"""


class TestImportGraph:
    def test_solve_path_imports_no_scipy(self, tmp_path):
        # the package uses no scipy at run time: a scipy import anywhere
        # costs the command that reaches it about half a second
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_GRAPH, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        solve, simulate, diagnostics = json.loads(
            done.stdout.splitlines()[-1])
        assert solve == simulate == diagnostics == []


class TestSweepCommand:
    def test_values_parsing(self, tmp_path):
        assert cli._parse_values("2.01,2.03") == [2.01, 2.03]
        lin = cli._parse_values("2.0:2.1:3")
        assert lin == pytest.approx([2.0, 2.05, 2.1])
        assert cli._parse_values("2.0:2.05:1") == [2.0]
        for count in ("0", "-1"):
            with pytest.raises(argparse.ArgumentTypeError, match="count"):
                cli._parse_values(f"2.0:2.05:{count}")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--values", "2.0:2.05:0",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_sweep_summary(self, tmp_path):
        # at r = 1.02 <= r*/2 there is no outgoing anchor, so its row fails
        code = main(["sweep", "--values", "2.01,1.02", *FAST,
                     "--verify-samples", "128", "--out-dir", str(tmp_path)])
        assert code == EXIT_CHECK_FAILED
        lines = read(tmp_path / "sweep.csv").decode().splitlines()
        assert lines[2] == "r,ok,all_passed,min_margin,checks"
        assert len(lines) == 3 + 2
        rows = json.loads(read(tmp_path / "sweep.json"))["artifact"]
        assert [row["all_passed"] for row in rows] == [False, True]

    def test_sweep_row_passes_exactly_when_verify_exits_0(self, tmp_path,
                                                          monkeypatch,
                                                          capsys):
        # at r = 2.03 a margin moves under refinement
        check_partII = repulsivity_verifier.check_partII
        monkeypatch.setattr(
            repulsivity_verifier, "check_partII",
            lambda params, *args, **kw: (jittery if params.r == 2.03
                                         else check_partII)(params, *args,
                                                            **kw))
        settings = [*FAST, "--verify-samples", "128"]
        assert main(["verify", "--r", "2.01", *settings,
                     "--out-dir", str(tmp_path / "v")]) == EXIT_OK
        assert main(["verify", "--r", "2.03", *settings,
                     "--out-dir", str(tmp_path / "v")]) == EXIT_PRECISION
        moves = ("margin of partII_fake moves from "
                 "1.000000e+00 to 2.000000e+00 under refinement")
        assert moves in capsys.readouterr().err
        code = main(["sweep", "--values", "2.01,2.03", *settings,
                     "--out-dir", str(tmp_path / "s")])
        assert code == EXIT_CHECK_FAILED
        assert "1 passed, 1 failed" in capsys.readouterr().out
        passed, failed = json.loads(
            read(tmp_path / "s" / "sweep.json"))["artifact"]
        assert passed["all_passed"] and passed["checks"] == 22
        verify = json.loads(read(tmp_path / "v" / "verify_r2.01.json"))
        assert passed["min_margin"] == min(
            c["margin"] for c in verify["artifact"]["checks"])
        assert not failed["ok"] and not failed["all_passed"]
        assert failed["error"] == f"ConsistencyError: {moves}"

    def test_sweep_honours_require_window(self, tmp_path, capsys):
        # below the near-r* window the outgoing-side checks are skipped, so
        # with require_window the row fails as verify does, with the reason
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"require_window": True}))
        settings = ["--config", str(config), *FAST]
        assert main(["verify", "--r", "1.89", *settings,
                     "--out-dir", str(tmp_path / "v")]) == EXIT_CHECK_FAILED
        assert cli.WINDOW_SKIPPED in capsys.readouterr().err
        code = main(["sweep", "--values", "1.89,2.01", *settings,
                     "--out-dir", str(tmp_path / "s")])
        assert code == EXIT_CHECK_FAILED
        assert "1 passed, 1 failed" in capsys.readouterr().out
        below, above = json.loads(
            read(tmp_path / "s" / "sweep.json"))["artifact"]
        assert below["ok"] and not below["all_passed"]
        assert below["reason"] == cli.WINDOW_SKIPPED
        assert above["all_passed"] and "reason" not in above

    def test_out_of_range_value(self, tmp_path, capsys):
        code = main(["sweep", "--values", "2.01,2.5",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        assert "r outside" in capsys.readouterr().err


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
    @pytest.mark.parametrize("command", ["profile", "verify", "simulate",
                                         "phase-portrait"])
    def test_r_range_checked_before_any_work(self, command, tmp_path,
                                             capsys):
        code = main([command, "--r", "2.5", "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        assert "r outside (1, r*)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag, value, message", [
        # the tol cases keep the ids they were added under
        pytest.param(*case, id=(case[0] if case[1] == "--tol"
                                else f"{case[0]}{case[1]}={case[2]}"))
        for case in [
            *((command, "--tol", "1e-3", "tol = 0.001 outside")
              for command in ("profile", "verify", "simulate")),
            # grids too coarse to give each march a node
            *(("profile", "--n-points", n, f"n_points = {n}")
              for n in ("1", "2", "3", "4", "16", "22")),
        ]])
    def test_solver_failure_exit(self, command, flag, value, message,
                                 tmp_path, capsys):
        code = main([command, "--r", "2.01", flag, value,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        assert f"solver failure: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_anchor_refusal_below_half_r_star_exit(self, tmp_path, capsys):
        code = main(["profile", "--r", "1.02", "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert ("solver failure: no outgoing anchor at r = 1.02: the saddle "
                "P_star has D_Z = 1 - r/r* = 0.507500, not below the anchor "
                "level D_Z = 0.5" in err)
        assert "the anchor rule needs r > r*/2 = 1.035534" in err
        assert list(tmp_path.iterdir()) == []

    def test_resonant_sonic_series_names_kappa(self, tmp_path, capsys,
                                               monkeypatch):
        # kappa = 11.0025 here: the series divides Z_n by a1 (n - kappa).
        # The seam halves until the series tail fits, so a tail pinned at
        # 1e-13 stands in for a series that fits at no seam; the left one,
        # xi_switch / 64 after six halvings, is refused first
        monkeypatch.setattr(profile_solver, "_series_tail",
                            lambda coeffs, xi: 5e-14)
        code = main(["profile", "--r", "1.821837", *FAST,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert ("sonic series does not converge at the seam xi = -0.003125"
                in err)
        assert "tail 1.000e-13 > 1e-14" in err
        assert "kappa = (dN_Z/dZ - 3 Z1/4)/a1 = 11.002485" in err
        assert "nearest integer 11" in err
        assert list(tmp_path.iterdir()) == []

    def test_every_option_is_a_config_field(self):
        # _effective_config maps flags to RunConfig fields by dest name;
        # a flag whose dest is no field would be silently dropped
        names = {f.name for f in fields(RunConfig)}
        derived = {"command", "config", "xi_range", "values"}
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions
                          if a.dest == "command").choices
        for name, sub in subparsers.items():
            dests = {a.dest for a in sub._actions if a.dest != "help"}
            assert dests - derived <= names, name

    def test_config_error_exit(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"no_such_key": 1}, fh)
        code = main(["profile", "--config", path])
        assert code == EXIT_SOLVER
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value, message", [
        # the sample_r cases keep the ids [1] and [-1] they were added under
        pytest.param(*case, id=(case[2] if case[1] == "--sample-r"
                                else f"{case[0]}{case[1]}={case[2]}"))
        for case in [
            ("verify", "--sample-r", "1", "sample_r"),
            ("verify", "--sample-r", "-1", "sample_r"),
            ("verify", "--verify-samples", "0", "verify_samples"),
            ("verify", "--verify-samples", "-1", "verify_samples"),
            # one sample is one end of each segment: the gate would fire
            ("verify", "--verify-samples", "1", "verify_samples = 1; need"),
            # a sign table outside (1, r*) would fail after the solve
            ("verify", "--window", "2.0:2.08", "window = [2.0, 2.08]"),
            ("phase-portrait", "--curve-samples", "-1", "curve_samples"),
            ("simulate", "--ds", "0", "ds"),
            ("simulate", "--ds", "-0.001", "ds"),
            ("simulate", "--s-span", "0", "s_span"),
            ("simulate", "--s-span", "inf", "s_span = inf; need finite"),
            ("simulate", "--r-max", "-5", "R_max"),
            ("simulate", "--n", "1", "n = 1"),
            ("simulate", "--n-samples", "0", "n_samples"),
            ("simulate", "--n-samples", "1", "n_samples"),
            ("simulate", "--energy", "m_prime=2", "energy config: m_prime"),
            ("simulate", "--energy", "cfl=0", "energy config: cfl"),
            ("simulate", "--energy", 'k="six"', "energy config: unsupported"),
        ]])
    def test_sample_r_below_2_is_a_config_error(self, command, flag, value,
                                                message, tmp_path, capsys):
        # refused before the solve, so no file is written
        code = main([command, "--r", "2.01", flag, value,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        assert (f"configuration error: {message}"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_sweep_refuses_one_verify_sample(self, tmp_path, capsys):
        # with one sample per segment every r of the window would fail the
        # refinement gate; the sweep is refused before any solve instead
        code = main(["sweep", "--values", "2.01", "--verify-samples", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        assert ("configuration error: verify_samples = 1; need >= 2"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_n_samples_beyond_the_steps_of_ds_refused_before_the_solve(
            self, tmp_path, capsys, monkeypatch):
        # with ds given the step count needs no table: ceil(0.002/0.001)
        # = 2 steps hold at most 3 samples
        calls = []
        monkeypatch.setattr(profile_solver, "solve_profile",
                            lambda *args, **kw: calls.append(args))
        code = main(["simulate", "--r", "2.01", "--ds", "0.001",
                     "--s-span", "0.002", "--n-samples", "11",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER
        assert ("configuration error: n_samples = 11 needs 2 <= n_samples "
                "<= n_steps + 1 with n_steps = 2" in capsys.readouterr().err)
        assert calls == []
        assert list(tmp_path.iterdir()) == []
        RunConfig(ds=0.001, s_span=0.002, n_samples=3)
        with pytest.raises(ConfigError, match="n_steps = 2"):
            RunConfig(ds=0.001, s_span=0.002, n_samples=4)

    @pytest.mark.parametrize("entry, message", [
        ({"r": "2.01"}, "r = '2.01'; need a number"),
        ({"n_samples": "5"}, "n_samples = '5'; need an integer"),
        ({"n": 256.0}, "n = 256.0; need an integer"),
        ({"s_span": True}, "s_span = True; need a number"),
        ({"ds": "0.01"}, "ds = '0.01'; need a number or null"),
        ({"window": ["2.02", 2.06]}, "window = ['2.02', 2.06]; need lo:hi"),
        ({"window": 2.05}, "window = 2.05; need lo:hi"),
        # a string is truthy, so it would turn the requirement on
        ({"require_window": "false"},
         "require_window = 'false'; need true or false"),
        ({"quantum_pressure": 1}, "quantum_pressure = 1; need true or false"),
        ({"emit": 5}, "emit = 5; need a list"),
        ({"out_dir": 5}, "out_dir = 5; need a string"),
        ({"energy": [["k", 6]]}, "energy = [['k', 6]]; need an object"),
    ])
    def test_config_file_types_checked(self, entry, message, tmp_path,
                                       capsys):
        # refused before the solve, so no file is written
        path = tmp_path / "config.json"
        path.write_text(json.dumps(entry))
        out = tmp_path / "out"
        code = main(["phase-portrait", "--config", str(path),
                     "--out-dir", str(out)])
        assert code == EXIT_SOLVER
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--seed", "1"])
        assert exc.value.code == 2

    def test_emit_selection(self, tmp_path):
        code = main(["profile", "--r", "2.01", *FAST, "--emit", "json",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        assert not (tmp_path / "profile_r2.01.csv").exists()
        assert (tmp_path / "profile_r2.01.json").exists()


def _stamped(payload, cfg, **stamps):
    """What cli._stamp_json must return: the indented, key-sorted dump of
    the wrapped payload, by json's own encoder."""
    wrapped = {"format_version": cli.FORMAT_VERSION,
               "config_hash": cfg.config_hash, "artifact": payload,
               **stamps}
    return json.dumps(wrapped, indent=2, sort_keys=True) + "\n"


def _same_text(got, want):
    """True, else the first line where `got` and `want` differ: pytest's
    own diff of two profile artifacts would take minutes."""
    if got == want:
        return True
    a, b = got.splitlines(), want.splitlines()
    i = next((i for i, pair in enumerate(zip(a, b)) if pair[0] != pair[1]),
             min(len(a), len(b)))
    return f"line {i}: {a[i:i + 1]} != {b[i:i + 1]}"


class TestJsonArtifacts:
    """Every JSON artifact is json.dumps(..., indent=2, sort_keys=True) and
    a newline, with the payload under "artifact" beside its stamps."""

    def test_stamp_json_of_the_profile_table(self, profile_r201):
        cfg = RunConfig()
        payload = profile_r201.payload()
        key = cli._table_key(cfg)
        assert _same_text(cli._stamp_json(payload, cfg, table_key=key),
                          _stamped(payload, cfg, table_key=key)) is True

    def test_stamp_json_refuses_what_json_refuses(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._stamp_json({"a": [1.0], "b": object()}, RunConfig())

    @pytest.mark.parametrize("argv, code", [
        (["profile", "--r", "2.01", *FAST], EXIT_OK),
        (["verify", "--r", "2.01", *FAST, "--verify-samples", "128"],
         EXIT_OK),
        (["simulate", "--r", "2.01", *SIM_FAST], EXIT_OK),
        (["simulate", "--r", "2.01", *SIM_FAST, "--ds", "0.05"],
         EXIT_ABORT),                             # the lastgood snapshot
        # a row whose solve fails carries a NaN margin
        (["sweep", "--values", "1.02,2.01", *FAST,
          "--verify-samples", "128"], EXIT_CHECK_FAILED),
        (["phase-portrait", "--r", "2.01", "--curve-samples", "64"],
         EXIT_OK),
    ], ids=["profile", "verify", "simulate", "simulate-abort", "sweep",
            "phase-portrait"])
    def test_artifacts_are_the_indented_dump(self, argv, code, tmp_path):
        assert main([*argv, "--out-dir", str(tmp_path)]) == code
        names = sorted(n for n in os.listdir(tmp_path)
                       if n.endswith(".json"))
        assert names
        for name in names:
            text = read(tmp_path / name).decode()
            assert _same_text(text, json.dumps(json.loads(text), indent=2,
                                               sort_keys=True) + "\n") \
                is True, name
