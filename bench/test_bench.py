"""Self-tests of the benchmark: its checks reject corrupted outputs, and
BENCHMARK.json and the run output keep their schema.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from nls_implosion import dynamics_lab  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


# ---------------------------------------------------------------------------
# each workload's check rejects a corrupted output
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def certify_op(tmp_path_factory):
    """One certify op at a drawn r, with its artifacts left on disk."""
    wl = workloads.Certify(seed=3, scratch=str(tmp_path_factory.mktemp("c")))
    wl.setup()
    r = wl.draw_set()[-1]
    wl.run_op(r)
    return wl, r


def _profile_cols(wl, r):
    with open(wl._paths(r)[0], encoding="utf-8") as fh:
        return checks.read_profile_csv(fh.read())


def test_certify_accepts_program_output(certify_op):
    wl, r = certify_op
    problems, err = checks.check_profile(_profile_cols(wl, r), r)
    assert problems == [] and 0.0 < err <= checks.RESIDUAL_BOUND
    with open(wl._paths(r)[3], encoding="utf-8") as fh:
        assert checks.check_verify_artifact(json.load(fh), r) == []


def test_certify_rejects_shifted_sonic_row(certify_op):
    wl, r = certify_op
    cols = _profile_cols(wl, r)
    i = int(np.flatnonzero(cols["xi"] == 0.0)[0])
    cols["W"][i] += 1e-7
    problems, _ = checks.check_profile(cols, r)
    assert any("xi = 0 row" in p for p in problems)


def test_certify_rejects_wrong_decay(certify_op):
    wl, r = certify_op
    cols = _profile_cols(wl, r)
    cols["S_nls"] = cols["S_nls"] * cols["R"] ** (-0.1 * (r - 1.0))
    problems, _ = checks.check_profile(cols, r)
    assert any("far-field slope" in p for p in problems)


def test_certify_rejects_missing_part_two(certify_op):
    wl, r = certify_op
    with open(wl._paths(r)[3], encoding="utf-8") as fh:
        payload = json.load(fh)
    report = payload["artifact"]
    report["checks"] = [c for c in report["checks"]
                        if not c["name"].startswith("partII")]
    assert checks.check_verify_artifact(payload, r) != []


def test_certify_rejects_rerun_differing_by_one_byte(certify_op):
    wl, r = certify_op
    wl.check_op(r, (0, 0))
    assert wl.finish() == []
    kept_r, before = wl.kept
    path = next(iter(before))
    data = bytearray(before[path])
    data[len(data) // 2] ^= 1
    before[path] = bytes(data)
    assert wl.finish() == [f"rerun changed {os.path.basename(path)}"]


def _energy_report(delta: float) -> dynamics_lab.EnergyReport:
    """A report inside every criterion-11 bound for this delta."""
    rep = dynamics_lab.EnergyReport(config=dynamics_lab.EnergyConfig())
    rep.s = [1e4, 1e4 + 0.1, 1e4 + 0.2]
    rep.E_low = [(5e4 * delta) ** 2] * 3
    rep.sup_residual_S = [1e-4] * 3
    rep.drift_Linf_S = [0.0, 1e-5, 2e-5]
    rep.max_rel_Stilde = 1.1 * delta
    return rep


def test_evolve_rejects_large_relative_perturbation():
    delta = 1e-3
    assert checks.check_energy_report(_energy_report(delta), delta) == []
    rep = _energy_report(delta)
    rep.max_rel_Stilde = 2.01 * delta
    assert any("max_rel_Stilde" in p
               for p in checks.check_energy_report(rep, delta))
    rep = _energy_report(delta)
    rep.drift_Linf_S[-1] = 3e-4
    assert any("drift" in p for p in checks.check_energy_report(rep, delta))


def test_diagnostics_rejects_exponent_off_by_ten_percent():
    r = 2.01
    exact = {s: checks.blowup_exponent_formula(s, r) for s in (4, 5)}
    assert checks.check_exponents(exact, r) == []
    off = {**exact, 4: 1.1 * exact[4]}
    assert checks.check_exponents(off, r) == [
        "exponent at s = 4 off by 10.00%"]


def test_diagnostics_rejects_norms_that_do_not_contract():
    good = {10.0: (36.0, 1.4), 11.0: (6.4, 0.25), 12.0: (1.15, 0.045)}
    assert checks.check_contraction(good) == []
    bad = {**good, 12.0: (6.0, 0.045)}
    assert len(checks.check_contraction(bad)) == 1


def test_reference_formulas():
    # P_s lies on D_Z = 0 and N_Z = 0 of the autonomous system
    for r in (1.8, 1.95, 2.01):
        W, Z = checks.sonic_point(r)
        assert abs(1.0 + 0.25 * W + 0.75 * Z) < 1e-14
    # the exact centred weights differentiate polynomials of degree 2p
    x = 0.1 * (math.pi + np.arange(-8, 9))
    for p in (2, 8):
        d = checks.d1_interior(x ** (2 * p), 0.1, p)
        assert abs(d[8 - p] / (2 * p * x[8] ** (2 * p - 1)) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# schema of BENCHMARK.json and of the run output
# ---------------------------------------------------------------------------

def test_benchmark_json_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["bench"]
    assert 1 <= len(BENCH["command"]) <= 32
    assert all(not a.startswith("/") and ".." not in a
               for a in BENCH["command"])
    assert isinstance(BENCH["run_seconds"], int)
    assert 1 <= BENCH["run_seconds"] <= 60
    runs = 4 + 22 * len(BENCH["workloads"])
    assert runs * (BENCH["run_seconds"] + 10) < 3420
    assert [w["name"] for w in BENCH["workloads"]] == sorted(
        workloads.WORKLOADS, key=["certify", "evolve", "diagnostics"].index)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[group]]
    assert all(NAME.match(n) for n in names)
    for group in ("end_to_end", "per_layer"):
        assert len({m["name"] for m in BENCH[group]}) == len(BENCH[group])
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert len(json.dumps(BENCH)) < 64 * 1024


def _run(cwd: str, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(BENCH["command"] + list(extra), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_run_output_schema(trace, group):
    proc = _run(ROOT, "--workload", "diagnostics", "--seed", "1",
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["attempted"] % 3 == 0            # whole sets of three ops
    want = {m["name"]: m["unit"] for m in BENCH[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) or isinstance(v["value"], int)
               for v in result["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_results", "_scratch",
                                                  "__pycache__"))
    proc = _run(str(tmp_path), "--workload", "certify", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
