"""Smoke runs of the measuring scripts in tools/.

Each script runs once, small, in a subprocess, as from the command line:
the tests check that it exits 0 and prints what it says it prints.  No
test reads a timing.
"""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def run_tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOLS / args[0]), *args[1:]],
                          capture_output=True, text=True, timeout=300)


def test_code_lines_counts_every_module():
    done = run_tool("code_lines.py")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    modules = sorted(p.name for p in (ROOT / "src" / "nls_implosion").glob(
        "*.py"))
    assert [name for name, _ in rows[:-1]] == modules
    counts = [int(count) for _, count in rows]
    assert rows[-1][0] == "total"
    assert all(count > 0 for count in counts)
    assert counts[-1] == sum(counts[:-1])


def test_op_faults_reports_the_diagnostics_ops():
    done = run_tool("op_faults.py", "diagnostics", "--sets", "2")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert re.match(r"diagnostics: (\d+) ops after a first set of \1, "
                    r"seed 1, warm-up 0 MB, checkout ", lines[0])
    assert lines[1] == "per op: median (quartiles)"
    assert [line.split()[:2] for line in lines[2:5]] == [
        ["minor", "faults"], ["CPU", "time"], ["wall", "time"]]
    assert re.fullmatch(r"peak RSS after the ops: \d+\.\d MB", lines[5])
    assert lines[6:] == []


def test_step_cost_with_one_process_pair():
    done = run_tool("step_cost.py", str(ROOT), str(ROOT), "--processes", "1",
                    "--n", "256", "--steps", "2", "--reps", "2", "--ops", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("process pair 1: step_2x1_s ")
    keys = ("step_2x1_s", "step_2x2_s", "step_2x1_quantum_s", "cold_op_s")
    rows = [line for line in lines if line.split(" ", 1)[0] in keys]
    assert [row.split()[0] for row in rows] == list(keys)
    assert all(re.search(r"B lower in [01]/1$", row) for row in rows)
    assert lines[-1] == "states and reports bit-identical in every pair: True"


def test_step_cost_refuses_no_processes():
    done = run_tool("step_cost.py", str(ROOT), str(ROOT), "--processes", "0")
    assert done.returncode == 2
    assert "--processes 0: need at least 1" in done.stderr
    assert done.stdout == ""


def test_artifact_diff_finds_a_checkout_identical_to_itself():
    done = run_tool("artifact_diff.py", str(ROOT), str(ROOT), "--r", "2.01")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "r=2.01 profile --emit json", "r=2.01 profile",
        "r=2.01 verify --sample-r 5", "r=2.01 phase-portrait",
        "r=2.01 simulate", "r=2.01 simulate --ds 0.05", "sweep"]
    assert all(line.endswith(" files, identical") for line in lines[:-1])
    assert re.fullmatch(r"7 commands, \d+ files: all identical", lines[-1])
