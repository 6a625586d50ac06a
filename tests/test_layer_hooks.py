"""The benchmark's layer trace must still find every name it wraps.

bench/layertrace.install replaces functions of the package by timing
wrappers and raises when one of them is gone; renaming or deleting a
traced name (cli.main, cli._write_atomic, ProfileTable.to_json,
dynamics_lab.step, selfsimilar_fields._even_d1, ...) would otherwise go
unnoticed until the benchmark runs.  The install patches module globals,
so it runs in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layertrace
tracer = layertrace.Tracer()
layertrace.install(tracer)
print("installed")
if len(sys.argv) > 3:
    import contextlib, io, json
    from nls_implosion import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["profile", "--n-points", "512",
                         "--out-dir", sys.argv[3]])
    print(json.dumps({"code": code, **tracer.snapshot()}))
"""


def test_layertrace_installs():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"


def test_traced_profile_counts_the_bytes_it_writes(tmp_path):
    # cli.artifact_bytes counts the text handed to cli._write_atomic; it
    # must equal what lands on disk, whatever builds that text
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src"),
         str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(proc.stdout.splitlines()[-1])
    assert trace["code"] == 0
    assert trace["calls"]["cli.main"] == 1
    # the left, backward and forward marches and the anchor's two edge
    # orbits, each through the wrapped profile_solver.solve_ivp
    assert trace["calls"]["profile_solver.solve_ivp"] == 5
    assert trace["counts"]["profile_solver.solve_ivp.nfev"] > 0
    written = sorted(out.iterdir())
    assert [p.name for p in written] == [
        "profile_r2.01.csv", "profile_r2.01.json", "profile_r2.01.log.json"]
    assert trace["counts"]["cli.artifact_bytes"] == sum(
        p.stat().st_size for p in written)
