"""The benchmark's layer trace must still find every name it wraps.

bench/layertrace.install replaces functions of the package by timing
wrappers and raises when one of them is gone; renaming or deleting a
traced name (cli.main, cli._write_atomic, ProfileTable.to_json,
dynamics_lab.step, selfsimilar_fields._even_d1, ...) would otherwise go
unnoticed until the benchmark runs.  The install patches module globals,
so it runs in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layertrace
layertrace.install(layertrace.Tracer())
print("installed")
"""


def test_layertrace_installs():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"
