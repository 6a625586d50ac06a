"""Run every r of the certify pool once; exit 1 if any op fails.

    python3 bench/screen_pool.py

Prints each r at which an op fails or its output fails a check.  The pool
(`Certify.candidates` in bench/workloads.py) must pass whole, so that no
certify run fails on some seeds only.
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import workloads  # noqa: E402


def main() -> int:
    failed = []
    root = os.path.join(HERE, "_scratch")
    os.makedirs(root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        wl = workloads.Certify(0, scratch)
        wl.setup()
        for lo, hi in wl.STRATA:
            for r in wl.candidates(lo, hi):
                try:
                    wl.run_op(r)
                    problems, _ = wl.check_op(r, None)
                except Exception as exc:
                    problems = [repr(exc)]
                if problems:
                    failed.append(r)
                    print(f"r = {r}: {problems}", flush=True)
    print(f"{len(failed)} of the pool failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
