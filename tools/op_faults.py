"""Count the minor page faults, CPU time and wall time of a bench workload's
ops, in one process.

    python tools/op_faults.py diagnostics [--sets 30] [--seed 1]
        [--warm-up-mb M] [--root CHECKOUT]

Imports the workload from the checkout's bench/workloads.py (nothing
under bench/ is changed), runs its set-up and then --sets whole sets of
ops, and prints, over the ops after the first set, the median and
quartiles per op of the minor faults (`ru_minflt` of
`resource.getrusage(RUSAGE_SELF)`), the CPU time (`time.process_time`)
and the wall time, and then the process's peak resident set size once
its ops are done (`ru_maxrss` in MB of 2^20 bytes, the bench's
peak_rss_mb).  Every op's output is checked as the bench checks it,
outside the counted span.  With --warm-up-mb M the process first
allocates, touches and frees M MB, which raises glibc's dynamic mmap
threshold, as a large free during an earlier import or set-up would.

It reads only its own process's counters: no tracing of the machine, and
the timings share the machine with whatever else runs on it.  The
package is imported from CHECKOUT/src (the checkout holding this tool by
default), single-threaded (OpenBLAS pinned to one thread), as the bench
runs it.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import tempfile
import time

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", help="a workload of bench/workloads.py")
    ap.add_argument("--sets", type=int, default=30,
                    help="whole sets of ops after set-up")
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--warm-up-mb", type=float, default=0.0,
                    help="allocate, touch and free this many MB first")
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="the checkout to import")
    args = ap.parse_args()
    if args.sets < 2:
        ap.error("--sets must be at least 2: the first set warms up")

    os.environ.update(PINNED_ENV)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import numpy as np
    import workloads

    if args.warm_up_mb > 0:
        block = np.ones(int(args.warm_up_mb * 2 ** 20) // 8)
        del block

    with tempfile.TemporaryDirectory() as scratch:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        wl.setup()
        problems = list(wl.problems)
        rows = []
        for i in range(args.sets):
            xs = wl.draw_set()
            outs = []
            for x in xs:
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                c0, t0 = time.process_time(), time.perf_counter()
                out = wl.run_op(x)
                t1, c1 = time.perf_counter(), time.process_time()
                f1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                if i > 0:
                    rows.append((f1 - f0, c1 - c0, t1 - t0))
                problems += wl.check_op(x, out)[0]
                outs.append(out)
            problems += wl.check_set(xs, outs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems += wl.finish()

    print(f"{args.workload}: {len(rows)} ops after a first set of "
          f"{len(xs)}, seed {args.seed}, warm-up {args.warm_up_mb:g} MB, "
          f"checkout {root}")
    print("per op: median (quartiles)")
    for name, col, scale, unit in (("minor faults", 0, 1, ""),
                                   ("CPU time", 1, 1e3, " ms"),
                                   ("wall time", 2, 1e3, " ms")):
        q1, q2, q3 = quartiles([r[col] * scale for r in rows])
        print(f"  {name:13s} {q2:10.4g}{unit} ({q1:.4g}-{q3:.4g})")
    print(f"peak RSS after the ops: {peak_rss_mb:.1f} MB")
    for p in problems[:20]:
        print(f"problem: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
