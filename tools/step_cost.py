"""Time the stepper of two source checkouts against each other.

For each checkout, in fresh processes that alternate between the two
(A B, then B A, ...), this times

  * one `dynamics_lab._advance` step of a (2, 1, n) and of a (2, 2, n)
    state on simulate's grid at s = 1e4 (the warm and the cold `simulate`
    step), and of a (2, 1, n) state at s = 1, where the quantum term is
    live, each as the median over reps of the mean step of `--steps`
    steps at half the state's stability bound, and
  * one cold `simulate` op at the `evolve` workload's settings (r = 2.01,
    s_span 0.2, three samples, delta_low drawn log-uniformly from
    [2e-4, 5e-3]), with any stored reference run dropped before the op,
    so that both runs step as one (2, 2, n) state; no bench workload
    times this path, since every `evolve` op after its first reads the
    stored reference,

and prints each checkout's median and quartiles over processes of each
process's median, and the median ratio of B to A over the process pairs.
Each process checks that the final states of its steps are finite; the
two processes of a pair draw the same delta_low values, and their final
states and op reports are compared bit for bit (through a digest), so the
last line says whether the checkouts step and report alike.

    python tools/step_cost.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        [--processes 10] [--n 2048] [--steps 100] [--reps 7] [--ops 10]

A checkout is the root of a source tree (the directory holding src/).
The processes run one at a time, single-threaded (OpenBLAS pinned to one
thread), so their timings share a machine as the bench's runs do.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: the timed steps: result key, runs stacked, and s
STEPS = (("step_2x1_s", 1, 1e4), ("step_2x2_s", 2, 1e4),
         ("step_2x1_quantum_s", 1, 1.0))
KEYS = tuple(key for key, _, _ in STEPS) + ("cold_op_s",)


def child(root: str, n: int, steps: int, reps: int, ops: int,
          seed: int) -> dict:
    """The timings of one process on the checkout at root."""
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np

    from nls_implosion import dynamics_lab, profile_solver
    from nls_implosion.phase_portrait import ProfileParams
    from nls_implosion.selfsimilar_fields import RadialGrid

    table = profile_solver.to_physical(
        profile_solver.solve_profile(ProfileParams(r=2.01)))
    params = table.params
    grid = RadialGrid.sinh(n, 30.0, dynamics_lab.SIMULATE_GRID_C)
    out = {"digest": hashlib.sha256()}
    for key, runs, s in STEPS:
        base = dynamics_lab.profile_fieldset(table, grid, s)
        bump = np.exp(-(base.R - 8.0) ** 2)
        X0 = np.array([[base.Psi + 1e-3 * bump, base.Psi][:runs],
                       [base.S * (1.0 + 1e-3 * bump), base.S][:runs]])
        # half the stepper's bound, from public quantities: the transport
        # bound, with the speed |R + 2U|/R' written out (R' = cosh(x/c)),
        # and, where its prefactor is live, the quantum one
        speed = (np.abs(grid.R + 2.0 * grid.d1(X0[0]))
                 / np.cosh(grid.x / grid.c))
        bound = 0.9 * grid.h / np.max(speed)
        coef = np.exp((4.0 - 2.0 * params.r) * s)
        if coef > dynamics_lab.QP_COEF_FLOOR:
            bound = min(bound, 0.9 * grid.h ** 2 / (2.0 * params.d * coef))
        ds = 0.5 * float(bound)
        means = []
        for _ in range(reps):
            X = X0
            t0 = time.perf_counter()
            for i in range(steps):
                X, _ = dynamics_lab._advance(X, grid, params, s + i * ds,
                                             ds, True, 0.9)
            means.append((time.perf_counter() - t0) / steps)
        if not np.all(np.isfinite(X)):
            raise SystemExit(f"{root}: non-finite state after {steps} steps")
        out["digest"].update(X.tobytes())
        out[key] = statistics.median(means)

    rng = np.random.default_rng(seed)
    times = []
    for i in range(ops + 2):             # the first two warm up
        delta = float(np.exp(rng.uniform(np.log(2e-4), np.log(5e-3))))
        if hasattr(dynamics_lab, "_reference_run"):
            dynamics_lab._reference_run = None
        t0 = time.perf_counter()
        report = dynamics_lab.simulate(
            table, dynamics_lab.EnergyConfig(delta_low=delta), s_span=0.2,
            n=n, n_samples=3)
        if i >= 2:
            times.append(time.perf_counter() - t0)
        out["digest"].update(report.to_csv().encode())
    out["cold_op_s"] = statistics.median(times)
    out["digest"] = out["digest"].hexdigest()
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", nargs="?", help="first checkout (the parent)")
    ap.add_argument("b", nargs="?", help="second checkout (the change)")
    ap.add_argument("--processes", type=int, default=10,
                    help="processes per checkout")
    ap.add_argument("--n", type=int, default=2048, help="grid nodes")
    ap.add_argument("--steps", type=int, default=100,
                    help="steps per timed rep")
    ap.add_argument("--reps", type=int, default=7, help="reps per state")
    ap.add_argument("--ops", type=int, default=10,
                    help="timed cold simulate ops per process")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(args.child, args.n, args.steps, args.reps,
                               args.ops, args.seed)))
        return
    if args.b is None:
        ap.error("two checkouts are needed")
    if args.processes < 1:
        ap.error(f"--processes {args.processes}: need at least 1")

    roots = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    env = dict(os.environ, **PINNED_ENV)
    results = {"A": [], "B": []}
    for p in range(args.processes):
        order = ("A", "B") if p % 2 == 0 else ("B", "A")
        for side in order:
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--child", roots[side], "--seed", str(p),
                   "--n", str(args.n), "--steps", str(args.steps),
                   "--reps", str(args.reps), "--ops", str(args.ops)]
            run = subprocess.run(cmd, env=env, capture_output=True,
                                 text=True, check=True)
            results[side].append(json.loads(run.stdout.splitlines()[-1]))
        a, b = results["A"][-1], results["B"][-1]
        print(f"process pair {p + 1}: "
              + "  ".join(f"{k} {a[k] * 1e3:.3f} -> {b[k] * 1e3:.3f} ms"
                          for k in KEYS), flush=True)

    print(f"\nA = {roots['A']}\nB = {roots['B']}")
    print(f"{args.processes} processes per checkout, n = {args.n}; median "
          f"(quartiles) over processes of each process's median, in ms")
    for key in KEYS:
        a = [r[key] for r in results["A"]]
        b = [r[key] for r in results["B"]]
        ratios = [y / x for x, y in zip(a, b)]
        lower = sum(y < x for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        print(f"{key:18s} A {qa[1] * 1e3:8.3f} ({qa[0] * 1e3:.3f}-"
              f"{qa[2] * 1e3:.3f})  B {qb[1] * 1e3:8.3f} ({qb[0] * 1e3:.3f}-"
              f"{qb[2] * 1e3:.3f})  B/A {statistics.median(ratios):.3f}, "
              f"B lower in {lower}/{len(a)}")
    same = all(a["digest"] == b["digest"]
               for a, b in zip(results["A"], results["B"]))
    print(f"states and reports bit-identical in every pair: {same}")


if __name__ == "__main__":
    main()
