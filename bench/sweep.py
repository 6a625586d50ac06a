"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --workloads certify,evolve,diagnostics \
        --seeds 1-10 [--seconds 30] [--trace 0]

Runs the command of BENCHMARK.json once per (workload, seed), one after
another, from the root of the checkout, and prints for every metric its
median, first and third quartiles (statistics.quantiles, n = 4), the
quartile spread as a share of the median, and the bound it is held to.
It also prints the share of failed ops per run.  This is the command that
regenerates the reference figures in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", f"{seconds:g}",
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(workload: str, results: list[dict], bounds: dict) -> None:
    shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
    print(f"\n{workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed/attempted: "
          f"{', '.join(shares)}")
    print(f"  {'metric':48s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"  {name:48s} {unit:6s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:7.2%} {'' if bound is None else f'{bound:.2f}':>6s}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", type=parse_seeds)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            results.append(run_once(bench, workload, seed, args.seconds,
                                    args.trace))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}"
                for k, v in list(results[-1]["metrics"].items())[:6]),
                flush=True)
        summarise(workload, results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
