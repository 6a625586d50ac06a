"""Benchmark of the nls_implosion workbench: one workload per run.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The run sets up (imports plus the workload's untimed preparation),
then runs whole sets of ops until --seconds have passed, checks every op's
output against references computed in bench/checks.py, and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the layers are wrapped (bench/layertrace.py) and the metrics
are the per-layer ones.  See bench/README.md.
"""

import time

T0 = time.perf_counter()   # process start, before any import of the program

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# single-threaded numerics: OpenBLAS is threaded by default, and the
# timings must not depend on how many cores happen to be idle
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NLS_IMPLOSION_WORKERS": "1"}
os.environ.update(PINNED_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "_results")
SCRATCH = os.path.join(HERE, "_scratch")

#: set-up is timed in this many processes (this one plus fresh children)
SETUP_SAMPLES = 3

#: Neighbours' load on the shared cores slows everything in this process
#: by up to 2x, in phases that outlast an op (see bench/README.md).  A
#: fixed kernel, the speed probe, is timed before and after every op and
#: after set-up; each time is scaled by PROBE_REF_S / probe, the probe's
#: time on an unloaded machine of this kind over its time at that moment.
PROBE_LOOP = 60000
PROBE_PASSES = 200
PROBE_REF_S = 0.0075

#: per-layer metrics of the traced run, in the order BENCHMARK.json lists
#: them, as (metric, source, key).  Sources: "setup" (seconds spent in
#: set-up), "self" (self seconds per op over the run), "calls" and
#: "count" (per op over the first set, which the seed fixes), "trace"
#: (the tracing itself).
SETUP_LAYERS = (
    "profile_solver.sonic_series", "profile_solver.outgoing_anchor",
    "profile_solver.solve_ivp", "profile_solver.solve_profile")
SELF_LAYERS = (
    "profile_solver.sonic_series", "profile_solver.outgoing_anchor",
    "profile_solver.solve_ivp", "profile_solver.solve_profile",
    "profile_solver.residual_profile", "profile_solver.to_physical",
    "profile_solver.serialize", "repulsivity_verifier.verify_all",
    "phase_portrait.auxiliary_signs", "cli.main", "dynamics_lab.simulate",
    "dynamics_lab.step", "dynamics_lab.energies",
    "dynamics_lab.profile_fieldset", "dynamics_lab.dissipativity_probe",
    "dynamics_lab.blowup_exponent", "selfsimilar_fields.FieldSet",
    "selfsimilar_fields.radial_laplacian", "selfsimilar_fields.even_d",
    "selfsimilar_fields.damped_profile", "selfsimilar_fields.error_terms",
    "fd.derivative")
CALL_LAYERS = (
    "profile_solver.sonic_series", "profile_solver.solve_ivp",
    "profile_solver.solve_profile", "repulsivity_verifier.verify_all",
    "dynamics_lab.step", "selfsimilar_fields.FieldSet",
    "selfsimilar_fields.radial_laplacian", "fd.derivative")
COUNTERS = {"profile_solver.solve_ivp.nfev": "count",
            "cli.artifact_bytes": "B",
            "fd.derivative.points": "count",
            "fd.derivative.flops": "flop"}
PER_LAYER = (
    [("setup.import_s", "setup", "import"),
     ("setup.prepare_s", "setup", "prepare")]
    + [(f"setup.{k}.self_s", "setup", k) for k in SETUP_LAYERS]
    + [(f"{k}.self_s", "self", k) for k in SELF_LAYERS]
    + [(f"{k}.calls", "calls", k) for k in CALL_LAYERS]
    + [(k, "count", k) for k in COUNTERS]
    + [("trace.op_p50_s", "trace", "op_p50_s"),
       ("trace.span_share", "trace", "span_share"),
       ("trace.wrapped_calls", "trace", "wrapped_calls")])


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time as JSON, and exit "
                         "(used for the extra set-up samples)")
    return ap.parse_args(argv)


def machine() -> dict:
    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "env": PINNED_ENV}


def extra_setup_samples(args, n: int) -> list[dict]:
    """Set-up times of n fresh processes running the same workload and
    seed, scaled and raw."""
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0",
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def layer_metrics(snaps: dict, n_ops: int, ops_per_set: int) -> dict:
    """Per-layer metrics from the tracer snapshots taken after set-up,
    after the first set and at the end of the timed loop."""
    setup, first, end = snaps["setup"], snaps["first"], snaps["end"]
    out = {}
    for metric, source, key in PER_LAYER:
        if source == "setup":
            value = snaps["setup_times"][key] if key in snaps["setup_times"] \
                else setup["self_s"].get(key, 0.0)
            unit = "s"
        elif source == "self":
            value = (end["self_s"].get(key, 0.0)
                     - setup["self_s"].get(key, 0.0)) / n_ops
            unit = "s"
        elif source in ("calls", "count"):
            table = "calls" if source == "calls" else "counts"
            value = (first[table].get(key, 0)
                     - setup[table].get(key, 0)) / ops_per_set
            unit = COUNTERS.get(key, "count")
        else:
            value, unit = snaps["trace"][key]
        out[metric] = {"value": value, "unit": unit}
    return out


def speed_probe() -> float:
    """Wall time of a fixed CPU kernel: a Python float loop and numpy
    passes over 4096 points, the two kinds of work the ops do."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 4096)
    w = np.linspace(-1.0, 1.0, 9)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_LOOP):
        acc += i * 0.5
    for _ in range(PROBE_PASSES):
        y = np.convolve(x, w, mode="valid")
        y = x * x + y[0]
    return time.perf_counter() - t0


def run_sets(wl, seconds: float, on_first_set=None) -> dict:
    """Whole sets of ops until `seconds` have passed; each op is timed and
    bracketed by speed probes, then checked."""
    op_times, op_scaled, set_scaled, errs = [], [], [], []
    problems = list(wl.problems)
    attempted = failed = 0
    t_run = time.perf_counter()
    probe = speed_probe()
    while True:
        xs = wl.draw_set()
        outs, set_time = [], 0.0
        for x in xs:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.run_op(x)
            except Exception as exc:   # counted, reported, not fatal
                failed += 1
                outs.append(None)
                problems.append(
                    f"op {x!r} failed: {type(exc).__name__}: {exc}")
                probe = speed_probe()
                continue
            dt = time.perf_counter() - t0
            scaled = dt * PROBE_REF_S / math.sqrt(probe * speed_probe())
            op_times.append(dt)
            op_scaled.append(scaled)
            set_time += scaled
            outs.append(out)
            try:
                found, err = wl.check_op(x, out)
            except Exception as exc:
                found, err = [f"check raised {exc!r}"], None
            problems += [f"op {x!r}: {p}" for p in found]
            if err is not None:
                errs.append(err)
            probe = speed_probe()
        set_scaled.append(set_time)
        problems += wl.check_set(xs, outs)
        if on_first_set is not None and len(set_scaled) == 1:
            on_first_set()
        if time.perf_counter() - t_run >= seconds:
            break
    return {"op_times_s": op_times, "op_scaled_s": op_scaled,
            "set_scaled_s": set_scaled, "errs": errs, "problems": problems,
            "attempted": attempted, "failed": failed, "ops_per_set": len(xs)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "nls_implosion")):
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    t_import = time.perf_counter()
    import nls_implosion
    from nls_implosion import (cli, dynamics_lab, profile_solver,  # noqa: F401
                               repulsivity_verifier, selfsimilar_fields)
    import_s = time.perf_counter() - t_import
    if os.path.dirname(os.path.abspath(nls_implosion.__file__)) != \
            os.path.join(SRC, "nls_implosion"):
        print(f"nls_implosion imported from {nls_implosion.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer()
        layertrace.install(tracer)

    scratch = os.path.join(SCRATCH, str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        t_prepare = time.perf_counter()
        wl.setup()
        prepare_s = time.perf_counter() - t_prepare
        setup_raw = time.perf_counter() - T0
        setup_s = setup_raw * PROBE_REF_S / speed_probe()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
            return 0
        snaps = {}
        if tracer:
            snaps["setup"] = tracer.snapshot()
            run = run_sets(wl, args.seconds, lambda: snaps.setdefault(
                "first", tracer.snapshot()))
            snaps["end"] = tracer.snapshot()
        else:
            run = run_sets(wl, args.seconds)
        run["problems"] += wl.finish()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    op_times, errs = run["op_scaled_s"], run["errs"]
    op_p50 = statistics.median(op_times) if op_times else float("nan")
    record = {"setup_raw_s": [setup_raw]}
    if tracer:
        snaps["setup_times"] = {"import": import_s, "prepare": prepare_s}
        snaps["trace"] = {
            "op_p50_s": (op_p50, "s"),
            "span_share": ((snaps["end"]["top_s"] - snaps["setup"]["top_s"])
                           / sum(run["op_times_s"]), "1"),
            "wrapped_calls": ((snaps["end"]["wrapped_calls"]
                               - snaps["setup"]["wrapped_calls"])
                              / run["attempted"], "count")}
        metrics = layer_metrics(snaps, run["attempted"], run["ops_per_set"])
        record["spans"] = {k: {"self_s": v[0], "calls": v[1]}
                           for k, v in sorted(tracer.edges.items())}
    else:
        samples = [{"setup_s": setup_s, "setup_raw_s": setup_raw}]
        samples += extra_setup_samples(args, SETUP_SAMPLES - 1)
        record["setup_raw_s"] = [x["setup_raw_s"] for x in samples]
        metrics = {
            "setup_s": {"value": statistics.median(
                x["setup_s"] for x in samples), "unit": "s"},
            "wall_s": {"value": statistics.fmean(run["set_scaled_s"]),
                       "unit": "s"},
            "op_p50_s": {"value": op_p50, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "max_err": {"value": max(errs) if errs else float("nan"),
                        "unit": "1"},
        }

    problems = run["problems"]
    result = {"correct": not problems and bool(op_times),
              "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics}
    record.update(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, machine=machine(),
                  probe_ref_s=PROBE_REF_S, ops_per_set=run["ops_per_set"],
                  op_times_s=run["op_times_s"], op_scaled_s=op_times,
                  problems=problems)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for p in problems[:20]:
        print(f"problem: {p}")
    print(json.dumps({"machine": record["machine"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
