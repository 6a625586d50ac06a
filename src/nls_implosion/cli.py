"""Command-line entry point: solve, verify, simulate, sweep, phase-portrait.

Artifact plumbing only; the numerics live in the other modules.  Every
output file embeds the hash of the effective run configuration and the
format version, outputs carry no timestamps, and files are written
atomically, so a fixed configuration reproduces its artifacts byte for
byte.

Exit codes: 0 success, 1 verification checks failed, 2 solver failure,
3 precision-consistency failure, 4 CFL/positivity abort (with the last
good snapshot dumped).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields

from . import dynamics_lab, phase_portrait, profile_solver
from .dynamics_lab import EnergyConfig
from .errors import CFLError, PositivityError, WorkbenchError
from .phase_portrait import R_STAR, ProfileParams
from .repulsivity_verifier import verify_all

__all__ = ["RunConfig", "main"]

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SOLVER = 2
EXIT_PRECISION = 3
EXIT_ABORT = 4

#: worker-count override for sweeps
WORKERS_ENV = "NLS_IMPLOSION_WORKERS"


class ConfigError(WorkbenchError, ValueError):
    pass


@dataclass
class RunConfig:
    """Effective parameters of one command invocation.

    A strict flat schema: unknown keys are rejected, and the JSON file
    representation round-trips losslessly.  `energy` holds overrides for
    the EnergyConfig fields of the dynamics module.
    """

    r: float = 2.01
    xi_min: float = -6.0
    xi_max: float = 7.0
    n_points: int = 4096
    tol: float = 1e-12
    seed: int = 0
    out_dir: str = "."
    emit: list = field(default_factory=lambda: ["csv", "json"])
    # simulate
    s_span: float = 1.0
    n: int = 4096
    R_max: float = 30.0
    n_samples: int = 11
    quantum_pressure: bool = True
    ds: float | None = None
    energy: dict = field(default_factory=dict)
    # verify
    sample_r: int = 0
    window: list | None = None
    require_window: bool = False
    verify_samples: int = 512
    # phase-portrait
    curve_samples: int = 512
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        if self.format_version != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported format_version {self.format_version}; "
                f"this build writes version {FORMAT_VERSION}")
        bad = [e for e in self.emit if e not in ("csv", "json")]
        if bad:
            raise ConfigError(f"unknown emit formats: {bad}")
        if self.window is not None and len(self.window) != 2:
            raise ConfigError("window must be two values lo:hi")

    @classmethod
    def from_mapping(cls, data: dict, source: str = "config") -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown keys in {source}: {unknown}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"{path} is not valid JSON: {err}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path} must hold a JSON object")
        return cls.from_mapping(data, source=path)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def to_file(self, path: str) -> None:
        _write_atomic(path, self.to_json() + "\n")

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def override(self, updates: dict) -> "RunConfig":
        data = asdict(self)
        data.update(updates)
        return RunConfig.from_mapping(data, source="flags")


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _stamp_csv(body: str, cfg: RunConfig) -> str:
    head = (f"# format_version: {FORMAT_VERSION}\n"
            f"# config_hash: {cfg.config_hash}\n")
    return head + body


def _stamp_json(payload, cfg: RunConfig) -> str:
    wrapped = {"format_version": FORMAT_VERSION,
               "config_hash": cfg.config_hash,
               "artifact": payload}
    return json.dumps(wrapped, indent=2, sort_keys=True) + "\n"


def _out(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, name)


def _check_r(cfg: RunConfig) -> str | None:
    if not 1.0 < cfg.r < R_STAR:
        return f"r outside (1, r*): r = {cfg.r}, r* = {R_STAR:.6f}"
    return None


def _solve(cfg: RunConfig):
    table = profile_solver.solve_profile(
        ProfileParams(r=cfg.r), xi_min=cfg.xi_min, xi_max=cfg.xi_max,
        tol=cfg.tol, n_points=cfg.n_points)
    return profile_solver.to_physical(table)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_profile(cfg: RunConfig, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    reason = _check_r(cfg)
    if reason is not None:
        print(reason, file=err)
        return EXIT_SOLVER
    try:
        table = _solve(cfg)
        res = profile_solver.residual_profile(table)
    except WorkbenchError as exc:
        print(f"solver failure: {exc}", file=err)
        return EXIT_SOLVER
    tag = f"r{cfg.r:g}"
    if "csv" in cfg.emit:
        _write_atomic(_out(cfg, f"profile_{tag}.csv"),
                      _stamp_csv(table.to_csv(), cfg))
    if "json" in cfg.emit:
        _write_atomic(_out(cfg, f"profile_{tag}.json"),
                      _stamp_json(json.loads(table.to_json()), cfg))
    log = {"r": cfg.r, "w0": table.w0,
           "residual_sup_phase": res.phase,
           "residual_sup_sound": res.sound,
           "grid": {"xi_min": cfg.xi_min, "xi_max": cfg.xi_max,
                    "n_points": cfg.n_points},
           "config": asdict(cfg)}
    _write_atomic(_out(cfg, f"profile_{tag}.log.json"), _stamp_json(log, cfg))
    print(f"profile r = {cfg.r}: residual sup (phase, sound) = "
          f"({res.phase:.3e}, {res.sound:.3e})", file=out)
    return EXIT_OK


def _special_point_consistency(params: ProfileParams, tol: float = 1e-11):
    """Closed-form special points must annihilate their defining polynomials."""
    pts = phase_portrait.special_points(params)
    vals = {}
    polys = phase_portrait.eval_polys(pts.P_s, params)
    vals["N_Z(P_s)"] = abs(polys.N_Z)
    vals["D_Z(P_s)"] = abs(polys.D_Z)
    star = phase_portrait.eval_polys(pts.P_star, params)
    vals["N_W(P_star)"] = abs(star.N_W)
    vals["N_Z(P_star)"] = abs(star.N_Z)
    bad = {k: v for k, v in vals.items() if v > tol}
    return vals, bad


def cmd_verify(cfg: RunConfig, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    reason = _check_r(cfg)
    if reason is not None:
        print(reason, file=err)
        return EXIT_SOLVER
    try:
        table = _solve(cfg)
    except WorkbenchError as exc:
        print(f"solver failure: {exc}", file=err)
        return EXIT_SOLVER
    params = table.params

    vals, bad = _special_point_consistency(params)
    if bad:
        print(f"precision-consistency failure: special points do not "
              f"annihilate their polynomials: {bad}", file=err)
        return EXIT_PRECISION

    report = verify_all(params, table, n_samples=cfg.verify_samples)
    # well-separated outgoing-side margins must be stable under refinement;
    # the Part I curve minima are sampled sups and tighten with sampling,
    # so they are excluded from this gate
    fine = verify_all(params, table, n_samples=2 * cfg.verify_samples)
    for c, f in zip(report.checks, fine.checks):
        if not c.name.startswith("partII"):
            continue
        if abs(c.margin) > 1e-10 and abs(f.margin - c.margin) > 0.10 * abs(c.margin):
            print(f"precision-consistency failure: margin of {c.name} "
                  f"moves from {c.margin:.6e} to {f.margin:.6e} under "
                  f"refinement", file=err)
            return EXIT_PRECISION

    aux = phase_portrait.auxiliary_signs(params)
    report.extend(aux)

    partII_present = any(c.name.startswith("partII") for c in report.checks)

    if cfg.sample_r > 0:
        lo, hi = cfg.window if cfg.window else (R_STAR - 0.05, R_STAR - 0.001)
        rows = ["r,W1_plus_Z1,N_W_Ps,both_negative"]
        for rv in (lo + (hi - lo) * i / (cfg.sample_r - 1)
                   for i in range(cfg.sample_r)):
            s = phase_portrait.auxiliary_signs(ProfileParams(r=rv))
            w1z1 = -s["W1_plus_Z1_negative"].margin
            nwps = -s["N_W_Ps_negative"].margin
            rows.append(f"{rv:.17g},{w1z1:.17g},{nwps:.17g},"
                        f"{int(w1z1 < 0 and nwps < 0)}")
        _write_atomic(_out(cfg, f"verify_signs_r{cfg.r:g}.csv"),
                      _stamp_csv("\n".join(rows) + "\n", cfg))

    if "json" in cfg.emit:
        _write_atomic(_out(cfg, f"verify_r{cfg.r:g}.json"),
                      _stamp_json(json.loads(report.to_json()), cfg))
    text = report.to_text()
    _write_atomic(_out(cfg, f"verify_r{cfg.r:g}.txt"),
                  _stamp_csv(text + "\n", cfg))
    print(text, file=out)

    if not report.all_passed:
        return EXIT_CHECK_FAILED
    if cfg.require_window and not partII_present:
        print("outgoing-side checks skipped below the near-r* window and "
              "--require-window is set", file=err)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    reason = _check_r(cfg)
    if reason is not None:
        print(reason, file=err)
        return EXIT_SOLVER
    try:
        table = _solve(cfg)
    except WorkbenchError as exc:
        print(f"solver failure: {exc}", file=err)
        return EXIT_SOLVER
    try:
        ecfg = EnergyConfig(**cfg.energy)
    except TypeError as exc:
        print(f"unknown energy config key: {exc}", file=err)
        return EXIT_SOLVER
    tag = f"r{cfg.r:g}"
    try:
        rep = dynamics_lab.simulate(
            table, ecfg, s_span=cfg.s_span, n=cfg.n, R_max=cfg.R_max,
            quantum_pressure=cfg.quantum_pressure, n_samples=cfg.n_samples,
            ds=cfg.ds)
    except (CFLError, PositivityError) as exc:
        snapshot = json.loads(exc.last_good.to_json())
        _write_atomic(_out(cfg, f"simulate_{tag}.lastgood.json"),
                      _stamp_json(snapshot, cfg))
        _write_atomic(_out(cfg, f"simulate_{tag}.partial.csv"),
                      _stamp_csv(exc.partial_report.to_csv(), cfg))
        print(f"evolution aborted: {exc}; last good snapshot written",
              file=err)
        return EXIT_ABORT
    except WorkbenchError as exc:
        print(f"simulation failure: {exc}", file=err)
        return EXIT_SOLVER
    if "csv" in cfg.emit:
        _write_atomic(_out(cfg, f"simulate_{tag}.csv"),
                      _stamp_csv(rep.to_csv(), cfg))
    manifest = json.loads(rep.manifest())
    manifest.pop("wall_time", None)   # byte-stable artifacts
    manifest["run_config"] = asdict(cfg)
    _write_atomic(_out(cfg, f"simulate_{tag}.manifest.json"),
                  _stamp_json(manifest, cfg))
    print(f"simulate r = {cfg.r}: {len(rep.s)} samples over "
          f"s in [{rep.s[0]:g}, {rep.s[-1]:g}], "
          f"max |S~/S_d| = {rep.max_rel_Stilde:.3e}", file=out)
    return EXIT_OK


def cmd_phase_portrait(cfg: RunConfig, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    reason = _check_r(cfg)
    if reason is not None:
        print(reason, file=err)
        return EXIT_SOLVER
    params = ProfileParams(r=cfg.r)
    curves = phase_portrait.barrier_curves(params,
                                           n_samples=cfg.curve_samples)
    buf = io.StringIO()
    buf.write("curve,param,W,Z\n")
    for name in sorted(curves):
        c = curves[name]
        for t, w, z in zip(c.param, c.W, c.Z):
            buf.write(f"{name},{t:.17g},{w:.17g},{z:.17g}\n")
    if "csv" in cfg.emit:
        _write_atomic(_out(cfg, f"phase_portrait_r{cfg.r:g}.csv"),
                      _stamp_csv(buf.getvalue(), cfg))
    pts = phase_portrait.special_points(params)
    payload = {"special_points": {
        name: {"W": p.W, "Z": p.Z}
        for name, p in (("P_s", pts.P_s), ("P_bar_s", pts.P_bar_s),
                        ("P_star", pts.P_star))},
        "curves": sorted(curves)}
    if "json" in cfg.emit:
        _write_atomic(_out(cfg, f"phase_portrait_r{cfg.r:g}.json"),
                      _stamp_json(payload, cfg))
    print(f"phase portrait r = {cfg.r}: {len(curves)} curves, "
          f"{cfg.curve_samples} samples each", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_one(args: tuple) -> dict:
    """One independent pipeline: solve and verify at a single r."""
    r, cfg_data = args
    cfg = RunConfig.from_mapping(cfg_data).override({"r": r})
    try:
        table = _solve(cfg)
        report = verify_all(table.params, table,
                            n_samples=cfg.verify_samples)
        row = {"r": r, "ok": True, "all_passed": report.all_passed,
               "min_margin": min(c.margin for c in report.checks),
               "checks": len(report.checks)}
    except WorkbenchError as exc:
        row = {"r": r, "ok": False, "all_passed": False,
               "min_margin": float("nan"), "checks": 0,
               "error": f"{type(exc).__name__}: {exc}"}
    return row


def _workers() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return 1


def cmd_sweep(cfg: RunConfig, values: list[float], out=None,
              err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    bad = [v for v in values if not 1.0 < v < R_STAR]
    if bad:
        print(f"r outside (1, r*): {bad}", file=err)
        return EXIT_SOLVER
    jobs = [(v, asdict(cfg)) for v in values]
    workers = _workers()
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            rows = list(pool.map(_sweep_one, jobs))
    else:
        rows = [_sweep_one(j) for j in jobs]
    rows.sort(key=lambda row: row["r"])
    lines = ["r,ok,all_passed,min_margin,checks"]
    for row in rows:
        lines.append(f"{row['r']:.17g},{int(row['ok'])},"
                     f"{int(row['all_passed'])},{row['min_margin']:.17g},"
                     f"{row['checks']}")
    _write_atomic(_out(cfg, "sweep.csv"),
                  _stamp_csv("\n".join(lines) + "\n", cfg))
    if "json" in cfg.emit:
        _write_atomic(_out(cfg, "sweep.json"), _stamp_json(rows, cfg))
    failures = [row for row in rows if not row["all_passed"]]
    print(f"sweep over {len(values)} values of r: "
          f"{len(values) - len(failures)} passed, {len(failures)} failed",
          file=out)
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")


def _parse_values(text: str) -> list[float]:
    """Comma list `a,b,c` or linspace `start:stop:count`."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"expected start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 2:
            return [start]
        return [start + (stop - start) * i / (count - 1)
                for i in range(count)]
    return [float(v) for v in text.split(",")]


def _parse_energy(pairs: list[str]) -> dict:
    result = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq:
            raise argparse.ArgumentTypeError(
                f"expected KEY=VALUE, got {pair!r}")
        try:
            result[key] = json.loads(value)
        except json.JSONDecodeError:
            result[key] = value
    return result


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON run configuration file")
    sub.add_argument("--r", type=float, help="self-similar exponent")
    sub.add_argument("--xi-range", type=_parse_range, metavar="LO:HI",
                     help="log-radius range of the profile solve")
    sub.add_argument("--n-points", type=int, help="profile grid points")
    sub.add_argument("--tol", type=float, help="profile solver tolerance")
    sub.add_argument("--seed", type=int, help="random seed")
    sub.add_argument("--out-dir", help="artifact directory")
    sub.add_argument("--emit", help="comma list of formats (csv,json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nls-implosion",
        description="Workbench for smooth self-similar imploding profiles: "
                    "solve, verify inequalities, run desk-scale dynamics.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("profile", help="solve the profile and write tables")
    _add_common(p)

    v = subs.add_parser("verify", help="run the inequality checks")
    _add_common(v)
    v.add_argument("--sample-r", type=int,
                   help="emit a sign table over this many r samples")
    v.add_argument("--window", type=_parse_range, metavar="LO:HI",
                   help="r window of the sign table")
    v.add_argument("--require-window", action="store_true", default=None,
                   help="fail when the outgoing-side checks are skipped")
    v.add_argument("--verify-samples", type=int,
                   help="curve samples per check")

    s = subs.add_parser("simulate", help="evolve damped profile plus bump")
    _add_common(s)
    s.add_argument("--s-span", type=float, help="frame-time span")
    s.add_argument("--n", type=int, help="radial nodes")
    s.add_argument("--r-max", dest="R_max", type=float, help="domain radius")
    s.add_argument("--n-samples", type=int, help="report samples")
    s.add_argument("--ds", type=float, help="fixed step (default: CFL-derived)")
    s.add_argument("--quantum-pressure", dest="quantum_pressure",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="include the quantum-pressure term")
    s.add_argument("--energy", action="append", default=None,
                   metavar="KEY=VALUE", help="EnergyConfig override")

    w = subs.add_parser("sweep", help="verify across a set of r values")
    _add_common(w)
    w.add_argument("--values", required=True, type=_parse_values,
                   metavar="A,B,... or START:STOP:COUNT",
                   help="r values to sweep")
    w.add_argument("--verify-samples", type=int,
                   help="curve samples per check")

    c = subs.add_parser("phase-portrait",
                        help="emit barrier curve samples for plotting")
    _add_common(c)
    c.add_argument("--curve-samples", type=int, help="samples per curve")

    return parser


_FLAG_KEYS = ("r", "n_points", "tol", "seed", "out_dir", "s_span", "n",
              "R_max", "n_samples", "ds", "quantum_pressure", "sample_r",
              "window", "require_window", "verify_samples", "curve_samples")


def _effective_config(args: argparse.Namespace) -> RunConfig:
    cfg = (RunConfig.from_file(args.config)
           if getattr(args, "config", None) else RunConfig())
    updates = {}
    for key in _FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            updates[key] = list(value) if isinstance(value, tuple) else value
    if getattr(args, "xi_range", None) is not None:
        updates["xi_min"], updates["xi_max"] = args.xi_range
    if getattr(args, "emit", None) is not None:
        updates["emit"] = args.emit.split(",")
    if getattr(args, "energy", None) is not None:
        updates["energy"] = _parse_energy(args.energy)
    return cfg.override(updates)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if args.command == "profile":
        return cmd_profile(cfg)
    if args.command == "verify":
        return cmd_verify(cfg)
    if args.command == "simulate":
        return cmd_simulate(cfg)
    if args.command == "sweep":
        return cmd_sweep(cfg, args.values)
    if args.command == "phase-portrait":
        return cmd_phase_portrait(cfg)
    parser.error(f"unknown command {args.command}")
    return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
