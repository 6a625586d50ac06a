"""Command-line entry point: solve, verify, simulate, sweep, phase-portrait.

Artifact plumbing only; the numerics live in the other modules.  Every
output file embeds the hash of the effective run configuration and the
format version, outputs carry no timestamps, and files are written
atomically, so a fixed configuration reproduces its artifacts byte for
byte.  A JSON artifact is exactly json.dumps(..., indent=2,
sort_keys=True) plus a newline.  The profile_<tag>.json table (schema 5)
holds the solved orbit, tol and the grid's (xi_min, xi_max, n_points), no
column; each orbit array is one string, the standard padded base64 of its
little-endian float64 bytes, which np.frombuffer(base64.b64decode(s),
"<f8") reads back bit for bit, and loading evaluates the orbit on a
grid.  The CSV is the human-readable table, with all eleven columns in
%.17g.

`verify` and `simulate` take their table from the profile_<tag>.json in
the output directory when its table key matches theirs, and solve again
otherwise (no such file, or another key).  The key hashes the settings
the orbit depends on (r, the xi range, tol) and this build: the source
of the package and the versions of Python, numpy and mpmath; the solve
calls no scipy, so a scipy upgrade keeps every stamped table.  The
table is the stored orbit on the run's own grid, so `verify --sample-r
5` after `profile` reads the file, and `verify` under another
--n-points evaluates the stored orbit, while a file written by another
build is not read.  `profile` never reads it.

Exit codes: 0 success, 1 verification checks failed, 2 configuration,
solver or other workbench failure (a ConsistencyError from the solve
included, and a profile_<tag>.json that cannot be read as JSON or whose
matching key sits on a table ProfileTable.from_payload refuses on the
run's grid), 3 a ConsistencyError while checking a solved table (the
special points, the refinement gate or the sign lemmas of `certify`), 4
CFL/positivity abort (with the last good snapshot dumped).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields

import mpmath
import numpy

from . import dynamics_lab, phase_portrait, profile_solver
from .dynamics_lab import EnergyConfig
from .errors import (CFLError, ConsistencyError, DomainError, GridError,
                     PositivityError, SonicCrossingError, WorkbenchError)
from .phase_portrait import R_STAR, ProfileParams
from .profile_solver import ProfileTable
from .report import VerificationReport
from .repulsivity_verifier import certify

__all__ = ["RunConfig", "main"]

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SOLVER = 2
EXIT_PRECISION = 3
EXIT_ABORT = 4


class ConfigError(WorkbenchError, ValueError):
    pass


#: the values each field annotation of RunConfig admits, and the need a
#: refusal names; window has a check of its own
_TYPES = {"float": ((int, float), "a number"),
          "float | None": ((int, float, type(None)), "a number or null"),
          "int": ((int,), "an integer"),
          "bool": ((bool,), "true or false"),
          "str": ((str,), "a string"),
          "list": ((list,), "a list"),
          "dict": ((dict,), "an object")}


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
    out_dir: str = "."
    emit: list = field(default_factory=lambda: ["csv", "json"])
    # simulate
    s_span: float = 1.0
    n: int = 2048
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
        # a config file can hold any JSON value, so the types are checked
        # first (bool is an int to Python, but not a number a config means)
        for f in fields(self):
            if f.type not in _TYPES:
                continue
            allowed, need = _TYPES[f.type]
            value = getattr(self, f.name)
            if not isinstance(value, allowed) or (
                    isinstance(value, bool) and bool not in allowed):
                raise ConfigError(f"{f.name} = {value!r}; need {need}")
        if self.format_version != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported format_version {self.format_version}; "
                f"this build writes version {FORMAT_VERSION}")
        bad = [e for e in self.emit if e not in ("csv", "json")]
        if bad:
            raise ConfigError(f"unknown emit formats: {bad}")
        if self.window is not None and not (
                isinstance(self.window, list) and len(self.window) == 2
                and all(isinstance(v, (int, float)) and 1.0 < v < R_STAR
                        for v in self.window)):
            raise ConfigError(f"window = {self.window!r}; need lo:hi with "
                              f"both ends in (1, r*) = (1, {R_STAR:.6f})")
        if self.sample_r != 0 and self.sample_r < 2:
            raise ConfigError(f"sample_r = {self.sample_r}; need 0 or >= 2")
        for name, ok, need in (
                ("R_max", self.R_max > 0, "> 0"),
                ("n", self.n >= 2, ">= 2"),
                ("n_samples", self.n_samples >= 2, ">= 2"),
                ("verify_samples", self.verify_samples >= 2, ">= 2"),
                ("curve_samples", self.curve_samples >= 1, ">= 1")):
            if not ok:
                raise ConfigError(
                    f"{name} = {getattr(self, name)}; need {need}")
        try:
            dynamics_lab._require_finite_positive(self.s_span, self.ds)
            if self.ds is not None:
                # without ds the step count waits for the table's U
                dynamics_lab._step_plan(self.s_span, self.ds, self.n_samples)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        try:
            EnergyConfig(**self.energy)
        except (TypeError, ConsistencyError) as exc:
            raise ConfigError(f"energy config: {exc}") from None

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


def _stamp_json(payload, cfg: RunConfig, **stamps) -> str:
    wrapped = {"format_version": FORMAT_VERSION,
               "config_hash": cfg.config_hash,
               "artifact": payload, **stamps}
    return json.dumps(wrapped, indent=2, sort_keys=True) + "\n"


def _out(cfg: RunConfig, name: str) -> str:
    """The path in out_dir of the artifact `name`, whose {tag} becomes the
    tag of r, r<r> with r in %g (r2.01)."""
    return os.path.join(cfg.out_dir, name.format(tag=f"r{cfg.r:g}"))


def _table_settings(cfg: RunConfig) -> dict:
    """The settings the solved orbit depends on; _solve passes the solver
    these and the grid's n_points, which only tabulates the orbit."""
    return {"r": cfg.r, "xi_min": cfg.xi_min, "xi_max": cfg.xi_max,
            "tol": cfg.tol}


def _solve(cfg: RunConfig) -> ProfileTable:
    settings = _table_settings(cfg)
    table = profile_solver.solve_profile(
        ProfileParams(r=settings.pop("r")), n_points=cfg.n_points, **settings)
    return profile_solver.to_physical(table)


@functools.lru_cache(maxsize=None)
def _build_id() -> str:
    """Hash of this build: the source of every module of the package, and
    the versions of the interpreter and the libraries the solve calls."""
    h = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(f"{name}\0".encode() + fh.read() + b"\0")
    for version in (sys.version, numpy.__version__, mpmath.__version__):
        h.update(f"{version}\0".encode())
    return h.hexdigest()


def _table_key(cfg: RunConfig) -> str:
    """Stamp of the orbit _solve(cfg) tabulates in this build: two configs
    with one key get the same orbit, bit for bit, and so the same table on
    one grid."""
    text = json.dumps({"build": _build_id(), **_table_settings(cfg)},
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _table(cfg: RunConfig) -> ProfileTable:
    """The orbit `profile` wrote with this table key on cfg's grid, else
    a fresh solve.

    A profile_<tag>.json in out_dir whose table_key is _table_key(cfg)
    holds the orbit _solve(cfg) tabulates, and from_payload tabulates it
    on cfg's grid instead, whatever n_points the file was written at; the
    verify-only and simulate-only settings do not enter the key.  A
    missing file or another key solves again.  A file that cannot be read
    or is not JSON, or a matching key on a table that from_payload
    refuses on cfg's grid, is a DomainError naming the file: a bad file
    is never solved over.  Its message ends "delete it to solve again"
    unless the refusal is a GridError: that refuses cfg's grid, which a
    solve refuses as well.
    """
    path = _out(cfg, "profile_{tag}.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            wrapped = json.load(fh)
    except FileNotFoundError:
        return _solve(cfg)
    except (OSError, ValueError) as exc:   # unreadable, or not JSON
        raise DomainError(f"cannot use {path}: {type(exc).__name__}: {exc}; "
                          "delete it to solve again") from None
    if not (isinstance(wrapped, dict)
            and wrapped.get("table_key") == _table_key(cfg)):
        return _solve(cfg)
    try:
        table = ProfileTable.from_payload(
            wrapped["artifact"], (cfg.xi_min, cfg.xi_max, cfg.n_points))
    except (DomainError, ConsistencyError, SonicCrossingError, KeyError,
            TypeError, ValueError, AttributeError) as exc:
        hint = ("" if isinstance(exc, GridError)
                else "; delete it to solve again")
        raise DomainError(f"cannot use {path}: {type(exc).__name__}: "
                          f"{exc}{hint}") from None
    return profile_solver.to_physical(table)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_profile(cfg: RunConfig, table: ProfileTable) -> int:
    res = profile_solver.residual_profile(table)
    if "csv" in cfg.emit:
        _write_atomic(_out(cfg, "profile_{tag}.csv"),
                      _stamp_csv(table.to_csv(), cfg))
    if "json" in cfg.emit:
        _write_atomic(_out(cfg, "profile_{tag}.json"),
                      _stamp_json(table.payload(), cfg,
                                  table_key=_table_key(cfg)))
    log = {"r": cfg.r, "w0": table.w0,
           "residual_sup_phase": res.phase,
           "residual_sup_sound": res.sound,
           "grid": {"xi_min": cfg.xi_min, "xi_max": cfg.xi_max,
                    "n_points": cfg.n_points},
           "config": asdict(cfg)}
    _write_atomic(_out(cfg, "profile_{tag}.log.json"), _stamp_json(log, cfg))
    print(f"profile r = {cfg.r}: residual sup (phase, sound) = "
          f"({res.phase:.3e}, {res.sound:.3e})")
    return EXIT_OK


#: why a report whose checks all pass fails when require_window is set
WINDOW_SKIPPED = ("outgoing-side checks skipped below the near-r* window "
                  "and require_window is set")


def _verdict(cfg: RunConfig, report: VerificationReport
             ) -> tuple[bool, str | None]:
    """The pass rule of `verify` and of each `sweep` row: every check
    passed, and with require_window the outgoing-side checks ran.  The
    second item is WINDOW_SKIPPED when that alone fails the report."""
    if not report.all_passed:
        return False, None
    if cfg.require_window and not any(
            c.name.startswith("partII") for c in report.checks):
        return False, WINDOW_SKIPPED
    return True, None


def cmd_verify(cfg: RunConfig, table: ProfileTable) -> int:
    report = certify(table.params, table, n_samples=cfg.verify_samples)

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
        _write_atomic(_out(cfg, "verify_signs_{tag}.csv"),
                      _stamp_csv("\n".join(rows) + "\n", cfg))

    if "json" in cfg.emit:
        _write_atomic(_out(cfg, "verify_{tag}.json"),
                      _stamp_json(report.payload(), cfg))
    text = report.to_text()
    _write_atomic(_out(cfg, "verify_{tag}.txt"),
                  _stamp_csv(text + "\n", cfg))
    print(text)

    passed, reason = _verdict(cfg, report)
    if reason is not None:
        print(reason, file=sys.stderr)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_simulate(cfg: RunConfig, table: ProfileTable) -> int:
    try:
        rep = dynamics_lab.simulate(
            table, EnergyConfig(**cfg.energy), s_span=cfg.s_span, n=cfg.n,
            R_max=cfg.R_max, quantum_pressure=cfg.quantum_pressure,
            n_samples=cfg.n_samples, ds=cfg.ds)
    except (CFLError, PositivityError) as exc:
        _write_atomic(_out(cfg, "simulate_{tag}.lastgood.json"),
                      _stamp_json(exc.last_good.payload(), cfg))
        _write_atomic(_out(cfg, "simulate_{tag}.partial.csv"),
                      _stamp_csv(exc.partial_report.to_csv(), cfg))
        print(f"evolution aborted: {exc}; last good snapshot written",
              file=sys.stderr)
        return EXIT_ABORT
    if "csv" in cfg.emit:
        _write_atomic(_out(cfg, "simulate_{tag}.csv"),
                      _stamp_csv(rep.to_csv(), cfg))
    manifest = rep.payload()
    manifest.pop("wall_time", None)   # byte-stable artifacts
    manifest["run_config"] = asdict(cfg)
    _write_atomic(_out(cfg, "simulate_{tag}.manifest.json"),
                  _stamp_json(manifest, cfg))
    print(f"simulate r = {cfg.r}: {len(rep.s)} samples over "
          f"s in [{rep.s[0]:g}, {rep.s[-1]:g}], "
          f"max |S~/S_d| = {rep.max_rel_Stilde:.3e}")
    return EXIT_OK


def cmd_phase_portrait(cfg: RunConfig, params: ProfileParams) -> int:
    curves = phase_portrait.barrier_curves(params,
                                           n_samples=cfg.curve_samples)
    buf = io.StringIO()
    buf.write("curve,param,W,Z\n")
    for name in sorted(curves):
        c = curves[name]
        for t, w, z in zip(c.param, c.W, c.Z):
            buf.write(f"{name},{t:.17g},{w:.17g},{z:.17g}\n")
    if "csv" in cfg.emit:
        _write_atomic(_out(cfg, "phase_portrait_{tag}.csv"),
                      _stamp_csv(buf.getvalue(), cfg))
    pts = phase_portrait.special_points(params)
    payload = {"special_points": {
        name: {"W": p.W, "Z": p.Z}
        for name, p in (("P_s", pts.P_s), ("P_bar_s", pts.P_bar_s),
                        ("P_star", pts.P_star))},
        "curves": sorted(curves)}
    if "json" in cfg.emit:
        _write_atomic(_out(cfg, "phase_portrait_{tag}.json"),
                      _stamp_json(payload, cfg))
    print(f"phase portrait r = {cfg.r}: {len(curves)} curves, "
          f"{cfg.curve_samples} samples each")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_one(r: float, cfg: RunConfig) -> dict:
    """One independent pipeline: solve and certify at a single r."""
    try:
        table = _solve(cfg.override({"r": r}))
        report = certify(table.params, table, n_samples=cfg.verify_samples)
    except WorkbenchError as exc:
        return {"r": r, "ok": False, "all_passed": False,
                "min_margin": float("nan"), "checks": 0,
                "error": f"{type(exc).__name__}: {exc}"}
    passed, reason = _verdict(cfg, report)
    row = {"r": r, "ok": True, "all_passed": passed,
           "min_margin": min(c.margin for c in report.checks),
           "checks": len(report.checks)}
    if reason is not None:
        row["reason"] = reason
    return row


def cmd_sweep(cfg: RunConfig, values: list[float]) -> int:
    rows = sorted((_sweep_one(v, cfg) for v in values),
                  key=lambda row: row["r"])
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
          f"{len(values) - len(failures)} passed, {len(failures)} failed")
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> list[float]:
    lo, _, hi = text.partition(":")
    try:
        return [float(lo), float(hi)]
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
        if count < 1:
            raise argparse.ArgumentTypeError(
                f"count must be at least 1, got {text!r}")
        if count == 1:
            return [start]
        return [start + (stop - start) * i / (count - 1)
                for i in range(count)]
    return [float(v) for v in text.split(",")]


def _parse_energy(pair: str) -> tuple[str, object]:
    """One `--energy KEY=VALUE`; VALUE is read as JSON, else kept as text."""
    key, eq, value = pair.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {pair!r}")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON run configuration file")
    sub.add_argument("--r", type=float, help="self-similar exponent")
    sub.add_argument("--xi-range", type=_parse_range, metavar="LO:HI",
                     help="log-radius range of the profile solve")
    sub.add_argument("--n-points", type=int, help="profile grid points")
    sub.add_argument("--tol", type=float, help="profile solver tolerance")
    sub.add_argument("--out-dir", help="artifact directory")
    sub.add_argument("--emit", help="comma list of formats (csv,json)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it as it was."""
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
                   help="curve samples per check, at least 2")

    s = subs.add_parser("simulate", help="evolve damped profile plus bump")
    _add_common(s)
    s.add_argument("--s-span", type=float, help="frame-time span")
    s.add_argument("--n", type=int,
                   help="radial nodes of the stretched grid R = c sinh(x/c)")
    s.add_argument("--r-max", dest="R_max", type=float, help="domain radius")
    s.add_argument("--n-samples", type=int, help="report samples, 2 <= "
                   "n_samples <= n_steps + 1; without --ds, n_steps needs the "
                   "table's U, so the upper end is checked after it is read")
    s.add_argument("--ds", type=float, help="fixed step (default: CFL-derived)")
    s.add_argument("--quantum-pressure", dest="quantum_pressure",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="include the quantum-pressure term")
    s.add_argument("--energy", action="append", default=None,
                   type=_parse_energy, metavar="KEY=VALUE",
                   help="EnergyConfig override")

    w = subs.add_parser("sweep", help="verify across a set of r values")
    _add_common(w)
    w.add_argument("--values", required=True, type=_parse_values,
                   metavar="A,B,... or START:STOP:COUNT",
                   help="r values to sweep")
    w.add_argument("--verify-samples", type=int,
                   help="curve samples per check, at least 2")

    c = subs.add_parser("phase-portrait",
                        help="emit barrier curve samples for plotting")
    _add_common(c)
    c.add_argument("--curve-samples", type=int, help="samples per curve")

    return parser


def _effective_config(args: argparse.Namespace) -> RunConfig:
    cfg = (RunConfig.from_file(args.config)
           if getattr(args, "config", None) else RunConfig())
    updates = {f.name: getattr(args, f.name) for f in fields(RunConfig)
               if getattr(args, f.name, None) is not None}
    if getattr(args, "xi_range", None) is not None:
        updates["xi_min"], updates["xi_max"] = args.xi_range
    if "emit" in updates:
        updates["emit"] = args.emit.split(",")
    if "energy" in updates:
        updates["energy"] = dict(args.energy)
    return cfg.override(updates)


def _r_range_error(args: argparse.Namespace, cfg: RunConfig) -> str | None:
    if args.command == "sweep":
        bad = [v for v in args.values if not 1.0 < v < R_STAR]
        return f"r outside (1, r*): {bad}" if bad else None
    if not 1.0 < cfg.r < R_STAR:
        return f"r outside (1, r*): r = {cfg.r}, r* = {R_STAR:.6f}"
    return None


#: command -> (artifact writer, what main hands it besides the config);
#: a WorkbenchError while preparing that input (solving the table, or
#: reading it back) is a solver failure
COMMANDS = {
    "profile": (cmd_profile, lambda cfg, args: _solve(cfg)),
    "verify": (cmd_verify, lambda cfg, args: _table(cfg)),
    "simulate": (cmd_simulate, lambda cfg, args: _table(cfg)),
    "sweep": (cmd_sweep, lambda cfg, args: args.values),
    "phase-portrait": (cmd_phase_portrait,
                       lambda cfg, args: ProfileParams(r=cfg.r)),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    reason = _r_range_error(args, cfg)
    if reason is not None:
        print(reason, file=sys.stderr)
        return EXIT_SOLVER
    command, prepare = COMMANDS[args.command]
    try:
        subject = prepare(cfg, args)
    except WorkbenchError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    try:
        return command(cfg, subject)
    except ConsistencyError as exc:
        print(f"precision-consistency failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except WorkbenchError as exc:
        print(f"{args.command} failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
