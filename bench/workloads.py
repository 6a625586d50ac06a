"""The three workloads: what one op is, how its inputs are drawn, and how
its output is checked.

A workload runs in whole *sets*: a set is a fixed list of ops whose inputs
are drawn from the workload seed, so every run attempts the same kind and
number of ops per set whatever its length.  The program sees only the
drawn inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import checks
from nls_implosion import cli, dynamics_lab, profile_solver
from nls_implosion import selfsimilar_fields as fields
from nls_implosion.phase_portrait import ProfileParams


class OpFailed(Exception):
    """The program reported failure (a non-zero exit code)."""


class Workload:
    """What run.py calls: setup(), then per set draw_set(), run_op(x) and
    check_op(x, out) per op, check_set(xs, outs); finish() at the end.
    `problems` holds what set-up found wrong."""

    def __init__(self, seed: int, scratch: str):
        self.rng = np.random.default_rng(seed)
        self.problems: list[str] = []

    def check_set(self, xs, outs) -> list[str]:
        return []

    def finish(self) -> list[str]:
        return []


class Certify(Workload):
    """`profile` then `verify` through the CLI, one fresh r per op.

    r comes from six strata of [1.8, 2.01], one per op of a set, so that
    every set costs about the same: two strata below R_WINDOW_MIN = 1.9
    (no part II checks), two above it, and two just above r = 2.  The gap
    (1.995, 2.005) keeps clear of r = 2, where the Psi reconstruction
    divides by r - 2.  The top stratum [2.0095, 2.01] sits where the sound
    residual peaks, so the run's largest residual does not hinge on one
    draw.

    Each stratum holds POOL_SIZE lattice points at six decimals; the seed
    orders each stratum's points, and set i takes the i-th of each, so no
    r repeats within a run and every op starts cold.  Points within
    KAPPA_GAP of a resonance, where the sonic eigenvalue ratio kappa is an
    integer, are left out: the smooth branch's series degenerates there
    and `profile` fails (see CHANGES.md); the gap takes about 4 % of each
    stratum, evenly.  A fixed pool rather than free draws, because
    `profile` also fails at isolated r where a march meets D_Z = 0 a
    little off the sonic point (r = 1.84025, but not r +- 1e-5); every
    point of the pool passes bench/screen_pool.py.
    """

    name = "certify"
    STRATA = ((1.80, 1.85), (1.85, 1.90), (1.90, 1.95), (1.95, 1.995),
              (2.005, 2.0095), (2.0095, 2.01))
    POOL_SIZE = 40
    KAPPA_GAP = 0.02
    ARTIFACTS = ("profile_{tag}.csv", "profile_{tag}.json",
                 "profile_{tag}.log.json")

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.out = os.path.join(scratch, "artifacts")
        self.pools = [self.rng.permutation(self.candidates(lo, hi))
                      for lo, hi in self.STRATA]
        self.sets_drawn = 0
        self.kept: tuple[float, dict[str, bytes]] | None = None

    @classmethod
    def candidates(cls, lo: float, hi: float) -> list[float]:
        """The stratum's lattice points that the pool keeps."""
        points = [round(lo + (k + 0.5) * (hi - lo) / cls.POOL_SIZE, 6)
                  for k in range(cls.POOL_SIZE)]
        return [r for r in points
                if abs(checks.sonic_kappa(r)
                       - round(checks.sonic_kappa(r))) >= cls.KAPPA_GAP]

    def setup(self) -> None:
        os.makedirs(self.out, exist_ok=True)

    def draw_set(self) -> list[float]:
        # a 30 s run takes about 8 sets; past the pool's end r would repeat
        i = self.sets_drawn % min(len(pool) for pool in self.pools)
        self.sets_drawn += 1
        return [float(pool[i]) for pool in self.pools]

    def _cli(self, command: str, r: float) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([command, "--r", repr(r), "--out-dir", self.out])

    def run_op(self, r: float):
        codes = (self._cli("profile", r), self._cli("verify", r))
        if codes != (0, 0):
            raise OpFailed(f"exit codes {codes} at r = {r}")
        return codes

    def _paths(self, r: float) -> list[str]:
        tag = f"r{r:g}"
        names = [a.format(tag=tag) for a in self.ARTIFACTS]
        names += [f"verify_{tag}.json", f"verify_{tag}.txt"]
        return [os.path.join(self.out, n) for n in names]

    def check_op(self, r: float, out) -> tuple[list[str], float]:
        paths = self._paths(r)
        with open(paths[0], encoding="utf-8") as fh:
            problems, err = checks.check_profile(
                checks.read_profile_csv(fh.read()), r)
        with open(paths[3], encoding="utf-8") as fh:
            problems += checks.check_verify_artifact(json.load(fh), r)
        if self.kept is None:
            # the first op's profile artifacts are kept for the rerun check
            self.kept = (r, {p: _read_bytes(p) for p in paths[:3]})
            paths = paths[3:]
        for p in paths:
            os.remove(p)
        return problems, err

    def finish(self) -> list[str]:
        """Rerun the first op's `profile`: the artifacts must not change."""
        if self.kept is None:
            return []
        r, before = self.kept
        if self._cli("profile", r) != 0:
            return [f"rerun of profile at r = {r} failed"]
        return [f"rerun changed {os.path.basename(p)}"
                for p, data in before.items() if _read_bytes(p) != data]


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Evolve(Workload):
    """One `dynamics_lab.simulate` per op at n = 4096, R_max = 30.

    The table is solved in set-up at an r drawn from [2.0095, 2.0105],
    inside the converged window just above 2; the reference run's drift,
    which is max_err here, moves by a few per cent across that window.
    Each set runs two ops whose delta_low is drawn log-uniformly from the
    two halves of the range the EnergyConfig hierarchy admits, [2e-4, 1e-3]
    and [1e-3, 5e-3].
    """

    name = "evolve"
    R_WINDOW = (2.0095, 2.0105)
    DELTA_STRATA = ((2e-4, 1e-3), (1e-3, 5e-3))
    S_SPAN = 0.2
    N_SAMPLES = 3   # one sample per 0.1 of s, both ends included

    def setup(self) -> None:
        self.r = round(float(self.rng.uniform(*self.R_WINDOW)), 6)
        self.table = profile_solver.to_physical(
            profile_solver.solve_profile(ProfileParams(r=self.r)))

    def draw_set(self) -> list[float]:
        return [float(np.exp(self.rng.uniform(np.log(lo), np.log(hi))))
                for lo, hi in self.DELTA_STRATA]

    def run_op(self, delta: float):
        return dynamics_lab.simulate(
            self.table, dynamics_lab.EnergyConfig(delta_low=delta),
            s_span=self.S_SPAN, n_samples=self.N_SAMPLES)

    def check_op(self, delta: float, report) -> tuple[list[str], float]:
        problems = checks.check_energy_report(report, delta)
        if len(report.s) != self.N_SAMPLES:
            problems.append(f"{len(report.s)} samples, want {self.N_SAMPLES}")
        return problems, report.drift_Linf_S[-1]


class Diagnostics(Workload):
    """One op = damped profile and error terms at one s, the damped
    dissipativity probe, and the blow-up exponent fits at s = 4 and 5.

    Set-up solves the default r = 2.01 table and the wide one of
    criterion 9 (xi_max = 12.6, 8192 points), and confirms that the
    undamped probe (J = K = 0) fails.  A set visits s = 10, 11, 12 once
    each, in an order drawn from the seed, so the contraction of the
    weighted error norms is checked within every set; each op's probe
    seed is drawn from the workload seed.
    """

    name = "diagnostics"
    R = 2.01
    S_VALUES = (10.0, 11.0, 12.0)
    TRIALS = 200

    def setup(self) -> None:
        params = ProfileParams(r=self.R)
        self.table = profile_solver.to_physical(
            profile_solver.solve_profile(params))
        self.wide = profile_solver.to_physical(
            profile_solver.solve_profile(params, xi_max=12.6, n_points=8192))
        cols = {"xi": self.wide.xi_grid, "R": self.wide.R,
                "Psi_nls": self.wide.Psi_nls, "S_nls": self.wide.S_nls,
                "U_nls": self.wide.U_nls, "dR_Ubar": self.wide.dR_Ubar}
        self.floor = 10.0 * max(checks.profile_residual_sups(cols, self.R))
        undamped = dynamics_lab.dissipativity_probe(
            self.table, m=2, C0=2.0, J=0.0, K=0, trials=self.TRIALS)
        if not undamped < checks.PROBE_FLOOR:
            self.problems.append(f"undamped probe passes {undamped:.3f}")

    def draw_set(self) -> list[tuple[float, int]]:
        order = self.rng.permutation(len(self.S_VALUES))
        return [(self.S_VALUES[i], int(self.rng.integers(2 ** 31)))
                for i in order]

    def run_op(self, x: tuple[float, int]):
        s, probe_seed = x
        dp = fields.damped_profile(self.wide, s)
        et = fields.error_terms(dp, self.wide)
        frac = dynamics_lab.dissipativity_probe(
            self.table, m=2, C0=2.0, trials=self.TRIALS, seed=probe_seed)
        fitted = {k: dynamics_lab.blowup_exponent(self.table, k)
                  for k in (4, 5)}
        return et, frac, fitted

    def check_op(self, x, out) -> tuple[list[str], float]:
        s, _ = x
        et, frac, fitted = out
        xi = self.wide.xi_grid
        problems = checks.check_exponents(fitted, self.R)
        sup = checks.inner_error_sup(et.E_Psi, et.E_S, xi, s)
        if not sup <= self.floor:
            problems.append(f"inner error sup {sup:.3e} above floor "
                            f"{self.floor:.3e} at s = {s:g}")
        if not frac >= checks.PROBE_FLOOR:
            problems.append(f"damped probe passes {frac:.3f}")
        return problems, max(checks.exponent_errors(fitted, self.R).values())

    def check_set(self, xs, outs) -> list[str]:
        norms = {x[0]: checks.error_norms(o[0].E_Psi, o[0].E_S,
                                          self.wide.xi_grid)
                 for x, o in zip(xs, outs) if o is not None}
        return checks.check_contraction(norms)


WORKLOADS = {w.name: w for w in (Certify, Evolve, Diagnostics)}
