"""Desk-scale radial dynamics in the self-similar frame.

The stepper advances the (Psi, S) system with quantum pressure by an
explicit strong-stability-preserving third-order scheme on a RadialGrid:
the uniform grid, or the stretch R = c sinh(x/c) that simulate uses, on
which outgoing transport moves at about c in x instead of R_max, so the
CFL step grows by about R_max/c.  Its stages run on plain arrays that
stack runs along a leading axis (simulate's perturbed and reference runs
step as one state), with one first derivative of every row and one second
derivative of the Psi rows per stage; validated FieldSets are built only
where a caller needs one (step's result, simulate's sample points and
abort snapshots).  The stepper's right side is written once, as its
stationary part and its quantum term: the stationarity residual applies
the first at a state, and a statistical dissipativity probe of the
cut-off linearized operator takes the operator as its complex-step
linearization.  They, the weighted energy functionals and a Sobolev
blow-up-rate diagnostic live alongside the stepper; each takes its
R-derivatives and integrals from the grid it is given.
Everything reduces the d = 8 problem to its radial form:
Lap f = f'' + 7 f'/R with the regular center value d f''(0),
div U = Lap Psi for the gradient field U.

Desk scale means the configured derivative orders (m' = 3, k = 6) sit far
below the asymptotic regime the estimates are stated for; reports carry
the configured orders so no number is mistaken for the continuum claim.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from ._fd import derivative
from .errors import (
    CFLError,
    ConsistencyError,
    DomainError,
    PositivityError,
    RangeError,
    VacuumError,
)
from .phase_portrait import ProfileParams
from .profile_solver import Orbit, ProfileTable, nls_fields, profile_operator
from .selfsimilar_fields import (
    FieldSet,
    RadialGrid,
    _half_log_density,
    _smooth_step,
    _smooth_step_derivative,
    cutoff,
)

__all__ = [
    "EnergyConfig",
    "Weights",
    "EnergyReport",
    "StationaryResidual",
    "build_weights",
    "profile_fieldset",
    "step",
    "simulate",
    "residual_stationary",
    "energy_low",
    "energy_w",
    "energy_high",
    "dissipativity_probe",
    "blowup_exponent",
    "exponent_formula",
    "critical_sobolev_index",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyConfig:
    """Derivative orders, weight shape and scale hierarchy for the energies.

    The hierarchy 1/s0 << delta_low << 1/E_global << 1/k << 1/m_prime is
    enforced as ratio checks with factor `hierarchy_ratio`; E_global and
    delta_low have no constructive values at source and are desk-scale
    knobs here.
    """

    m_prime: int = 3
    k: int = 6
    l: int = 0
    R0: float = 20.0
    beta_exponent: float = 0.1
    phi_exponent: float = 2.0
    delta_low: float = 1e-3
    E_l0: tuple = (10.0,)
    s0: float = 1.0e4
    E_global: float = 100.0
    hierarchy_ratio: float = 2.0
    cfl: float = 0.9

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        rho = self.hierarchy_ratio
        problems = []
        if self.m_prime < 3:
            problems.append("m_prime must be >= 3")
        if not 0 <= self.l <= self.k / 10.0:
            problems.append("need 0 <= l <= k/10")
        if self.k - self.l - 1 < 1:
            problems.append("need k - l - 1 >= 1")
        if len(self.E_l0) <= self.l:
            problems.append("E_l0 ladder shorter than the weight index l")
        if 1.0 / self.s0 > self.delta_low / rho:
            problems.append("1/s0 not small against delta_low")
        if self.delta_low > 1.0 / (rho * self.E_global):
            problems.append("delta_low not small against 1/E_global")
        if rho * self.k > self.E_global:
            problems.append("1/E_global not small against 1/k")
        if rho * self.m_prime > self.k:
            problems.append("1/k not small against 1/m_prime")
        if not self.cfl > 0:
            problems.append("cfl must be > 0")
        if problems:
            raise ConsistencyError("; ".join(problems))


@dataclass(frozen=True)
class Weights:
    """Plateau-1 radial weights with power-law tails.

    The source display jumps from the plateau 1 straight to |y|^q/(2 R0),
    which is discontinuous at the plateau edge; here a smooth monotone
    interpolant matches the plateau exactly on [0, R0] and the stated
    powers (1/10 for beta, 2 for phi) from 4 R0 on, up to a positive
    constant.  The gradient contract |phi'|/phi <= 2 is recorded at build.
    """

    beta: np.ndarray
    phi: np.ndarray
    max_grad_ratio_phi: float


def build_weights(grid: RadialGrid, cfg: EnergyConfig) -> Weights:
    """The weights on the grid's nodes R: each is exp(q B log max(R/R0, 1))
    with B the blend, so |phi'|/phi is |p (B' log max(R/R0, 1) + B/R)| in
    closed form, and B = 0 up to R0."""
    R = grid.R
    t = (R - cfg.R0) / (3.0 * cfg.R0)
    blend, log_r = _smooth_step(t), np.log(np.maximum(R / cfg.R0, 1.0))
    grad_log = (_smooth_step_derivative(t, 1) / (3.0 * cfg.R0) * log_r
                + blend / np.maximum(R, cfg.R0))
    return Weights(
        beta=np.exp(cfg.beta_exponent * blend * log_r),
        phi=np.exp(cfg.phi_exponent * blend * log_r),
        max_grad_ratio_phi=abs(cfg.phi_exponent) * float(np.max(grad_log)))


# ---------------------------------------------------------------------------
# the profile on evolution grids
# ---------------------------------------------------------------------------

def profile_fieldset(table: ProfileTable, grid: RadialGrid,
                     s: float) -> FieldSet:
    """Evaluate the solved profile on the grid, which contains R = 0.

    The table's orbit gives (W, Z) at xi = log R, which nls_fields maps to
    Psi and S by the table's own arithmetic; the (at most one) node below
    the table's reach a = R[0] is filled by the even quadratic through the
    values at a and 2a, consistent with the fields' regularity at the
    center.  The values are cached per orbit and nodes (the last eight),
    since the diagnostics put one table on one grid at every call; each
    FieldSet gets its own copy.  A table without its orbit is a
    DomainError.
    """
    R = grid.R
    if R[-1] > table.R[-1] * (1.0 + 1e-12):
        raise RangeError(
            f"grid reaches R = {R[-1]:.4g} beyond table coverage "
            f"{table.R[-1]:.4g}")
    if table.orbit is None:
        raise DomainError("profile_fieldset needs the table's orbit; this "
                          "table has none")
    Psi, S = _profile_on(table.orbit, table.params, float(table.R[0]),
                         R.tobytes())
    return FieldSet.from_Psi_S(table.params, grid, s, Psi.copy(), S.copy())


@functools.lru_cache(maxsize=8)
def _profile_on(orbit: Orbit, params: ProfileParams, a: float,
                nodes: bytes) -> list[np.ndarray]:
    """Psi and S of the orbit at the radii whose float64 bytes are
    `nodes`, with the even quadratic below the reach a."""
    R = np.frombuffer(nodes)
    inside = R >= a
    n = np.count_nonzero(inside)
    # the nodes inside, then a and 2a for the even quadratic below
    at = np.append(R[inside], [a, 2.0 * a])
    W, Z, _, _ = orbit(np.log(at))
    fields = []
    for f in nls_fields(params, at, W, Z):
        fa, fb = f[n:]
        c1 = (fb - fa) / (3.0 * a * a)
        out = np.empty_like(R)
        out[inside] = f[:n]
        out[~inside] = fa - c1 * a * a + c1 * R[~inside] ** 2
        fields.append(out)
    return fields


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

S_FLOOR = 1e-300

#: below this the e^{(4-2r)s} prefactor is treated as exactly zero; at the
#: default s0 it sits around e^{-200}, far beneath any other error source
QP_COEF_FLOOR = 1e-30

#: largest exponent whose exp() is finite in double precision
_EXP_MAX = float(np.log(np.finfo(float).max))


def _require_finite_prefactor(r: float, s0: float, s_span: float) -> None:
    """DomainError when the quantum-pressure prefactor e^{(4-2r)s}
    overflows by s = s0 + s_span (r < 2 at large s)."""
    exponent = (4.0 - 2.0 * r) * (s0 + s_span)
    if exponent > _EXP_MAX:
        raise DomainError(
            f"quantum-pressure prefactor exp((4 - 2r) s) overflows at "
            f"r = {r:g}, s0 = {s0:g}: exponent (4 - 2r)(s0 + "
            f"s_span) = {exponent:.6g} > {_EXP_MAX:.6g}; lower s0")


def _require_finite_positive(s_span: float, ds: float | None) -> None:
    """DomainError unless s_span, and ds when given, are finite and > 0."""
    for name, value in (("s_span", s_span), ("ds", ds)):
        if value is not None and not 0.0 < value < np.inf:
            raise DomainError(f"{name} = {value}; need finite and > 0")


def _quantum_prefactor(params: ProfileParams, s: float) -> float:
    """The quantum-pressure prefactor e^{(4-2r)s}, or 0.0 when it is not
    above QP_COEF_FLOOR."""
    coef = np.exp((4.0 - 2.0 * params.r) * s)
    return coef if coef > QP_COEF_FLOOR else 0.0


def _stability_bound(U: np.ndarray, grid: RadialGrid, params: ProfileParams,
                     s: float, quantum: bool, cfl: float) -> np.ndarray:
    """The largest stable step of each run whose gradient field is a row of
    U: cfl h over the largest transport speed in x, |R + 2U|/R', and, with
    the quantum term on, at most cfl h^2 / (2 d e^{(4-2r)s})."""
    h = grid.h
    bound = cfl * h / np.maximum(np.max(grid.speed(U), axis=-1), 1e-30)
    coef = _quantum_prefactor(params, s) if quantum else 0.0
    if coef:
        bound = np.minimum(bound, cfl * h * h / (2.0 * params.d * coef))
    return bound


def _stationary_rhs(X: np.ndarray, dX: np.ndarray, grid: RadialGrid,
                    params: ProfileParams) -> np.ndarray:
    """The stationary part of _rhs: profile_operator at the stacked state X
    (X[0] Psi, X[1] S, one row per run) on the grid, given dX, its first
    R-derivative, with the grid's Laplacian of the Psi rows.  A new array
    of X's shape; a complex X gives a complex one."""
    return profile_operator(params, grid.R, X[0], dX[0], X[1], dX[1],
                            grid.laplacian(X[0], dX[0]))


def _quantum_term(S: np.ndarray, grid: RadialGrid,
                  params: ProfileParams) -> np.ndarray:
    """The quantum term of _rhs without its prefactor: Lap w + |grad w|^2
    for the half log-density w of each row of S where S > S_FLOOR, and 0
    elsewhere; w is taken at max(S, S_FLOOR), so it is finite."""
    w = _half_log_density(np.maximum(S, S_FLOOR), params)
    dw = grid.d1(w)
    return np.where(S > S_FLOOR, grid.laplacian(w, dw) + dw * dw, 0.0)


def _rhs(X: np.ndarray, dX: np.ndarray, grid: RadialGrid,
         params: ProfileParams, s: float, quantum: bool) -> np.ndarray:
    """Right side of the (Psi, S) system for the stacked state X on the
    grid, given dX, its first R-derivative; X[0] is Psi and X[1] is S,
    each holding one row per run.

    The result is the new array _stationary_rhs returns, of X's shape;
    when the quantum term is on, e^{(4-2r)s} times _quantum_term is added
    into the Psi rows in place.  Nothing is written into X or dX, and the
    result shares no memory with them or with any scratch array.
    """
    out = _stationary_rhs(X, dX, grid, params)
    coef = _quantum_prefactor(params, s) if quantum else 0.0
    if coef and np.any(X[1] > S_FLOOR):
        out[0] += coef * _quantum_term(X[1], grid, params)
    return out


def _advance(X: np.ndarray, grid: RadialGrid, params: ProfileParams,
             s: float, ds: float, quantum: bool,
             cfl: float) -> tuple[np.ndarray, float]:
    """One SSP-RK3 step from s to s + ds of the runs stacked in X; returns
    the new state and the smallest stability bound on ds of its runs.

    X has shape (2, k, n): X[0] holds Psi and X[1] holds S, one row per
    run, and every row steps exactly as it would alone.  One rule decides
    a failed step, for all runs at once:
      * every run's stability bound is read off X (see _stability_bound;
        the first derivative of the Psi rows is the gradient field U),
        and a ds above any of them is a CFLError before any stage runs;
      * otherwise all rows step;
      * then the rows are checked in order: a NaN density is a
        DomainError, a density that turns negative (or reaches zero from
        positive) a PositivityError.
    Each error names the row of the first run that fails, and no run
    steps alone: after any error, every run's last valid state is X.

    Each stage differentiates all rows once and takes the second
    derivative of the Psi rows.  The three stage combinations are formed
    in place, in the order of X1 = X + ds F1,
    X2 = 0.75 X + 0.25 (X1 + ds F2) and X/3 + 2/3 (X2 + ds F3), so the
    bits are those of the plain expressions.  Each F is the array _rhs
    returns, scaled and summed in place; the stage states live in one
    array allocated per step, which is the state returned.  X is only
    read, and the result shares no memory with X or with any array _rhs
    returned.
    """
    dX = grid.d1(X)
    bound = _stability_bound(dX[0], grid, params, s, quantum, cfl)
    over = np.flatnonzero(ds > bound)
    if over.size:
        j = over[0]
        # name the bound that binds: transport, unless the quantum one is less
        why = (f"transport: max|y+2U|/R' = {np.max(grid.speed(dX[0, j])):.3g}"
               if bound[j] == _stability_bound(dX[0, j], grid, params, s,
                                               False, cfl) else
               f"quantum: e^((4-2r)s) = {_quantum_prefactor(params, s):.4g}")
        raise CFLError(f"ds = {ds:.3e} exceeds the stability bound "
                       f"{bound[j]:.3e} of row {j} ({why})")

    Xn = np.empty_like(X)
    f = _rhs(X, dX, grid, params, s, quantum)
    np.multiply(f, ds, out=Xn)
    Xn += X                                         # X1
    f = _rhs(Xn, grid.d1(Xn), grid, params, s + ds, quantum)
    f *= ds
    f += Xn
    f *= 0.25
    np.multiply(X, 0.75, out=Xn)
    Xn += f                                         # X2
    f = _rhs(Xn, grid.d1(Xn), grid, params, s + 0.5 * ds, quantum)
    f *= ds
    f += Xn
    f *= 2.0 / 3.0
    np.divide(X, 3.0, out=Xn)
    Xn += f                                         # the new state

    for j, smin in enumerate(np.min(Xn[1], axis=-1)):
        if np.isnan(smin):
            raise DomainError(f"density of row {j} is NaN after the step "
                              f"from s = {s!r}")
        if smin < 0.0 or (smin == 0.0 and np.min(X[1, j]) > 0.0):
            raise PositivityError(f"density of row {j} lost positivity: "
                                  f"min S = {smin:.3e} after step")
    return Xn, float(np.min(bound))


def step(state: FieldSet, ds: float,
         quantum_pressure: bool = True) -> FieldSet:
    """One SSP-RK3 step of the (Psi, S) system from s to s + ds, on the
    state's grid, under the stability bound of EnergyConfig.cfl.

    The transport is outgoing at R_max (coefficient y + 2U > 0 there), so
    the boundary closure uses the one-sided stencils of the derivative
    operator; the center uses even reflection.  The stages run on plain
    arrays (see _advance, here with one run, in row 0); only the result
    is built and validated as a FieldSet.  A ds above the bound is
    a CFLError before the step, a NaN or negative density after it a
    DomainError or PositivityError.  With quantum pressure on, a
    prefactor e^{(4-2r)s} that overflows by s + ds is a DomainError
    before the step.
    """
    if quantum_pressure:
        _require_finite_prefactor(state.params.r, state.s, ds)
    X, _ = _advance(np.stack((state.Psi, state.S))[:, None], state.grid,
                    state.params, state.s, ds, quantum_pressure,
                    EnergyConfig.cfl)
    return FieldSet.from_Psi_S(state.params, state.grid, state.s + ds,
                               X[0, 0], X[1, 0])


# ---------------------------------------------------------------------------
# stationarity residuals
# ---------------------------------------------------------------------------

class StationaryResidual(NamedTuple):
    Psi: np.ndarray
    P: np.ndarray
    quantum_sup: float   # sup of the e^{(4-2r)s} term, reported either way


def residual_stationary(state: FieldSet) -> StationaryResidual:
    """The stepper's stationary right side at the state, on its grid: the
    rows of _stationary_rhs, with the derivatives _rhs takes.

    Psi is the N_Psi row.  P is the density residual, the N_S row mapped by
    the exact change of variables N_P = dP/dS N_S = P/(alpha S) N_S, with
    dP/dS = k (k S)^{1/alpha - 1}/alpha for P = (k S)^{1/alpha}, which
    stays finite at S = 0.  Both exclude the quantum term and vanish
    exactly on a profile.  quantum_sup is the term _rhs adds at s =
    state.s, reported separately: the unfloored e^{(4-2r)s} times the sup
    of _quantum_term, Lap w + |grad w|^2.
    """
    params, grid, S = state.params, state.grid, state.S
    X = np.stack((state.Psi, S))
    N_Psi, N_S = _stationary_rhs(X, grid.d1(X), grid, params)
    k = np.sqrt(params.alpha) / params.r ** (1.0 - params.alpha)
    dP_dS = k * (k * S) ** (1.0 / params.alpha - 1.0) / params.alpha
    quantum_sup = (np.exp((4.0 - 2.0 * params.r) * state.s)
                   * np.max(np.abs(_quantum_term(S, grid, params))))
    return StationaryResidual(Psi=N_Psi, P=dP_dS * N_S,
                              quantum_sup=float(quantum_sup))


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def energy_low(U_tilde: np.ndarray, S_tilde: np.ndarray, grid: RadialGrid,
               cfg: EnergyConfig, weights: Weights | None = None) -> float:
    """Low-derivative perturbation energy
    (1/2)(||beta^m' grad^m' U~||^2 + ||beta^m' grad^m' S~||^2) on the grid.

    Squared-norm convention: the source display sums unsquared norms with a
    1/2, but its s-derivative is then manipulated as a quadratic form, so
    the squared version is the one the estimates actually use.
    """
    if weights is None:
        weights = build_weights(grid, cfg)
    m = cfg.m_prime
    acc = m + 2 + (m % 2)   # stencil order >= m' + 2
    bm = weights.beta ** m
    du = grid.dR(np.asarray(U_tilde, dtype=float), m, acc=acc)
    ds_ = grid.dR(np.asarray(S_tilde, dtype=float), m, acc=acc)
    return 0.5 * (grid.quad((bm * du) ** 2) + grid.quad((bm * ds_) ** 2))


def energy_w(w: np.ndarray, grid: RadialGrid, cfg: EnergyConfig,
             weights: Weights | None = None) -> float:
    """Log-density energy  int beta^{2m'} |grad^{m'-1} w|^2 on the grid."""
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise VacuumError("w is not finite; vacuum in the density")
    if weights is None:
        weights = build_weights(grid, cfg)
    dw = grid.dR(w, cfg.m_prime - 1)
    return grid.quad(weights.beta ** (2 * cfg.m_prime) * dw * dw)


def energy_high(state: FieldSet, cfg: EnergyConfig,
                weights: Weights | None = None) -> float:
    """High-derivative energy E_{k-l} with weight P phi^l, l = cfg.l.

    E_{k-l} = int |grad^{k-l-1} S|^2 P phi^l + int |grad^{k-l} Psi|^2 P phi^l
              + e^{(4-2r)s} int |grad^{k-l} w|^2 P phi^l,
    the last term dropped while its prefactor is not above QP_COEF_FLOOR.
    """
    n = cfg.k - cfg.l
    grid = state.grid
    if weights is None:
        weights = build_weights(grid, cfg)
    wgt = state.P * weights.phi ** cfg.l
    dS = grid.dR(state.S, n - 1)
    dPsi = grid.dR(state.Psi, n)
    total = grid.quad(dS * dS * wgt) + grid.quad(dPsi * dPsi * wgt)
    coef = _quantum_prefactor(state.params, state.s)
    if coef:
        if not np.all(np.isfinite(state.w)):
            raise VacuumError("w not finite while its energy term is active")
        dw = grid.dR(state.w, n)
        total += coef * grid.quad(dw * dw * wgt)
    return total


# ---------------------------------------------------------------------------
# dissipativity probe
# ---------------------------------------------------------------------------

class DissipativityForm(NamedTuple):
    """The probe's quadratic forms over the 2N cosine-mode directions e_k:
    b_k as the Psi field for k < N, then b_{k-N} as the S field.  Q is
    sym(A) + X, with A_jk = <grad^m Lt e_k, grad^m e_j> and X the X-norm
    Gram."""

    Q: np.ndarray       # (2N, 2N)
    G_Psi: np.ndarray   # (N, N) <grad^(m+1) b_j, grad^(m+1) b_k>
    G_S: np.ndarray     # (N, N) <grad^m b_j, grad^m b_k>


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _dissipativity_form(table: ProfileTable, m: int, J: float, C0: float,
                        K: int, n: int, n_modes: int) -> DissipativityForm:
    """Assemble the probe's forms on the grid [0, 3 C0] of n points.

    The cut-off linearized operator is Lt e = chi2 L e - J (1 - chi1) e,
    with L the linearization at the profile of the stepper's stationary
    right side, _stationary_rhs: it is quadratic in its fields, so
    L e = Im _stationary_rhs(profile + i e), with every direction a run of
    one complex stacked state, whose derivatives the derivative operator
    takes as real and imaginary parts.  Every derivative is one stacked
    call over all directions, and every inner product uses the grid's
    quadrature weights.
    """
    params = table.params
    grid = RadialGrid.uniform(n, 3.0 * C0, params.d)
    R, h = grid.R, grid.h
    base = profile_fieldset(table, grid, 20.0)

    chi1 = _smooth_step((1.4 * C0 - R) / (0.2 * C0))
    chi2 = _smooth_step((1.8 * C0 - R) / (0.2 * C0))
    env = cutoff("hat", R / (3.0 * C0))
    modes = np.arange(K + 1, K + 1 + n_modes)
    b = env * np.cos(np.outer(modes, np.pi * R / (3.0 * C0)))
    E = np.zeros((2 * n_modes, 2, n))
    E[:n_modes, 0] = E[n_modes:, 1] = b
    # profile + i e, with the profile added in place: one complex
    # temporary, not two, and the bits of profile + 1j * e
    X = np.moveaxis(E, 1, 0) * 1j
    X += np.stack((base.Psi, base.S))[:, None]
    L = np.moveaxis(_stationary_rhs(X, grid.d1(X), grid, params).imag, 0, 1)
    Lt = chi2 * L - J * (1.0 - chi1) * E

    w = grid.weights

    def gram(F, G):
        return (F * w) @ G.T

    gLt = derivative(Lt, h, m, even=True)
    gb = derivative(b, h, m, even=True)
    gPsi = derivative(b, h, m + 1, even=True)
    A = np.concatenate((gram(gb, gLt[:, 0]), gram(gb, gLt[:, 1])))
    G_Psi, G_S, mass = _sym(gram(gPsi, gPsi)), _sym(gram(gb, gb)), gram(b, b)
    X = np.zeros_like(A)
    X[:n_modes, :n_modes] = G_Psi + mass
    X[n_modes:, n_modes:] = G_S + mass
    return DissipativityForm(Q=_sym(A + X), G_Psi=G_Psi, G_S=G_S)


def _trial_margins(form: DissipativityForm, coeffs: np.ndarray) -> np.ndarray:
    """lhs + X-norm^2 of each trial, v^T Q v for the normalised pair
    v = (c_Psi / nP, c_S / nS) with nP^2 = c_Psi^T G_Psi c_Psi and
    nS^2 = c_S^T G_S c_S; coeffs has shape (trials, 2, N).  A trial with a
    zero norm has no normalised pair and gets +inf, so it fails."""
    def quadratic(c, M):
        return np.sum((c @ M) * c, axis=-1)

    norms = np.sqrt(np.stack((quadratic(coeffs[:, 0], form.G_Psi),
                              quadratic(coeffs[:, 1], form.G_S)), axis=1))
    ok = np.all(norms > 0.0, axis=1)
    v = (coeffs[ok] / norms[ok, :, None]).reshape(np.count_nonzero(ok), -1)
    margins = np.full(len(coeffs), np.inf)
    margins[ok] = quadratic(v, form.Q)
    return margins


def dissipativity_probe(table: ProfileTable, m: int = 2, J: float = 2000.0,
                        C0: float = 2.0, K: int = 8, trials: int = 200,
                        seed: int = 0, n: int = 1025,
                        n_modes: int = 16) -> float:
    """Fraction of random high-mode pairs satisfying the damping inequality.

    Each trial draws a smooth radial pair supported in B(0, 3 C0) from
    cosine modes with radial frequency index above the low-mode cut K,
    normalised in the grad^(m+1) Psi and grad^m S norms, and tests
    int grad^m Lt . grad^m (pair) <= - X-norm^2 for the cut-off linearized
    operator Lt (chi2-localized transport and coupling around the profile,
    minus J damping outside chi1).  Lt is linear, so the form
    lhs + X-norm^2 is assembled once over the 2N mode directions as a
    symmetric matrix Q (see _dissipativity_form) and each trial is c^T Q c
    on its normalised coefficients c; the number of derivative calls does
    not grow with `trials`.

    A statistical probe, not a proof: the fraction covers the trial
    distribution only.  The worst case of the form over the same
    normalised set is positive at the defaults (about +1.1e3 at
    r = 2.01), so the inequality fails on directions the trials do not
    draw; J = K = 0 with a low-frequency bump fails outright, and the
    report says so.
    """
    if trials < 1:
        raise DomainError(f"trials = {trials}; need >= 1")
    form = _dissipativity_form(table, m, J, C0, K, n, n_modes)
    coeffs = np.random.default_rng(seed).standard_normal((trials, 2, n_modes))
    passed = int(np.count_nonzero(_trial_margins(form, coeffs) <= 0.0))
    return passed / trials


# ---------------------------------------------------------------------------
# blow-up rate diagnostic
# ---------------------------------------------------------------------------

def critical_sobolev_index(params: ProfileParams) -> float:
    """Index below which the homogeneous Sobolev norm stays bounded."""
    return params.d / (2.0 * (params.r - 1.0)) - 2.0 / (params.p - 1.0)


def exponent_formula(s_index: float, params: ProfileParams) -> float:
    """Growth exponent of ||grad^s v||^2 in powers of (T - t)."""
    r, alpha, d = params.r, params.alpha, params.d
    return (1.0 / (alpha * r) - 1.0 / alpha + d / r
            - 2.0 * s_index * (1.0 - 1.0 / r))


#: the blow-up fit's T - t samples: count and log10 range
BLOWUP_N_TIMES = 9
BLOWUP_LOG10_TT = (-40.0, -20.0)


def blowup_exponent(table: ProfileTable, s_exponent: int,
                    n_grid: int = 513) -> float:
    """Fitted (T-t) exponent of the profile's homogeneous Sobolev norm.

    Reconstructs v = sqrt(P) e^{i c(t) Psi} with c(t) = (T-t)^{2/r-1}/r on
    |y| <= 1, applies s radial derivatives, and fits log of the weighted
    integral against log(T-t); the frame prefactors enter the fit in log
    form, so arbitrarily small T-t costs nothing numerically.
    """
    params = table.params
    s_c = critical_sobolev_index(params)
    if s_exponent < s_c - 1e-12:
        raise DomainError(
            f"s = {s_exponent} is below the critical index {s_c:.4f}; "
            "no blow-up predicted")
    m = int(round(s_exponent))
    if abs(m - s_exponent) > 1e-9 or m < 1:
        raise DomainError("the desk diagnostic differentiates an integer "
                          "number of times")
    r, alpha, d = params.r, params.alpha, params.d
    grid = RadialGrid.uniform(n_grid, 1.0, d)
    base = profile_fieldset(table, grid, 10.0)
    A = 1.0 / (alpha * r) - 1.0 / alpha - 2.0 * m / r + d / r

    log_Tt = np.linspace(*BLOWUP_LOG10_TT, BLOWUP_N_TIMES) * np.log(10.0)
    c = np.exp((2.0 / r - 1.0) * log_Tt) / r
    g = derivative(np.sqrt(base.P) * np.exp(1j * c[:, None] * base.Psi),
                   grid.h, m, even=True)
    I = [grid.quad(gi.real * gi.real + gi.imag * gi.imag) for gi in g]
    logN = A * log_Tt + np.log(I)
    return float(np.polyfit(log_Tt, logN, 1)[0])


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

@dataclass
class EnergyReport:
    """Time series of energies and residuals for one evolution run.

    sup_residual_Psi and sup_residual_S are sup |residual_stationary(ref).Psi|
    and sup |residual_stationary(ref).P| on the reference run: the N_Psi
    row of the stepper's stationary right side, and its N_S row mapped to
    the density residual P/(alpha S) N_S.  The second is a density
    residual, not an S residual, and keeps its name because it is a CSV
    header of the simulate artifact.  quantum_sup is residual_stationary's:
    the sup of _rhs's quantum term at the sample's s, its prefactor
    unfloored.

    The stepper's record: n_steps steps of size ds, the smallest ratio of
    a step's stability bound to ds over the steps taken (cfl_headroom,
    None before the first step), and the grid's payload.
    """

    config: EnergyConfig
    s: list = field(default_factory=list)
    E_low: list = field(default_factory=list)
    E_w: list = field(default_factory=list)
    E_high: list = field(default_factory=list)
    sup_residual_Psi: list = field(default_factory=list)
    sup_residual_S: list = field(default_factory=list)
    Linf_Stilde: list = field(default_factory=list)
    Linf_Psitilde: list = field(default_factory=list)
    boundary_flux: list = field(default_factory=list)
    drift_Linf_S: list = field(default_factory=list)
    quantum_sup: list = field(default_factory=list)
    max_rel_Stilde: float = 0.0
    wall_time: float = 0.0
    input_hash: str = ""
    n_steps: int = 0
    ds: float = 0.0
    cfl_headroom: float | None = None
    grid: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("s,E_low,E_w,E_high_l,sup_residual_Psi,sup_residual_S,"
                  "Linf_Stilde,Linf_Psitilde,boundary_flux,drift_Linf_S,"
                  "quantum_sup\n")
        for row in zip(self.s, self.E_low, self.E_w, self.E_high,
                       self.sup_residual_Psi, self.sup_residual_S,
                       self.Linf_Stilde, self.Linf_Psitilde,
                       self.boundary_flux, self.drift_Linf_S,
                       self.quantum_sup):
            buf.write(",".join(f"{x:.17g}" for x in row) + "\n")
        return buf.getvalue()

    def payload(self) -> dict:
        """The JSON-ready run summary."""
        return {"config": asdict(self.config),
                "orders": {"m_prime": self.config.m_prime,
                           "k": self.config.k, "l": self.config.l},
                "input_hash": self.input_hash,
                "samples": len(self.s),
                "max_rel_Stilde": self.max_rel_Stilde,
                "wall_time": self.wall_time,
                "n_steps": self.n_steps, "ds": self.ds,
                "cfl_headroom": self.cfl_headroom, "grid": self.grid}


def _hash_inputs(table: ProfileTable, cfg: EnergyConfig, extra: dict) -> str:
    hsh = hashlib.sha256()
    hsh.update(json.dumps(asdict(cfg), sort_keys=True).encode())
    hsh.update(json.dumps(extra, sort_keys=True).encode())
    hsh.update(np.ascontiguousarray(table.S_nls).tobytes())
    return hsh.hexdigest()


def _step_plan(s_span: float, ds: float,
               n_samples: int) -> tuple[int, float]:
    """simulate's step count n_steps = ceil(s_span/ds) and the step
    s_span/n_steps that divides s_span; a DomainError unless
    2 <= n_samples <= n_steps + 1."""
    n_steps = int(np.ceil(s_span / ds))
    if not 2 <= n_samples <= n_steps + 1:
        raise DomainError(
            f"n_samples = {n_samples} needs 2 <= n_samples <= n_steps + 1 "
            f"with n_steps = {n_steps}: the samples are distinct steps, "
            f"the first and the last among them")
    return n_steps, s_span / n_steps


#: map scale c of simulate's grid R = c sinh(x/c); None steps on the
#: uniform grid instead
SIMULATE_GRID_C: float | None = 4.0


def simulate(table: ProfileTable, cfg: EnergyConfig | None = None,
             s_span: float = 1.0, n: int = 2048, R_max: float = 30.0,
             quantum_pressure: bool = True, n_samples: int = 11,
             ds: float | None = None) -> EnergyReport:
    """Evolve damped profile + delta_low perturbation over [s0, s0+s_span].

    On the desk window R <= R_max at large s0 the damped profile's
    cut-offs sit on their plateaus, so the reference is the profile
    itself.  The default perturbation is a smooth bump of size delta_low
    supported strictly outside the sonic point, where both characteristic
    families are outgoing: it advects out through the boundary instead of
    exciting the profile's unstable directions, the desk analogue of
    initial data prepared on the stable set.

    The n nodes sit on the stretched grid R = c sinh(x/c) with
    c = SIMULATE_GRID_C (see RadialGrid): spacing h at the centre and
    about h R/c outward.  Outgoing self-similar transport is a translation
    in log R, and its speed in x, |R + 2U|/R', stays near c where on the
    uniform grid it reaches R_max, so at the same centre spacing the CFL
    step is about R_max/c times longer.  s_span, and ds when given, must
    be finite and > 0 (a DomainError before the profile is sampled).
    Unless given, ds is the largest step that divides s_span and stays
    within 0.9/1.1 of the reference run's initial stability bound with
    the quantum term off (_stability_bound).

    An unperturbed reference run is stepped in lockstep with the same
    discretization; perturbation fields are the difference of the two
    runs, so finite-resolution drift of the discrete profile (largest at
    the corner, where the grid barely resolves the matching region) does
    not contaminate the perturbation energies.  The drift itself is
    reported per sample as drift_Linf_S, and the residual sups are taken
    on the reference run: together they are the residual-floor check for
    the zero-perturbation dynamics.  Energies, residual sups and the
    (reported, unused) boundary flux are sampled n_samples times, every
    R-derivative and integral on the same grid: at s0, at the end of the
    run and at distinct steps between, so n_samples outside
    2 <= n_samples <= n_steps + 1 is a DomainError before the first
    step.  The report records the step count, ds, the smallest CFL
    headroom and the grid.

    Both runs step as one stacked (2, 2, n) array, (Psi, S) x (perturbed,
    reference), through one _advance call per step; every row is
    bit-identical to stepping its run alone.  A step fails as a whole
    under _advance's one rule, and its error names the failing run's
    row: 0 for the perturbed run, 1 for the reference.  The perturbation
    exists only where both runs are valid, so on a CFL or positivity
    abort the perturbed run's last good state is its state at the start
    of the failing step, whichever run failed; it is attached to the
    error as `last_good`, with the samples so far as `partial_report`.
    Validated FieldSets are built only at the sample points and for
    `last_good`.  A prefactor e^{(4-2r)s} that
    overflows on the run's span (r < 2 at large s0) is a DomainError
    before any step, with quantum pressure on or off: every sample's
    energy_high and residual_stationary use it.

    The run is ill-conditioned in its input table: at r = 2.01 and the
    defaults, a change of at most 5e-11 in W and Z moved sup_residual_Psi
    by 0.72 % and drift_Linf_S by 0.35 %, and boundary_flux from 3.56e-5
    to 2.74e-4 at a sample where it is tiny against its peak of 711.
    Digits of the report past about the third are not a property of the
    profile.
    """
    import time
    t0 = time.perf_counter()
    if cfg is None:
        cfg = EnergyConfig()
    params = table.params
    _require_finite_positive(s_span, ds)
    _require_finite_prefactor(params.r, cfg.s0, s_span)
    if SIMULATE_GRID_C is None:
        grid = RadialGrid.uniform(n, R_max, params.d)
    else:
        grid = RadialGrid.sinh(n, R_max, SIMULATE_GRID_C, params.d)
    R = grid.R

    def fields(s, Psi, S):
        return FieldSet.from_Psi_S(params, grid, s, Psi, S)

    base = profile_fieldset(table, grid, cfg.s0)
    weights = build_weights(grid, cfg)
    bump = cutoff("tilde", R / R_max) * cutoff("hat", R / (1.2 * R_max))
    state = fields(cfg.s0, base.Psi + cfg.delta_low * bump,
                   base.S * (1.0 + cfg.delta_low * bump))

    if ds is None:
        ds = 0.9 / 1.1 * float(_stability_bound(base.U, grid, params,
                                                cfg.s0, False, cfg.cfl))
    n_steps, ds = _step_plan(s_span, ds, n_samples)
    sample_at = set(np.linspace(0, n_steps, n_samples).astype(int))

    report = EnergyReport(config=cfg, n_steps=n_steps, ds=ds,
                          grid=grid.payload())
    report.input_hash = _hash_inputs(
        table, cfg, {"n": n, "R_max": R_max, "s_span": s_span,
                     "quantum": quantum_pressure, "ds": ds,
                     "grid": grid.kind, "c": grid.c})

    def sample(st, ref):
        U_t = st.U - ref.U
        S_t = st.S - ref.S
        res = residual_stationary(ref)
        m = cfg.m_prime
        bm = weights.beta ** m
        du = grid.dR(U_t, m)
        dst = grid.dR(S_t, m)
        flux = 0.5 * R_max ** st.params.d * ((bm[-1] * du[-1]) ** 2
                                             + (bm[-1] * dst[-1]) ** 2)
        report.s.append(st.s)
        report.E_low.append(energy_low(U_t, S_t, grid, cfg, weights))
        report.E_w.append(energy_w(st.w, grid, cfg, weights))
        report.E_high.append(energy_high(st, cfg, weights=weights))
        report.sup_residual_Psi.append(float(np.max(np.abs(res.Psi))))
        report.sup_residual_S.append(float(np.max(np.abs(res.P))))
        report.Linf_Stilde.append(float(np.max(np.abs(S_t))))
        report.Linf_Psitilde.append(float(np.max(np.abs(U_t))))
        report.boundary_flux.append(float(flux))
        report.drift_Linf_S.append(float(np.max(np.abs(ref.S - base.S))))
        report.quantum_sup.append(res.quantum_sup)
        rel = float(np.max(np.abs(S_t) / base.S))
        report.max_rel_Stilde = max(report.max_rel_Stilde, rel)

    sample(state, base)
    s = state.s
    X = np.array([[state.Psi, base.Psi], [state.S, base.S]])
    try:
        for i in range(1, n_steps + 1):
            X, bound = _advance(X, grid, params, s, ds, quantum_pressure,
                                cfg.cfl)
            s = s + ds
            headroom = bound / ds
            if report.cfl_headroom is None or headroom < report.cfl_headroom:
                report.cfl_headroom = headroom
            if i in sample_at:
                sample(fields(s, X[0, 0], X[1, 0]),
                       fields(s, X[0, 1], X[1, 1]))
    except (CFLError, PositivityError) as err:
        # callers that write artifacts want the last valid state and the
        # samples collected so far; X is still the failing step's start
        report.wall_time = time.perf_counter() - t0
        err.last_good = fields(s, X[0, 0], X[1, 0])
        err.partial_report = report
        raise
    report.wall_time = time.perf_counter() - t0
    return report
