"""Desk-scale radial dynamics in the self-similar frame.

The stepper advances the (Psi, S) system with quantum pressure by an
explicit strong-stability-preserving third-order scheme on a uniform
radial grid.  Its stages run on plain arrays, with one even-reflection
derivative of Psi per stage; validated FieldSets are built only where a
caller needs one (step's result, simulate's sample points and abort
snapshots).  Stationarity residuals, the weighted energy functionals, a
statistical dissipativity probe of the cut-off linearized operator, and a
Sobolev blow-up-rate diagnostic live alongside it.  Everything reduces the
d = 8 problem to its radial form: Lap f = f'' + 7 f'/R with the regular
center value d f''(0), div U = Lap Psi for the gradient field U.

Desk scale means the configured derivative orders (m' = 3, k = 6) sit far
below the asymptotic regime the estimates are stated for; reports carry
the configured orders so no number is mistaken for the continuum claim.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.interpolate import make_interp_spline

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
from .profile_solver import ProfileTable
from .selfsimilar_fields import (
    FieldSet,
    _even_d1,
    _even_d2,
    _laplacian_from,
    _smooth_step,
    cutoff,
    radial_laplacian,
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
    enforced as ratio checks with factor `hierarchy_ratio`; E_global, eps
    and delta_low have no constructive values at source and are desk-scale
    knobs here.
    """

    m_prime: int = 3
    k: int = 6
    l: int = 0
    R0: float = 20.0
    beta_exponent: float = 0.1
    phi_exponent: float = 2.0
    eps: float = 0.05
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

    R: np.ndarray
    beta: np.ndarray
    phi: np.ndarray
    R0: float
    max_grad_ratio_phi: float


def _tail_weight(R: np.ndarray, R0: float, exponent: float) -> np.ndarray:
    blend = _smooth_step((R - R0) / (3.0 * R0))
    safe = np.maximum(R / R0, 1.0)
    return np.exp(exponent * blend * np.log(safe))


def build_weights(R: np.ndarray, cfg: EnergyConfig) -> Weights:
    R = np.asarray(R, dtype=float)
    beta = _tail_weight(R, cfg.R0, cfg.beta_exponent)
    phi = _tail_weight(R, cfg.R0, cfg.phi_exponent)
    if len(R) > 8 and R[1] > R[0]:
        dphi = derivative(phi, float(R[1] - R[0]), 1)
        ratio = float(np.max(np.abs(dphi) / phi))
    else:
        ratio = 0.0
    return Weights(R=R, beta=beta, phi=phi, R0=cfg.R0,
                   max_grad_ratio_phi=ratio)


# ---------------------------------------------------------------------------
# profile interpolation onto evolution grids
# ---------------------------------------------------------------------------

class ProfileGradients(NamedTuple):
    """Derivative columns interpolated from the solver's own output.

    Differencing the tabulated fields cannot beat the integrator's
    node-scale output noise once it is divided by a grid spacing; these
    columns inherit the solver's value-level accuracy instead.
    """

    dPsi: np.ndarray     # d_R Psi
    dP: np.ndarray       # d_R P
    lapPsi: np.ndarray   # Lap Psi in d dimensions


def _spline_to_grid(table_R: np.ndarray, col: np.ndarray,
                    R_grid: np.ndarray, odd: bool = False) -> np.ndarray:
    spl = make_interp_spline(table_R, col, k=5)
    a = table_R[0]
    vals = np.empty_like(R_grid)
    inside = R_grid >= a
    vals[inside] = spl(R_grid[inside])
    if np.any(~inside):
        fa, fb = float(spl(a)), float(spl(2.0 * a))
        if odd:
            # odd fields vanish linearly at the regular center
            vals[~inside] = fa / a * R_grid[~inside]
        else:
            c1 = (fb - fa) / (3.0 * a * a)
            vals[~inside] = fa - c1 * a * a + c1 * R_grid[~inside] ** 2
    return vals


def profile_fieldset(table: ProfileTable, R_grid: np.ndarray, s: float,
                     domain_mode: str = "euclidean",
                     with_gradients: bool = False):
    """Evaluate the solved profile on a uniform grid containing R = 0.

    Quintic splines over the table's log-spaced nodes interpolate Psi and
    S; the (at most one) node below the table's reach is filled by the
    even quadratic through the two innermost evaluations, consistent with
    the fields' regularity at the center.  With `with_gradients` the
    table's own derivative columns are interpolated too and returned as a
    second value.
    """
    if table.S_nls is None:
        raise DomainError("physical columns missing; call to_physical first")
    R_grid = np.asarray(R_grid, dtype=float)
    if R_grid[-1] > table.R[-1] * (1.0 + 1e-12):
        raise RangeError(
            f"grid reaches R = {R_grid[-1]:.4g} beyond table coverage "
            f"{table.R[-1]:.4g}")
    Psi = _spline_to_grid(table.R, table.Psi_nls, R_grid)
    S = _spline_to_grid(table.R, table.S_nls, R_grid)
    fs = FieldSet.from_Psi_S(table.params, R_grid, s, Psi, S,
                             domain_mode=domain_mode)
    if not with_gradients:
        return fs
    d = table.params.d
    dPsi = _spline_to_grid(table.R, table.U_nls, R_grid, odd=True)
    dS = _spline_to_grid(table.R, 0.5 * table.dR_Sbar, R_grid, odd=True)
    lap_tab = 0.5 * table.dR_Ubar + (d - 1) / table.R * table.U_nls
    lapPsi = _spline_to_grid(table.R, lap_tab, R_grid)
    # P = (S sqrt(alpha)/r^(1-alpha))^(1/alpha); chain rule off the table
    alpha = table.params.alpha
    dP = fs.P * dS / (alpha * np.maximum(S, 1e-300))
    grads = ProfileGradients(dPsi=dPsi, dP=dP, lapPsi=lapPsi)
    return fs, grads


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

S_FLOOR = 1e-300

#: below this the e^{(4-2r)s} prefactor is treated as exactly zero; at the
#: default s0 it sits around e^{-200}, far beneath any other error source
QP_COEF_FLOOR = 1e-30

#: largest exponent whose exp() is finite in double precision
_EXP_MAX = float(np.log(np.finfo(float).max))


def _log_density(S: np.ndarray, params: ProfileParams) -> np.ndarray:
    alpha = params.alpha
    with np.errstate(divide="ignore"):
        return (np.log(S * np.sqrt(alpha) / params.r ** (1.0 - alpha))
                / (2.0 * alpha))


def _rhs(Psi: np.ndarray, dPsi: np.ndarray, S: np.ndarray, R: np.ndarray,
         h: float, params: ProfileParams, s: float, quantum: bool
         ) -> tuple[np.ndarray, np.ndarray]:
    r, alpha, d = params.r, params.alpha, params.d
    dS = _even_d1(S, h)
    lapPsi = _laplacian_from(dPsi, _even_d2(Psi, h), R, d)
    qp = 0.0
    coef = np.exp((4.0 - 2.0 * r) * s)
    if quantum and coef > QP_COEF_FLOOR and np.any(S > S_FLOOR):
        w = _log_density(np.maximum(S, S_FLOOR), params)
        dw = _even_d1(w, h)
        qp = coef * (_laplacian_from(dw, _even_d2(w, h), R, d) + dw * dw)
        qp = np.where(S > S_FLOOR, qp, 0.0)
    rhs_Psi = -(r - 2.0) * Psi - R * dPsi - dPsi * dPsi - alpha * S * S + qp
    rhs_S = (-(r - 1.0) * S - R * dS - 2.0 * dS * dPsi
             - 2.0 * alpha * S * lapPsi)
    return rhs_Psi, rhs_S


def _advance(Psi: np.ndarray, S: np.ndarray, R: np.ndarray, h: float,
             params: ProfileParams, s: float, ds: float, quantum: bool,
             cfl: float) -> tuple[np.ndarray, np.ndarray]:
    """One SSP-RK3 step of the (Psi, S) arrays from s to s + ds.

    Each stage differentiates Psi once and builds the Laplacian from that
    derivative; stage 1's dPsi is the gradient field U, so the CFL bound
    is read off it.  Raises CFLError, PositivityError, or DomainError when
    S turns NaN.
    """
    dPsi = _even_d1(Psi, h)
    amax = float(np.max(np.abs(R + 2.0 * dPsi)))
    bound = cfl * h / max(amax, 1e-30)
    coef = np.exp((4.0 - 2.0 * params.r) * s)
    if quantum and coef > QP_COEF_FLOOR:
        bound = min(bound, cfl * h * h / (2.0 * params.d * coef))
    if ds > bound:
        raise CFLError(f"ds = {ds:.3e} exceeds the stability bound "
                       f"{bound:.3e} (max|y+2U| = {amax:.3g})")

    def F(P_, S_, s_, dP_):
        return _rhs(P_, dP_, S_, R, h, params, s_, quantum)

    f1 = F(Psi, S, s, dPsi)
    P1 = Psi + ds * f1[0]
    S1 = S + ds * f1[1]
    f2 = F(P1, S1, s + ds, _even_d1(P1, h))
    P2 = 0.75 * Psi + 0.25 * (P1 + ds * f2[0])
    S2 = 0.75 * S + 0.25 * (S1 + ds * f2[1])
    f3 = F(P2, S2, s + 0.5 * ds, _even_d1(P2, h))
    Pn = Psi / 3.0 + 2.0 / 3.0 * (P2 + ds * f3[0])
    Sn = S / 3.0 + 2.0 / 3.0 * (S2 + ds * f3[1])

    smin = np.min(Sn)
    if np.isnan(smin):
        raise DomainError(f"density is NaN after the step from s = {s!r}")
    if smin < 0.0 or (smin == 0.0 and np.min(S) > 0.0):
        raise PositivityError(
            f"density lost positivity: min S = {smin:.3e} after step")
    return Pn, Sn


def step(state: FieldSet, ds: float, quantum_pressure: bool = True,
         cfl: float = 0.9) -> FieldSet:
    """One SSP-RK3 step of the (Psi, S) system from s to s + ds.

    The transport is outgoing at R_max (coefficient y + 2U > 0 there), so
    the boundary closure uses the one-sided stencils of the derivative
    operator; the center uses even reflection.  The stages run on plain
    arrays (see _advance); only the result is built and validated as a
    FieldSet.
    """
    Psi, S = _advance(state.Psi, state.S, state.R, state.h, state.params,
                      state.s, ds, quantum_pressure, cfl)
    return FieldSet.from_Psi_S(state.params, state.R, state.s + ds, Psi, S,
                               domain_mode=state.domain_mode)


# ---------------------------------------------------------------------------
# stationarity residuals
# ---------------------------------------------------------------------------

class StationaryResidual(NamedTuple):
    Psi: np.ndarray
    P: np.ndarray
    quantum_sup: float   # sup of the e^{(4-2r)s} term, reported either way


def residual_stationary(state: FieldSet, s: float | None = None,
                        include_quantum: bool = False, acc: int = 8,
                        gradients: ProfileGradients | None = None
                        ) -> StationaryResidual:
    """Right sides of the stationary (Psi, P) system on the state's grid.

    With the e^{(4-2r)s} term excluded this vanishes exactly on a profile;
    the term's supremum e^{(4-2r)s} sup|Lap sqrt(P)/sqrt(P)| is evaluated
    and reported regardless, added to the Psi residual only on request.
    Gradients default to finite differences, whose floor on spline-sampled
    solver output is the integrator's node noise divided by h; passing the
    profile's own derivative columns (see profile_fieldset) avoids that.
    """
    if s is None:
        s = state.s
    r, alpha = state.params.r, state.params.alpha
    R, h = state.R, state.h
    Psi, P = state.Psi, state.P

    if gradients is not None:
        dPsi, dP, lapPsi = gradients.dPsi, gradients.dP, gradients.lapPsi
    else:
        dPsi = _even_d1(Psi, h, acc=acc)
        dP = _even_d1(P, h, acc=acc)
        lapPsi = radial_laplacian(Psi, R, h, d=state.params.d, acc=acc)
    res_Psi = ((2.0 - r) * Psi - R * dPsi - dPsi * dPsi
               - r ** (-2.0 * alpha + 2.0) * P ** (2.0 * alpha))
    res_P = ((1.0 - r) / alpha * P - R * dP - 2.0 * dP * dPsi
             - 2.0 * P * lapPsi)
    lapP = radial_laplacian(P, R, h, d=state.params.d, acc=acc)
    with np.errstate(divide="ignore", invalid="ignore"):
        quantum = (np.exp((4.0 - 2.0 * r) * s)
                   * (lapP / (2.0 * P) - dP * dP / (4.0 * P * P)))
    quantum = np.where(P > 0.0, quantum, 0.0)
    if include_quantum:
        res_Psi = res_Psi + quantum
    return StationaryResidual(Psi=res_Psi, P=res_P,
                              quantum_sup=float(np.max(np.abs(quantum))))


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def _quad(f: np.ndarray, R: np.ndarray, d: int = 8) -> float:
    return float(np.trapezoid(f * R ** (d - 1), R))


def energy_low(U_tilde: np.ndarray, S_tilde: np.ndarray, R: np.ndarray,
               cfg: EnergyConfig, weights: Weights | None = None) -> float:
    """Low-derivative perturbation energy
    (1/2)(||beta^m' grad^m' U~||^2 + ||beta^m' grad^m' S~||^2).

    Squared-norm convention: the source display sums unsquared norms with a
    1/2, but its s-derivative is then manipulated as a quadratic form, so
    the squared version is the one the estimates actually use.
    """
    if weights is None:
        weights = build_weights(R, cfg)
    h = float(R[1] - R[0])
    m = cfg.m_prime
    acc = m + 2 + (m % 2)   # stencil order >= m' + 2
    bm = weights.beta ** m
    du = derivative(np.asarray(U_tilde, dtype=float), h, m, acc=acc)
    ds_ = derivative(np.asarray(S_tilde, dtype=float), h, m, acc=acc)
    return 0.5 * (_quad((bm * du) ** 2, R) + _quad((bm * ds_) ** 2, R))


def energy_w(w: np.ndarray, R: np.ndarray, cfg: EnergyConfig,
             weights: Weights | None = None) -> float:
    """Log-density energy  int beta^{2m'} |grad^{m'-1} w|^2."""
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise VacuumError("w is not finite; vacuum in the density")
    if weights is None:
        weights = build_weights(R, cfg)
    h = float(R[1] - R[0])
    dw = derivative(w, h, cfg.m_prime - 1)
    return _quad(weights.beta ** (2 * cfg.m_prime) * dw * dw, R)


def energy_high(state: FieldSet, cfg: EnergyConfig, l: int | None = None,
                weights: Weights | None = None) -> float:
    """High-derivative energy E_{k-l} with weight P phi^l.

    E_{k-l} = int |grad^{k-l-1} S|^2 P phi^l + int |grad^{k-l} Psi|^2 P phi^l
              + e^{(4-2r)s} int |grad^{k-l} w|^2 P phi^l.
    """
    if l is None:
        l = cfg.l
    n = cfg.k - l
    if n - 1 < 1:
        raise ConsistencyError("need k - l - 1 >= 1")
    if weights is None:
        weights = build_weights(state.R, cfg)
    R, h = state.R, state.h
    wgt = state.P * weights.phi ** l
    dS = derivative(state.S, h, n - 1)
    dPsi = derivative(state.Psi, h, n)
    total = _quad(dS * dS * wgt, R) + _quad(dPsi * dPsi * wgt, R)
    coef = np.exp((4.0 - 2.0 * state.params.r) * state.s)
    if coef > QP_COEF_FLOOR:
        if not np.all(np.isfinite(state.w)):
            raise VacuumError("w not finite while its energy term is active")
        dw = derivative(state.w, h, n)
        total += coef * _quad(dw * dw * wgt, R)
    return total


# ---------------------------------------------------------------------------
# dissipativity probe
# ---------------------------------------------------------------------------

def dissipativity_probe(table: ProfileTable, m: int = 2, J: float = 2000.0,
                        C0: float = 2.0, K: int = 8, trials: int = 200,
                        seed: int = 0, n: int = 1025,
                        n_modes: int = 16) -> float:
    """Fraction of random high-mode pairs satisfying the damping inequality.

    Each trial draws a smooth radial pair supported in B(0, 3 C0) from
    cosine modes with radial frequency index above the low-mode cut K,
    assembles the cut-off linearized operator (chi2-localized transport
    and coupling around the profile, minus J damping outside chi1), and
    tests  int grad^m L_t . grad^m (field)  <= - X-norm^2.  A statistical
    probe, not a proof: J = K = 0 with a low-frequency bump fails, and the
    report says so.
    """
    r = table.params.r
    alpha = table.params.alpha
    d = table.params.d
    R = np.linspace(0.0, 3.0 * C0, n)
    h = R[1] - R[0]
    base = profile_fieldset(table, R, 20.0)
    S_p = base.S
    dPsi_p = _even_d1(base.Psi, h)
    dS_p = _even_d1(S_p, h)
    lapPsi_p = _laplacian_from(dPsi_p, _even_d2(base.Psi, h), R, d)

    chi1 = _smooth_step((1.4 * C0 - R) / (0.2 * C0))
    chi2 = _smooth_step((1.8 * C0 - R) / (0.2 * C0))
    env = cutoff("hat", R / (3.0 * C0))
    modes = np.arange(K + 1, K + 1 + n_modes)
    basis = np.cos(np.outer(modes, np.pi * R / (3.0 * C0)))

    rng = np.random.default_rng(seed)
    passed = 0
    for _ in range(trials):
        Psi_t = env * (rng.standard_normal(n_modes) @ basis)
        S_t = env * (rng.standard_normal(n_modes) @ basis)
        nP = np.sqrt(_quad(derivative(Psi_t, h, m + 1, even=True) ** 2, R, d))
        nS = np.sqrt(_quad(derivative(S_t, h, m, even=True) ** 2, R, d))
        if nP == 0.0 or nS == 0.0:
            continue
        Psi_t, S_t = Psi_t / nP, S_t / nS
        dPsi_t = _even_d1(Psi_t, h)
        dS_t = _even_d1(S_t, h)
        lapPsi_t = _laplacian_from(dPsi_t, _even_d2(Psi_t, h), R, d)
        L_psi = (-(r - 2.0) * Psi_t - R * dPsi_t - 2.0 * dPsi_p * dPsi_t
                 - 2.0 * alpha * S_p * S_t)
        L_s = (-(r - 1.0) * S_t - R * dS_t - 2.0 * dS_p * dPsi_t
               - 2.0 * dS_t * dPsi_p - 2.0 * alpha * S_p * lapPsi_t
               - 2.0 * alpha * S_t * lapPsi_p)
        L_psi_t = chi2 * L_psi - J * (1.0 - chi1) * Psi_t
        L_s_t = chi2 * L_s - J * (1.0 - chi1) * S_t
        gPsi = derivative(Psi_t, h, m, even=True)
        gS = derivative(S_t, h, m, even=True)
        lhs = (_quad(derivative(L_psi_t, h, m, even=True) * gPsi, R, d)
               + _quad(derivative(L_s_t, h, m, even=True) * gS, R, d))
        xnorm2 = (_quad(derivative(Psi_t, h, m + 1, even=True) ** 2, R, d)
                  + _quad(gS ** 2, R, d)
                  + _quad(Psi_t ** 2, R, d) + _quad(S_t ** 2, R, d))
        if lhs <= -xnorm2:
            passed += 1
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


def blowup_exponent(table: ProfileTable, s_exponent: int, T: float = 1.0,
                    n_times: int = 9, n_grid: int = 513,
                    log10_Tt: tuple = (-40.0, -20.0)) -> float:
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
    R = np.linspace(0.0, 1.0, n_grid)
    base = profile_fieldset(table, R, 10.0)
    sqrtP = np.sqrt(base.P)
    h = R[1] - R[0]
    A = 1.0 / (alpha * r) - 1.0 / alpha - 2.0 * m / r + d / r

    log_Tt = np.linspace(log10_Tt[0], log10_Tt[1], n_times) * np.log(10.0)
    logN = np.empty(n_times)
    for i, lt in enumerate(log_Tt):
        c = np.exp((2.0 / r - 1.0) * lt) / r
        v = sqrtP * np.exp(1j * c * base.Psi)
        g_re = derivative(v.real, h, m, even=True)
        g_im = derivative(v.imag, h, m, even=True)
        I = _quad(g_re * g_re + g_im * g_im, R, d)
        logN[i] = A * lt + np.log(I)
    return float(np.polyfit(log_Tt, logN, 1)[0])


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

@dataclass
class EnergyReport:
    """Time series of energies and residuals for one evolution run."""

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

    def manifest(self) -> str:
        payload = {"config": asdict(self.config),
                   "orders": {"m_prime": self.config.m_prime,
                              "k": self.config.k, "l": self.config.l},
                   "input_hash": self.input_hash,
                   "samples": len(self.s),
                   "max_rel_Stilde": self.max_rel_Stilde,
                   "wall_time": self.wall_time}
        return json.dumps(payload, indent=2, sort_keys=True)


def _hash_inputs(table: ProfileTable, cfg: EnergyConfig, extra: dict) -> str:
    hsh = hashlib.sha256()
    hsh.update(json.dumps(asdict(cfg), sort_keys=True).encode())
    hsh.update(json.dumps(extra, sort_keys=True).encode())
    hsh.update(np.ascontiguousarray(table.S_nls).tobytes())
    return hsh.hexdigest()


def simulate(table: ProfileTable, cfg: EnergyConfig | None = None,
             s_span: float = 1.0, n: int = 4096, R_max: float = 30.0,
             quantum_pressure: bool = True, n_samples: int = 11,
             domain_mode: str = "euclidean",
             ds: float | None = None) -> EnergyReport:
    """Evolve damped profile + delta_low perturbation over [s0, s0+s_span].

    On the desk window R <= R_max at large s0 the damped profile's
    cut-offs sit on their plateaus, so the reference is the profile
    itself.  The default perturbation is a smooth bump of size delta_low
    supported strictly outside the sonic point, where both characteristic
    families are outgoing: it advects out through the boundary instead of
    exciting the profile's unstable directions, the desk analogue of
    initial data prepared on the stable set.

    An unperturbed reference run is advanced in lockstep with the same
    discretization; perturbation fields are the difference of the two
    runs, so finite-resolution drift of the discrete profile (largest at
    the corner, where the grid barely resolves the matching region) does
    not contaminate the perturbation energies.  The drift itself is
    reported per sample as drift_Linf_S, and the residual sups are taken
    on the reference run: together they are the residual-floor check for
    the zero-perturbation dynamics.  Energies, residual sups and the
    (reported, unused) boundary flux are sampled n_samples times.

    Both runs are stepped as plain (Psi, S) arrays; validated FieldSets
    are built only at the sample points and, on a CFL or positivity
    abort, for the perturbed run's last good state (attached to the error
    as `last_good`, with the samples so far as `partial_report`).  With
    quantum pressure on, a prefactor e^{(4-2r)s} that overflows on the
    run's span (r < 2 at large s0) is a DomainError before any step.
    """
    import time
    t0 = time.perf_counter()
    if cfg is None:
        cfg = EnergyConfig()
    params = table.params
    exponent = (4.0 - 2.0 * params.r) * (cfg.s0 + s_span)
    if quantum_pressure and exponent > _EXP_MAX:
        raise DomainError(
            f"quantum-pressure prefactor exp((4 - 2r) s) overflows at "
            f"r = {params.r:g}, s0 = {cfg.s0:g}: exponent (4 - 2r)(s0 + "
            f"s_span) = {exponent:.6g} > {_EXP_MAX:.6g}; lower s0 or turn "
            "quantum pressure off")
    R = np.linspace(0.0, R_max, n)
    h = float(R[1] - R[0])

    def fields(s, Psi, S):
        return FieldSet.from_Psi_S(params, R, s, Psi, S,
                                   domain_mode=domain_mode)

    base = profile_fieldset(table, R, cfg.s0, domain_mode=domain_mode)
    weights = build_weights(R, cfg)
    bump = cutoff("tilde", R / R_max) * cutoff("hat", R / (1.2 * R_max))
    state = fields(cfg.s0, base.Psi + cfg.delta_low * bump,
                   base.S * (1.0 + cfg.delta_low * bump))

    amax = float(np.max(np.abs(R + 2.0 * base.U))) * 1.1
    if ds is None:
        ds = 0.9 * cfg.cfl * h / amax
    n_steps = int(np.ceil(s_span / ds))
    ds = s_span / n_steps
    sample_at = set(np.linspace(0, n_steps, n_samples).astype(int))

    report = EnergyReport(config=cfg)
    report.input_hash = _hash_inputs(
        table, cfg, {"n": n, "R_max": R_max, "s_span": s_span,
                     "quantum": quantum_pressure, "ds": ds})

    def sample(st, ref):
        U_t = st.U - ref.U
        S_t = st.S - ref.S
        res = residual_stationary(ref, acc=4)
        m = cfg.m_prime
        bm = weights.beta ** m
        du = derivative(U_t, h, m)
        dst = derivative(S_t, h, m)
        flux = 0.5 * R_max ** st.params.d * ((bm[-1] * du[-1]) ** 2
                                             + (bm[-1] * dst[-1]) ** 2)
        report.s.append(st.s)
        report.E_low.append(energy_low(U_t, S_t, R, cfg, weights))
        report.E_w.append(energy_w(st.w, R, cfg, weights))
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
    s = s_good = state.s
    Psi, S = state.Psi, state.S
    Psi_ref, S_ref = base.Psi, base.S
    try:
        for i in range(1, n_steps + 1):
            Psi, S = _advance(Psi, S, R, h, params, s, ds, quantum_pressure,
                              cfg.cfl)
            s_good = s + ds   # last_good's time if the reference step aborts
            Psi_ref, S_ref = _advance(Psi_ref, S_ref, R, h, params, s, ds,
                                      quantum_pressure, cfg.cfl)
            s = s_good
            if i in sample_at:
                sample(fields(s, Psi, S), fields(s, Psi_ref, S_ref))
    except (CFLError, PositivityError) as err:
        # callers that write artifacts want the last valid state and the
        # samples collected so far
        report.wall_time = time.perf_counter() - t0
        err.last_good = fields(s_good, Psi, S)
        err.partial_report = report
        raise
    report.wall_time = time.perf_counter() - t0
    return report
