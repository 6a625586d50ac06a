"""Integration of the phase-portrait ODE through the sonic point and
reconstruction of the physical profiles.

The sonic point P_s is a degenerate node of the desingularized flow: the
smooth orbit leaves along the slow eigendirection and nearby orbits separate
like xi^kappa with kappa = (fast eigenvalue)/(slow eigenvalue) ~ 46 at
r = 2.01.  Marching away from a seeded sonic point is therefore hopeless in
double precision (any representable seed error explodes within one grid
spacing), while marching toward the sonic point contracts by the same
factor.  The solver exploits this:

  * a high-order Taylor series of the smooth branch at P_s, generated once
    per parameter set by an order-by-order recurrence in fixed-point
    integers at SERIES_BITS, seeded from SERIES_DPS closed forms,
    represents the orbit between the two seams (inside the series'
    convergence disk),
  * the left piece (xi < -xi_switch) is integrated from deep inside the
    origin region toward the sonic point, which is strongly contracting; the
    arrival time at D_Z = 0 is used to place the sonic point at xi = 0,
  * the right piece (xi > xi_switch) is one member of a family.  Orbits
    leaving P_s into xi > 0 form a one-parameter family, series +
    c xi^kappa (1 + ...).  The members that reach the far-field node lie
    between the stable manifold of the saddle P_star (beyond it, orbits
    run into the D_Z = 0 wall) and the orbit leaving P_s along its fast
    eigendirection.  The analytic branch c = 0 is not among them in
    general, which is why globally smooth profiles only exist for special
    scaling exponents; at r = 2.01 it cannot be told apart from the
    P_star separatrix in double precision, so a march seeded from the
    series lands on a member picked by round-off.  Instead, the member
    is named by an anchor point placed by a rule that depends on r alone
    (see outgoing_anchor).  The solver marches from the anchor back into
    P_s and forward into the far-field node, both contracting
    directions, so the member does not depend on the tolerance or on
    xi_switch.  The tabulated profile is finitely smooth (regularity
    about floor(kappa) at the sonic point): it shares every Taylor
    coefficient of the series at P_s, turns before the wall, and decays
    into the far-field node.

Where a march into P_s meets the series, one seam rule holds on both sides:
the series stands in for the march only where its tail is below 1e-14 and
the non-analytic correction c |xi|^kappa below 100 tol.  The seam starts
at xi_switch and halves, at most six times, until both hold; near an
integer kappa the tail is what moves it inward.

Output lives on a uniform log-radius grid containing xi = 0 exactly.
Physical columns come in two conventions: the scaled one used by the
autonomous system (Ubar_R = R*U, Sbar = R*S) and the halved one in which the
Schrodinger profile equations

    0 = -(r-2) Psi_p - y.grad(Psi_p) - |grad(Psi_p)|^2 - alpha S_p^2
    0 = -(r-1) S_p - y.grad(S_p) - 2 grad(S_p).grad(Psi_p) - 2 alpha S_p lap(Psi_p)

hold; profile_operator evaluates their right sides, and residual_profile
measures them with first derivatives taken by finite differences of the
tabulated columns so the check is not a restatement of the construction.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from typing import NamedTuple

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import BSpline, make_interp_spline

from ._fd import derivative
from .errors import (
    BlowupError,
    ConsistencyError,
    DomainError,
    InsufficientRangeError,
    RangeError,
    SonicCrossingError,
)
from .phase_portrait import (
    GRAD_D_Z,
    PhasePoint,
    ProfileParams,
    _sonic_closed_forms,
    d_w,
    d_z,
    grad_n_w,
    grad_n_z,
    n_w,
    n_z,
    special_points,
)

__all__ = [
    "ProfileTable",
    "ResidualPair",
    "solve_profile",
    "to_physical",
    "fit_decay",
    "residual_profile",
    "profile_operator",
    "origin_slope",
    "taylor_seed_coeffs",
    "sonic_series",
    "outgoing_anchor",
    "CSV_HEADER",
    "STATE_COLUMNS",
    "SCHEMA_VERSION",
]

CSV_HEADER = ["xi", "R", "W", "Z", "Ubar_R", "Sbar", "U_nls", "S_nls",
              "Psi_nls", "dR_Ubar", "dR_Sbar"]
#: the columns of a JSON table: the state, from which the others follow
STATE_COLUMNS = ("xi", "W", "Z", "dR_Ubar", "dR_Sbar")
SCHEMA_VERSION = 2

#: number of edge grid points excluded from finite-difference residual sups
#: (one-sided stencils there have a larger error constant)
EDGE_MARGIN = 6

#: radius of the origin fit that reports w0 = Sbar(0)
MATCH_RADIUS = 0.05

#: decimal digits at which the closed forms of P_s and of the slopes
#: (W1, Z1) seed the sonic series
SERIES_DPS = 60

#: fractional bits of the fixed-point integers in which the sonic series
#: recurrence runs.  Each coefficient is rounded once, with an absolute
#: error of 2^-320 ~ 5e-97; the seeds carry SERIES_DPS digits.  The
#: smallest coefficient up to order 90 on 1 < r < 2.2, about 5e-47 at
#: r = 2.07, still keeps 50 digits, far more than the 17 a double needs
SERIES_BITS = 320

#: order of the sonic series that solve_profile sums on |xi| <= xi_switch
SERIES_ORDER = 90


@dataclass(frozen=True)
class ProfileTable:
    """Solved profile on a uniform xi = log R grid.

    The state is the orbit (W, Z) with its ODE-consistent radial derivative
    columns dR_Ubar and dR_Sbar.  R and the physical columns are derived on
    first use: Ubar_R and Sbar in the scaled convention of the autonomous
    system, U_nls, S_nls and Psi_nls in the halved one.
    """

    params: ProfileParams
    xi_grid: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    dR_Ubar: np.ndarray
    dR_Sbar: np.ndarray
    w0: float = float("nan")
    w0_mismatch: float = float("nan")
    tol: float = float("nan")
    anchor: PhasePoint | None = None

    @functools.cached_property
    def R(self) -> np.ndarray:
        return np.exp(self.xi_grid)

    @functools.cached_property
    def Ubar_R(self) -> np.ndarray:
        return self.R * (0.5 * (self.W + self.Z))

    @functools.cached_property
    def Sbar(self) -> np.ndarray:
        return self.R * (0.5 * (self.W - self.Z))

    @functools.cached_property
    def U_nls(self) -> np.ndarray:
        return 0.5 * self.Ubar_R

    @functools.cached_property
    def S_nls(self) -> np.ndarray:
        return 0.5 * self.Sbar

    @functools.cached_property
    def Psi_nls(self) -> np.ndarray:
        """Psi_p, reconstructed algebraically from its own profile equation,
        which is solvable pointwise for Psi when r != 2; this avoids an
        integration constant.  Consistency with quadrature of U_nls is a
        test, not the definition."""
        r, alpha = self.params.r, self.params.alpha
        if r == 2.0:
            raise DomainError(
                "Psi reconstruction divides by r - 2; r = 2 excluded")
        U_nls, S_nls = self.U_nls, self.S_nls
        return (-self.R * U_nls - U_nls ** 2 - alpha * S_nls ** 2) / (r - 2.0)

    @functools.cached_property
    def Psi_spline(self) -> BSpline:
        """Quintic interpolating spline of Psi_nls over R."""
        return make_interp_spline(self.R, self.Psi_nls, k=5)

    @functools.cached_property
    def S_spline(self) -> BSpline:
        """Quintic interpolating spline of S_nls over R."""
        return make_interp_spline(self.R, self.S_nls, k=5)

    @property
    def h(self) -> float:
        return float(self.xi_grid[1] - self.xi_grid[0])

    @property
    def dR_S_nls(self) -> np.ndarray:
        """d_R S_p, from the ODE-consistent dR_Sbar column."""
        return 0.5 * self.dR_Sbar

    @property
    def lapPsi_nls(self) -> np.ndarray:
        """Delta Psi_p = d_R U_nls + (d-1)/R U_nls, from the dR_Ubar column."""
        return 0.5 * self.dR_Ubar + (self.params.d - 1) / self.R * self.U_nls

    @property
    def i_sonic(self) -> int:
        return int(np.argmin(np.abs(self.xi_grid)))

    def window_mask(self, R_lo: float, R_hi: float) -> np.ndarray:
        if R_lo < self.R[0] * (1 - 1e-12) or R_hi > self.R[-1] * (1 + 1e-12):
            raise RangeError(
                f"window [{R_lo}, {R_hi}] exceeds table coverage "
                f"[{self.R[0]:.4g}, {self.R[-1]:.4g}]")
        return (self.R >= R_lo) & (self.R <= R_hi)

    # -- serialization ----------------------------------------------------

    def _column(self, name: str) -> np.ndarray:
        """The artifact column `name` of CSV_HEADER."""
        return getattr(self, "xi_grid" if name == "xi" else name)

    def to_csv(self) -> str:
        """Header and one row per node, each value in %.17g."""
        row = ",".join(["%.17g"] * len(CSV_HEADER)) + "\n"
        columns = [self._column(name).tolist() for name in CSV_HEADER]
        return ",".join(CSV_HEADER) + "\n" + "".join(
            row % values for values in zip(*columns))

    def payload(self) -> dict:
        """The JSON-ready snapshot that to_json serializes: the scalars and
        the STATE_COLUMNS, from which from_payload rebuilds the rest."""
        return {
            "schema_version": SCHEMA_VERSION,
            "params": {"r": self.params.r, "d": self.params.d, "p": self.params.p},
            "w0": self.w0,
            "w0_mismatch": self.w0_mismatch,
            "tol": self.tol,
            "anchor": (None if self.anchor is None else
                       {"W": self.anchor.W, "Z": self.anchor.Z,
                        "xi": self.anchor.xi}),
            "columns": {name: self._column(name).tolist()
                        for name in STATE_COLUMNS},
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: dict) -> "ProfileTable":
        """Table from a `payload` snapshot; its columns must be exactly the
        STATE_COLUMNS, so that no derived copy can disagree with them."""
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise DomainError(f"unsupported schema version {payload.get('schema_version')}")
        raw = payload["columns"]
        extra = sorted(set(raw) - set(STATE_COLUMNS))
        if extra:
            raise DomainError(f"columns {extra} are not state columns")
        n = len(_state_column(raw, "xi"))
        cols = {name: _state_column(raw, name, n) for name in STATE_COLUMNS}
        anchor = payload.get("anchor")
        return cls(params=ProfileParams(**payload["params"]),
                   xi_grid=cols["xi"], W=cols["W"], Z=cols["Z"],
                   dR_Ubar=cols["dR_Ubar"], dR_Sbar=cols["dR_Sbar"],
                   w0=payload["w0"], w0_mismatch=payload["w0_mismatch"],
                   tol=payload["tol"],
                   anchor=None if anchor is None else PhasePoint(**anchor))


def _state_column(columns: dict, name: str, n: int | None = None
                  ) -> np.ndarray:
    """State column `name` of a JSON table as a 1-D float array, of length
    n when n is given; DomainError when it is missing or malformed."""
    if name not in columns:
        raise DomainError(f"state column {name} is missing")
    try:
        col = np.asarray(columns[name], dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"state column {name} is malformed: not an "
                          "array of numbers") from None
    if col.ndim != 1 or (n is not None and len(col) != n):
        need = "a 1-D array" if n is None else f"shape ({n},)"
        raise DomainError(f"state column {name} is malformed: shape "
                          f"{col.shape}, need {need}")
    return col


class ResidualPair(NamedTuple):
    phase: float   # sup residual of the Psi_p profile equation
    sound: float   # sup residual of the S_p profile equation


# ---------------------------------------------------------------------------
# Taylor seed at the sonic point
# ---------------------------------------------------------------------------

def taylor_seed_coeffs(params: ProfileParams) -> tuple[float, float, float, float]:
    """Coefficients (W1, Z1, W2, Z2) of W = W0 + W1 xi + W2 xi^2 at P_s.

    W2 comes from differentiating the regular W equation along the orbit.
    Z2 comes from the order-xi^2 balance of Z' * D_Z = N_Z, the next order
    of the L'Hopital relation that fixed Z1.  Kept on purpose as an
    independent test cross-check of the series recurrence.
    """
    r = params.r
    pts = special_points(params)
    W0, Z0 = pts.P_s.W, pts.P_s.Z
    W1, Z1 = pts.W1, pts.Z1

    nww, nwz = grad_n_w(W0, Z0, r)
    DW0 = d_w(W0, Z0)
    # d/dxi (N_W/D_W) along (W1, Z1); N_W/D_W = W1 at the sonic point
    dNW = nww * W1 + nwz * Z1
    dDW = 0.75 * W1 + 0.25 * Z1
    W2 = 0.5 * (dNW - W1 * dDW) / DW0

    nzw, nzz = grad_n_z(W0, Z0, r)
    a1 = GRAD_D_Z[0] * W1 + GRAD_D_Z[1] * Z1
    # quadratic form of N_Z along the tangent: Hess = [[7/4,-1/4],[-1/4,-13/4]]
    q = 0.875 * W1 * W1 - 0.25 * W1 * Z1 - 1.625 * Z1 * Z1
    # order xi^2: Z1*(grad D_Z . T2) + 2 Z2 a1 = grad N_Z . T2 + q
    denom = 2.0 * a1 + GRAD_D_Z[1] * Z1 - nzz
    Z2 = (nzw * W2 + q - GRAD_D_Z[0] * Z1 * W2) / denom
    return W1, Z1, W2, Z2


# ---------------------------------------------------------------------------
# fixed-point Taylor series of the smooth branch at P_s
# ---------------------------------------------------------------------------

def _fixed(x) -> int:
    """The mpf x as an integer scaled by 2^SERIES_BITS."""
    return int(mpmath.ldexp(x, SERIES_BITS))


def _kappa_text(r: float) -> str:
    """The eigenvalue ratio kappa of P_s and its nearest integer: the
    series recurrence divides Z_n by a1 (n - kappa)."""
    _, _, W0, Z0, W1, Z1 = _sonic_closed_forms(r)
    a1 = GRAD_D_Z[0] * W1 + GRAD_D_Z[1] * Z1
    kappa = (grad_n_z(W0, Z0, r)[1] - 0.75 * Z1) / a1
    return (f"kappa = (dN_Z/dZ - 3 Z1/4)/a1 = {kappa:.6f}, nearest integer "
            f"{round(kappa)}")


@functools.lru_cache(maxsize=32)
def _sonic_series_fixed(r: float, order: int) -> tuple[tuple[int, ...],
                                                       tuple[int, ...]]:
    """Taylor coefficients of the smooth branch at P_s as integers scaled
    by 2^SERIES_BITS.

    Matching [xi^(n-1)] of W' D_W = N_W gives W_n and [xi^n] of
    Z' D_Z = N_Z gives Z_n.  Both balances are multiplied by 8 so that
    every coefficient of D and N is an integer: each numerator is then an
    exact integer at scale 2^(2 SERIES_BITS), and the one division per
    coefficient is the only rounding.
    """
    with mpmath.workdps(SERIES_DPS):
        _, _, W0, Z0, W1, Z1 = _sonic_closed_forms(mpmath.mpf(r), mpmath.mpf,
                                                   mpmath.sqrt)
        rr, W0, Z0, W1, Z1 = map(_fixed, (r, W0, Z0, W1, Z1))
    W = [W0, W1] + [0] * (order - 1)
    Z = [Z0, Z1] + [0] * (order - 1)
    # 4 D_W and 4 D_Z less their constant 4, coefficient by coefficient
    dw = [3 * W0 + Z0, 3 * W1 + Z1] + [0] * (order - 1)
    dz = [W0 + 3 * Z0, W1 + 3 * Z1] + [0] * (order - 1)
    dw0 = (8 << SERIES_BITS) + 2 * dw[0]         # 8 D_W(P_s)
    a1 = 2 * dz[1]                               # 8 a1
    nzz = -8 * rr - 2 * W0 - 26 * Z0             # 8 dN_Z/dZ at P_s

    for n in range(2, order + 1):
        m = n - 1
        ww = sum(W[i] * W[m - i] for i in range(n))
        wz = sum(W[i] * Z[m - i] for i in range(n))
        zz = sum(Z[i] * Z[m - i] for i in range(n))
        s = sum(k * W[k] * dw[m + 1 - k] for k in range(1, n))
        W[n] = ((-8 * rr * W[m] - 13 * ww - 2 * wz + 7 * zz - 2 * s)
                // (n * dw0))
        # Z[n] is still 0 in the convolutions, so they carry only the
        # known part
        ww = sum(W[i] * W[n - i] for i in range(n + 1))
        wz = sum(W[i] * Z[n - i] for i in range(n + 1))
        zz = sum(Z[i] * Z[n - i] for i in range(n + 1))
        lhs = sum(k * Z[k] * dz[n + 1 - k] for k in range(2, n))
        denom = n * a1 + 6 * Z1 - nzz             # 8 a1 (n - kappa)
        if denom == 0:
            raise ConsistencyError(
                f"sonic series does not converge: {_kappa_text(r)}; the "
                f"order-{n} denominator a1 (n - kappa) is exactly zero")
        Z[n] = ((7 * ww - 2 * wz - 13 * zz - 2 * lhs - 2 * Z1 * W[n])
                // denom)
        dw[n] = 3 * W[n] + Z[n]
        dz[n] = W[n] + 3 * Z[n]

    return tuple(W), tuple(Z)


def sonic_series(r: float, order: int = SERIES_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients (W_n, Z_n) of the smooth branch, W = sum W_n xi^n.

    Generated by matching powers of xi in W' D_W = N_W and Z' D_Z = N_Z in
    fixed-point integers at SERIES_BITS, seeded from SERIES_DPS closed
    forms.  Returned as float arrays, each coefficient rounded once.
    """
    W, Z = _sonic_series_fixed(r, order)
    one = 1 << SERIES_BITS
    return (np.array([c / one for c in W]), np.array([c / one for c in Z]))


def _series_eval(coeffs: np.ndarray, xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    out = np.full(xi.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * xi + c
    return out


def _series_tail(coeffs: np.ndarray, xi_sw: float) -> float:
    """Crude truncation estimate: largest of the last few terms at xi_sw."""
    n = len(coeffs)
    tail = max(abs(coeffs[k]) * xi_sw ** k for k in range(n - 5, n))
    return float(tail)


# ---------------------------------------------------------------------------
# naming the outgoing member
# ---------------------------------------------------------------------------

#: the outgoing member is named where it crosses this level of D_Z, halfway
#: between the wall D_Z = 0 and the far-field node (0, 0), where D_Z = 1
ANCHOR_LEVEL = 0.5

#: tolerance of the two boundary marches that place the anchor; fixed, so
#: the anchor is a function of r alone and not of the solver's settings
ANCHOR_TOL = 1e-13

#: distance from an equilibrium along its eigenvector at which a boundary
#: march starts; the linearisation error, ANCHOR_EPS^2, sits below
#: ANCHOR_TOL
ANCHOR_EPS = 1e-7


def _flow(r: float):
    """Right side of the autonomous (W, Z) system in xi = log R, evaluated
    on Python floats (the same IEEE operations as on numpy scalars)."""
    def rhs(xi, y):
        W, Z = y.tolist()
        return (n_w(W, Z, r) / d_w(W, Z), n_z(W, Z, r) / d_z(W, Z))
    return rhs


def _leave_along(rhs, start: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Phase point where the orbit leaving `start` along `direction` first
    reaches D_Z = ANCHOR_LEVEL; the eigenvector's sign is taken so the
    orbit enters D_Z > 0."""
    if GRAD_D_Z[0] * direction[0] + GRAD_D_Z[1] * direction[1] < 0.0:
        direction = -direction
    sol = _march(rhs, (0.0, 100.0), start + ANCHOR_EPS * direction,
                 ANCHOR_TOL, f"boundary orbit from ({start[0]:.6f}, "
                 f"{start[1]:.6f})", level=ANCHOR_LEVEL)
    return sol.y_events[0][0]


@functools.lru_cache(maxsize=32)
def outgoing_anchor(params: ProfileParams) -> PhasePoint:
    """Anchor point (W_a, Z_a) that names the tabulated outgoing member.

    Orbits leaving the sonic point into xi > 0 form a one-parameter family,
    series + c xi^kappa (1 + ...), and no member is distinguished at generic
    r.  The members that reach the far-field node (0, 0) fill a thin strip
    between two degenerate limits.  On one edge lies the chain
    P_s -> P_star -> (0, 0) through the saddle P_star, whose far part is the
    unstable manifold of P_star; members near it linger at P_star, and
    every margin moves by a fixed amount per decade of their distance to
    it.  On the other edge lies the orbit leaving P_s along its fast
    eigendirection: it takes the other root of the L'Hopital slope Z_1
    (see sonic_slope_quadratic_roots), so glued to the left piece it would
    put a corner at the sonic point.  The rule: the tabulated
    member crosses the level D_Z = ANCHOR_LEVEL at the midpoint in W of
    the two edge orbits' crossings, as far from both degenerations as the
    strip allows.  It depends on r alone: the edge orbits are integrated at
    the fixed tolerance ANCHOR_TOL whatever the solver's settings.
    """
    r = params.r
    pts = special_points(params)
    rhs = _flow(r)

    # lower edge: unstable manifold of the saddle P_star, whose Jacobian
    # is grad(N)/D there because N_W = N_Z = 0
    Ws, Zs = pts.P_star.W, pts.P_star.Z
    jac = np.array([np.array(grad_n_w(Ws, Zs, r)) / d_w(Ws, Zs),
                    np.array(grad_n_z(Ws, Zs, r)) / d_z(Ws, Zs)])
    vals, vecs = np.linalg.eig(jac)
    lower = _leave_along(rhs, np.array([Ws, Zs]), vecs[:, np.argmax(vals)])

    # upper edge: fast eigendirection of P_s in the desingularized flow
    # (W', Z') = (N_W D_Z, N_Z D_W), whose Jacobian at P_s is
    # [N_W grad(D_Z); D_W grad(N_Z)] because N_Z = D_Z = 0 there
    W0, Z0 = pts.P_s.W, pts.P_s.Z
    jac = np.array([n_w(W0, Z0, r) * np.array(GRAD_D_Z),
                    d_w(W0, Z0) * np.array(grad_n_z(W0, Z0, r))])
    vals, vecs = np.linalg.eig(jac)
    upper = _leave_along(rhs, np.array([W0, Z0]), vecs[:, np.argmax(vals)])

    W_a = 0.5 * (lower[0] + upper[0])
    Z_a = (ANCHOR_LEVEL - 1.0 - GRAD_D_Z[0] * W_a) / GRAD_D_Z[1]
    return PhasePoint(float(W_a), float(Z_a))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

#: a march of solve_profile is a blow-up once |W| or |Z| exceeds
#: BLOWUP_FACTOR e^{-xi_start}, a hundred times the amplitude at which the
#: left march starts
BLOWUP_FACTOR = 100.0


def _build_grid(xi_min: float, xi_max: float, n_points: int) -> np.ndarray:
    """Uniform grid of spacing (xi_max-xi_min)/(n_points-1) containing 0."""
    h = (xi_max - xi_min) / (n_points - 1)
    k_lo = int(np.ceil(xi_min / h - 1e-9))
    k_hi = int(np.floor(xi_max / h + 1e-9))
    return h * np.arange(k_lo, k_hi + 1)


def solve_profile(params: ProfileParams, xi_min: float = -6.0, xi_max: float = 7.0,
                  tol: float = 1e-12, n_points: int = 4096,
                  xi_switch: float = 0.2) -> ProfileTable:
    """Compute the orbit through the sonic point on a uniform xi grid.

    Four pieces, assembled so that the sonic point sits at xi = 0 exactly:
    the fixed-point Taylor series of the smooth branch (sonic_series)
    around xi = 0; an inward integration from the origin region on the
    left (the arrival at D_Z = 0 pins the sonic location, and the
    contraction toward the sonic point makes this piece accurate to
    round-off); and on the right the outgoing member through
    outgoing_anchor(params), integrated backward from the anchor into the
    sonic point and forward from it into the far field.
    Both marches into P_s meet the series under one seam rule (_arrive):
    from xi_switch the seam halves, at most six times, until the series
    tail is below 1e-14 and march and series agree to 100 tol.  The
    anchor's xi is reported on the table.  A march that stops short, or
    at the other sonic point P_bar_s, raises SonicCrossingError naming
    where; a grid too coarse to give each march a node, DomainError.
    """
    if not (xi_min < 0.0 < xi_max):
        raise DomainError(f"need xi_min < 0 < xi_max, got [{xi_min}, {xi_max}]")
    if not (1e-14 < tol < 1e-4):
        raise DomainError(f"tol = {tol} outside (1e-14, 1e-4)")
    if n_points < 2:
        raise DomainError(f"n_points = {n_points}; need >= 2")

    r = params.r
    pts = special_points(params)
    Wc, Zc = sonic_series(r)
    rhs = _flow(r)

    # ---- left piece: march from the origin region into the sonic point ----
    # The start point uses the leading large-amplitude asymptote of the
    # branch, whose truncation error scales like exp(2 xi_start); start deep
    # enough that this error sits below the integration tolerance, so the
    # orbit (and hence the tabulated left piece) is independent of the
    # starting depth.
    xi_start = min(xi_min - 3.0, 0.55 * np.log(tol))
    bound = BLOWUP_FACTOR * np.exp(-xi_start)
    w1_origin = -(r - 1.0) / 4.0
    y_start = (np.exp(-xi_start) + w1_origin, -np.exp(-xi_start) + w1_origin)
    sol_left = _march(rhs, (xi_start, 2.0), y_start, tol, "left march",
                      bound=bound)
    seam_left, xi_hit = _arrive(sol_left, pts, Wc, Zc, r, tol, -xi_switch,
                                "left march")

    # ---- right piece: the outgoing member through the anchor.  March from
    # the anchor back into the sonic point (contracting onto the slow
    # direction) and label it like the left piece; march forward from the
    # anchor into the far-field node (contracting as well). ----
    anchor = outgoing_anchor(params)
    y_anchor = (anchor.W, anchor.Z)
    back = "backward march from the anchor (xi counted from the anchor)"
    sol_back = _march(rhs, (0.0, -(xi_max - xi_min)), y_anchor, tol, back,
                      bound=bound)
    if -sol_back.t_events[0][0] <= xi_switch:
        raise DomainError(
            f"anchor sits at xi = {-sol_back.t_events[0][0]:.4f}, inside the "
            f"series range |xi| <= {xi_switch}; reduce xi_switch")
    seam_right, xi_back = _arrive(sol_back, pts, Wc, Zc, r, tol, xi_switch,
                                  back)
    xi_anchor = float(-xi_back)

    xi_grid = _build_grid(xi_min, xi_max, n_points)
    left = xi_grid < seam_left + 1e-12
    near = (xi_grid >= seam_left - 1e-12) & (xi_grid <= seam_right + 1e-12)
    inner = (xi_grid > seam_right - 1e-12) & (xi_grid <= xi_anchor)
    outer = xi_grid > xi_anchor
    if not (np.any(left) and np.any(inner)):
        raise DomainError(
            f"n_points = {n_points} on [{xi_min}, {xi_max}] leaves the left "
            f"march (xi < {seam_left}) or the backward march "
            f"({seam_right} < xi <= {xi_anchor:.4f}) without a grid node")
    if xi_grid[left][0] + xi_hit < xi_start:
        raise DomainError(
            f"left coverage insufficient: sonic arrival at {xi_hit:.3f} "
            f"leaves the grid start outside the integrated range")

    n = len(xi_grid)
    W = np.empty(n)
    Z = np.empty(n)
    W[near] = _series_eval(Wc, xi_grid[near])
    Z[near] = _series_eval(Zc, xi_grid[near])
    W[left], Z[left] = sol_left.sol(xi_grid[left] + xi_hit)
    W[inner], Z[inner] = sol_back.sol(xi_grid[inner] + xi_back)
    if np.any(outer):
        sol_fwd = _march(rhs, (xi_anchor, xi_grid[-1]), y_anchor, tol,
                         "forward march from the anchor", level=None,
                         bound=bound)
        W[outer], Z[outer] = sol_fwd.sol(xi_grid[outer])

    # ODE-consistent xi-derivatives; series derivatives where D_Z ~ 0
    with np.errstate(divide="ignore", invalid="ignore"):
        dW = n_w(W, Z, r) / d_w(W, Z)
        dZ = n_z(W, Z, r) / d_z(W, Z)
    kc = np.arange(len(Wc))
    dW[near] = _series_eval(Wc[1:] * kc[1:], xi_grid[near])
    dZ[near] = _series_eval(Zc[1:] * kc[1:], xi_grid[near])

    # invariants of the solved branch
    if not np.all(d_w(W, Z) > 0):
        raise ConsistencyError("D_W lost positivity on the computed orbit")
    if not np.all(W > Z):
        raise ConsistencyError("W > Z violated on the computed orbit")
    dz_vals = d_z(W, Z)
    off = np.abs(xi_grid) > 1e-12
    if not np.all(np.sign(dz_vals[off]) == np.sign(xi_grid[off])):
        raise SonicCrossingError("sign(D_Z) != sign(xi) off the sonic point")

    U = 0.5 * (W + Z)
    S = 0.5 * (W - Z)
    table = ProfileTable(params=params, xi_grid=xi_grid, W=W, Z=Z,
                         dR_Ubar=U + 0.5 * (dW + dZ),
                         dR_Sbar=S + 0.5 * (dW - dZ), tol=tol,
                         anchor=PhasePoint(anchor.W, anchor.Z, xi_anchor))
    w0, w0_mismatch = _match_origin(table.R, table.Sbar)
    return replace(table, w0=w0, w0_mismatch=w0_mismatch)


def _march(rhs, span, y0, tol: float, what: str, level: float | None = 0.0,
           bound: float | None = None):
    """DOP853 march of the (W, Z) flow over `span` from y0, at rtol = tol
    and atol = tol / 10; its failures are named errors.

    With a `level` the march must stop where D_Z first reaches it; with
    level=None it must run the whole span without D_Z changing sign.  With
    a `bound` (the marches of solve_profile) max(|W|, |Z|) above it is a
    BlowupError, and the solution carries dense output; the anchor's edge
    orbits are only read at their event.  Any other stop raises
    SonicCrossingError naming `what` and where it stopped.
    """
    target = 0.0 if level is None else level

    def ev_level(xi, y):
        return d_z(y[0], y[1]) - target
    ev_level.terminal = True
    events = [ev_level]
    if bound is not None:
        def ev_blowup(xi, y):
            return bound - max(abs(y[0]), abs(y[1]))
        ev_blowup.terminal = True
        events.append(ev_blowup)

    sol = solve_ivp(rhs, span, y0, method="DOP853", rtol=tol,
                    atol=tol * 1e-1, events=events,
                    dense_output=bound is not None)
    if bound is not None and len(sol.t_events[1]):
        raise BlowupError(f"{what} exceeded the blowup bound {bound:.6g} at "
                          f"xi = {sol.t[-1]:.6f}")
    reached = len(sol.t_events[0]) > 0
    if level is None and reached:
        raise SonicCrossingError(f"D_Z changed sign at xi = "
                                 f"{sol.t_events[0][0]:.6f} on the {what}")
    if not sol.success or (level is not None and not reached):
        raise SonicCrossingError(
            f"{what} stopped at xi = {sol.t[-1]:.6f} without reaching "
            f"D_Z = {target:g} ({sol.message})")
    return sol


def _arrive(sol, pts, Wc: np.ndarray, Zc: np.ndarray, r: float, tol: float,
            xi_seam: float, what: str) -> tuple[float, float]:
    """Seam between a march into P_s and the sonic series, and the march
    coordinate of P_s.

    The event root need only show that the march reached P_s and not the
    other sonic point P_bar_s: the nearer one decides.  The root carries
    the integrator's error, a shift along the autonomous orbit, so P_s is
    relabelled by Newton-matching W against the series at the seam.  The
    march follows series + c |xi|^kappa (1 + ...), so the series stands in
    for it only where the series tail is below 1e-14 and the two agree to
    100 tol.  From xi_seam the seam halves, at most six times, until both
    hold; at the last seam a tail above 1e-14 (naming kappa) or a
    disagreement above 1e-7 raises ConsistencyError.
    """
    xi_hit = float(sol.t_events[0][0])
    y_hit = sol.y_events[0][0]
    P_s, P_bar = pts.P_s, pts.P_bar_s
    if (np.hypot(y_hit[0] - P_bar.W, y_hit[1] - P_bar.Z)
            < np.hypot(y_hit[0] - P_s.W, y_hit[1] - P_s.Z)):
        raise SonicCrossingError(
            f"{what} hit D_Z = 0 at ({y_hit[0]:.6f}, {y_hit[1]:.6f}), "
            f"xi = {xi_hit:.6f}, nearer P_bar_s ({P_bar.W:.6f}, "
            f"{P_bar.Z:.6f}) than the sonic point P_s ({P_s.W:.6f}, "
            f"{P_s.Z:.6f})")

    for k in range(7):
        seam = xi_seam / 2 ** k
        tail = _series_tail(Wc, abs(seam)) + _series_tail(Zc, abs(seam))
        if tail > 1e-14:
            continue
        w_seam = float(_series_eval(Wc, seam))
        for _ in range(3):
            w_m, z_m = sol.sol(seam + xi_hit)
            step = (w_seam - w_m) / (n_w(w_m, z_m, r) / d_w(w_m, z_m))
            xi_hit += step
            if abs(step) < 1e-15:
                break
        w_m, z_m = sol.sol(seam + xi_hit)
        dev = max(abs(w_m - w_seam), abs(z_m - _series_eval(Zc, seam)))
        if dev <= 100.0 * tol:
            break
    if tail > 1e-14:
        raise ConsistencyError(
            f"sonic series does not converge at the seam xi = {seam}: tail "
            f"{tail:.3e} > 1e-14, {_kappa_text(r)}; reduce xi_switch")
    if dev > 1e-7:
        raise ConsistencyError(
            f"{what} and sonic series disagree at xi = {seam}: "
            f"deviation {dev:.3e}")
    return seam, xi_hit


def _match_origin(R, Sbar):
    """Fit Sbar = w0 + w2 R^2 + w4 R^4 on R <= MATCH_RADIUS."""
    mask = R <= MATCH_RADIUS
    if np.count_nonzero(mask) < 8:
        return float("nan"), float("nan")
    x = R[mask] ** 2
    design = np.vstack([np.ones_like(x), x, x * x]).T
    coef, *_ = np.linalg.lstsq(design, Sbar[mask], rcond=None)
    fit = design @ coef
    return float(coef[0]), float(np.max(np.abs(Sbar[mask] - fit)))


def to_physical(table: ProfileTable) -> ProfileTable:
    """The table itself, once its halved-convention columns are known to
    exist: Psi_nls raises DomainError at r = 2."""
    table.Psi_nls
    return table


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def profile_operator(params: ProfileParams, R, Psi, dPsi, S, dS, lapPsi
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Right sides (N_Psi, N_S) of the two stationary profile equations,
    zero on an exact profile; the caller supplies the derivatives."""
    r, alpha = params.r, params.alpha
    N_Psi = -(r - 2.0) * Psi - R * dPsi - dPsi * dPsi - alpha * S * S
    N_S = (-(r - 1.0) * S - R * dS - 2.0 * dS * dPsi
           - 2.0 * alpha * S * lapPsi)
    return N_Psi, N_S


def residual_profile(table: ProfileTable, R_lo: float | None = None,
                     R_hi: float | None = None, acc: int = 14) -> ResidualPair:
    """Sup-norm residuals of the two stationary profile equations.

    First derivatives are finite differences of the tabulated Psi and S
    columns (in xi, then converted to R), so the check is not a restatement
    of how the columns were built.  The profile has a smooth but narrow
    interior band just past the sonic point (width a few grid spacings at
    the default resolution) and each extra order of accuracy gains roughly
    a factor (h / width) there, hence the high default order; round-off in
    the first differences stays negligible at this length.  The Laplacian
    of the phase is the exception to pure differencing: Psi carries a
    1/(r-2) amplification, and a double precision second difference of it
    drowns the contract tolerance in round-off near the origin, so
    Delta Psi uses the ODE-consistent derivative column instead.  Edge rows
    covered by one-sided stencils are excluded from the sup unless the
    window says otherwise.
    """
    R, h = table.R, table.h
    Psi, S = table.Psi_nls, table.S_nls
    dPsi = derivative(Psi, h, 1, acc=acc) / R
    dS = derivative(S, h, 1, acc=acc) / R
    N_Psi, N_S = profile_operator(table.params, R, Psi, dPsi, S, dS,
                                  table.lapPsi_nls)
    res1, res2 = np.abs(N_Psi), np.abs(N_S)

    margin = max(EDGE_MARGIN, acc // 2 + 1)
    if R_lo is None and R_hi is None:
        mask = np.zeros(len(R), dtype=bool)
        mask[margin:len(R) - margin] = True
    else:
        mask = table.window_mask(R_lo if R_lo is not None else table.R[0],
                                 R_hi if R_hi is not None else table.R[-1])
    return ResidualPair(float(np.max(res1[mask])), float(np.max(res2[mask])))


def fit_decay(table: ProfileTable, j: int, window: tuple[float, float]) -> float:
    """Least-squares slope of log|d^j/dR^j S_p| against log R on the window.

    Contract: on converged profiles the slope is -(r-1)-j up to a few
    percent (the far field behaves like R^{-(r-1)}).
    """
    if not 0 <= j <= 2:
        raise DomainError(f"derivative order j = {j} outside 0..2")
    R_lo, R_hi = window
    if R_lo < 10.0:
        raise DomainError(f"window must start at R >= 10, got {R_lo}")
    if R_hi < 10.0 * R_lo:
        raise InsufficientRangeError(
            f"window [{R_lo}, {R_hi}] shorter than one decade")
    mask = table.window_mask(R_lo, R_hi)

    q = table.S_nls
    for _ in range(j):
        q = derivative(q, table.h, 1) / table.R  # d/dR = e^-xi d/dxi, iterated
    values = np.abs(q[mask])
    if np.any(values == 0):
        raise DomainError("profile vanishes inside the fit window")
    slope = np.polyfit(np.log(table.R[mask]), np.log(values), 1)[0]
    return float(slope)


def origin_slope(table: ProfileTable) -> float:
    """Linear extrapolation of dS_p/dR to R = 0 from the innermost rows.

    The regularity statement at the origin is that this limit vanishes.
    """
    dS = table.dR_S_nls
    R0, R1 = table.R[0], table.R[1]
    d0, d1 = dS[0], dS[1]
    return float(d0 - R0 * (d1 - d0) / (R1 - R0))
