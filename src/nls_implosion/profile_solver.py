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
    march stops at the seam, where it is matched to the series to place
    the sonic point at xi = 0,
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

Every march of the (W, Z) flow runs through solve_ivp of _dop853: scipy's
DOP853 tableau, step control and event rule on Python floats, with the
interpolants of a march kept in arrays so that a grid is evaluated in one
pass.  The package imports no scipy at run time; the tests keep it as a
reference.

The solved orbit is an Orbit: the series and the dense output of the
left, backward and forward marches, joined at the seams and the anchor.
It evaluates W, Z and their xi-derivatives at any xi; the table's columns
are its values on the grid, and the JSON table (schema 4) stores the
orbit, not the columns.

Where a march into P_s meets the series, one seam rule holds on both sides:
the series stands in for the march only where its tail is below 1e-14 and
the non-analytic correction c |xi|^kappa below 100 tol.  The candidate
seams are xi_switch / 2^k, k = 0 .. 6, where the tail rule holds, decided
from the series before any march; near an integer kappa the tail is what
moves them inward.  Each march stops where D_Z first reaches the series'
D_Z at the first candidate and goes on to the next one's level while
march and series disagree, so that it never steps through the approach
to P_s.  There an explicit step is held to about |xi|/kappa, and kappa
reaches 3e4 near r*.

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

import base64
import functools
import json
from dataclasses import dataclass, replace
from typing import NamedTuple

import mpmath
import numpy as np

from ._dop853 import DenseSolution, solve_ivp
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
    "Orbit",
    "ProfileTable",
    "ResidualPair",
    "solve_profile",
    "to_physical",
    "fit_decay",
    "residual_profile",
    "profile_operator",
    "nls_fields",
    "origin_slope",
    "sonic_series",
    "outgoing_anchor",
    "CSV_HEADER",
    "SCHEMA_VERSION",
]

CSV_HEADER = ["xi", "R", "W", "Z", "Ubar_R", "Sbar", "U_nls", "S_nls",
              "Psi_nls", "dR_Ubar", "dR_Sbar"]
#: 4: the JSON table stores the orbit, each array one base64 string of
#: its "<f8" bytes, and the grid; every column follows from them
SCHEMA_VERSION = 4

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


@dataclass(frozen=True, eq=False)
class Orbit:
    """The solved orbit (W, Z) as a function of xi, held as its pieces.

    The sonic series (coefficients Wc, Zc) covers [seam_left, seam_right].
    The left march covers xi below seam_left and the backward march from
    the anchor (seam_right, xi_anchor]; each is evaluated in its own march
    coordinate, xi plus the march coordinate of P_s (left_origin,
    back_origin).  The forward march from the anchor covers xi beyond
    xi_anchor, in xi itself; it is None when the table ends at the anchor,
    and the backward march then covers xi beyond it too.
    """

    r: float
    Wc: np.ndarray
    Zc: np.ndarray
    seam_left: float
    seam_right: float
    left: DenseSolution
    left_origin: float
    back: DenseSolution
    back_origin: float
    fwd: DenseSolution | None = None

    @property
    def xi_anchor(self) -> float:
        return -self.back_origin

    @functools.cached_property
    def _series(self) -> list[np.ndarray]:
        """The columns of the series' coefficients in the rows W, Z, dW/dxi
        and dZ/dxi, from the top order down; the derivative rows are
        padded with a zero as their top coefficient."""
        k = np.arange(len(self.Wc))
        rows = np.stack((self.Wc, self.Zc,
                         np.append(self.Wc[1:] * k[1:], 0.0),
                         np.append(self.Zc[1:] * k[1:], 0.0)))
        return [rows[:, j, None] for j in range(len(k) - 1, -1, -1)]

    def __call__(self, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray]:
        """W, Z, dW/dxi and dZ/dxi at the points xi.

        The pieces are written in order, each on its range widened by
        1e-12 at the seams and a later one over an earlier: the series,
        the left march, the backward march and the forward march.  The
        derivatives are the flow's, N/D, except on the series' range,
        where D_Z vanishes at P_s and they are the series' own.  The
        series is summed by Horner's rule, its four rows at once, with the
        bits of summing each alone.
        """
        xi = np.asarray(xi, dtype=float)
        left = xi < self.seam_left + 1e-12
        near = (xi >= self.seam_left - 1e-12) & (xi <= self.seam_right + 1e-12)
        inner = xi > self.seam_right - 1e-12
        outer = xi > self.xi_anchor
        if self.fwd is not None:
            inner &= ~outer
        top, *columns = self._series
        x = xi[near]
        series = np.repeat(top, len(x), axis=1)
        for c in columns:
            np.multiply(series, x, out=series)
            np.add(series, c, out=series)

        W = np.empty(xi.shape)
        Z = np.empty(xi.shape)
        W[near], Z[near] = series[:2]
        W[left], Z[left] = self.left(xi[left] + self.left_origin)
        W[inner], Z[inner] = self.back(xi[inner] + self.back_origin)
        if self.fwd is not None:
            W[outer], Z[outer] = self.fwd(xi[outer])
        with np.errstate(divide="ignore", invalid="ignore"):
            dW = n_w(W, Z, self.r) / d_w(W, Z)
            dZ = n_z(W, Z, self.r) / d_z(W, Z)
        dW[near], dZ[near] = series[2:]
        return W, Z, dW, dZ

    def payload(self) -> dict:
        """The JSON-ready orbit: the seams and the march origins as
        numbers, every array as the base64 string of its "<f8" bytes."""
        def arrays(sol: DenseSolution) -> dict:
            return {name: _b64(a) for name, a in sol.arrays().items()}
        return {"seams": [self.seam_left, self.seam_right],
                "series": {"W": _b64(self.Wc), "Z": _b64(self.Zc)},
                "left": {"origin": self.left_origin, **arrays(self.left)},
                "back": {"origin": self.back_origin, **arrays(self.back)},
                "fwd": None if self.fwd is None else arrays(self.fwd)}

    @classmethod
    def from_payload(cls, r: float, payload: dict) -> "Orbit":
        """The orbit of a `payload` snapshot.  An array that is missing,
        not base64, not a whole number of float64 or of the wrong shape is
        a DomainError naming it, and so is an entry the orbit does not
        have."""
        _only(payload, ("seams", "series", "left", "back", "fwd"), "orbit")
        series = _only(payload["series"], ("W", "Z"), "orbit series")
        Wc = _orbit_array(series, "series.W")
        Zc = _orbit_array(series, "series.Z", Wc.shape)

        def march(name: str, *scalars: str) -> DenseSolution:
            # h sets the step count m, and with it the other shapes
            piece = _only(payload[name], (*scalars, *DenseSolution.shapes(0)),
                          f"orbit {name}")
            h = _orbit_array(piece, f"{name}.h")
            if not len(h):
                raise DomainError(f"orbit array {name}.h is malformed: no "
                                  "steps")
            return DenseSolution.from_arrays(h=h, **{
                key: _orbit_array(piece, f"{name}.{key}", shape)
                for key, shape in DenseSolution.shapes(len(h)).items()
                if key != "h"})

        seam_left, seam_right = payload["seams"]
        return cls(r=r, Wc=Wc, Zc=Zc, seam_left=seam_left,
                   seam_right=seam_right,
                   left=march("left", "origin"),
                   left_origin=payload["left"]["origin"],
                   back=march("back", "origin"),
                   back_origin=payload["back"]["origin"],
                   fwd=None if payload["fwd"] is None else march("fwd"))


def _b64(a: np.ndarray) -> str:
    """The standard padded base64 of the little-endian float64 bytes of a."""
    return base64.b64encode(
        np.asarray(a).astype("<f8", copy=False).tobytes()).decode("ascii")


def _only(entries, keys, what: str) -> dict:
    """`entries`, a DomainError unless it is a dict whose keys are among
    `keys`."""
    if not isinstance(entries, dict):
        raise DomainError(f"{what} is malformed: {type(entries).__name__}, "
                          "need an object")
    extra = sorted(set(entries) - set(keys))
    if extra:
        raise DomainError(f"{what} entries {extra} are not part of a "
                          f"schema-{SCHEMA_VERSION} table")
    return entries


def _orbit_array(entries: dict, name: str,
                 shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Orbit array `name` (piece.key) of a JSON table, decoded from its
    base64 "<f8" bytes, of `shape` when it is given and 1-D otherwise; a
    DomainError naming it when it is missing or malformed."""
    key = name.split(".")[-1]
    if key not in entries:
        raise DomainError(f"orbit array {name} is missing")
    text = entries[key]
    if not isinstance(text, str):
        raise DomainError(f"orbit array {name} is malformed: "
                          f"{type(text).__name__}, need a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:   # binascii.Error, or a non-ASCII character
        raise DomainError(f"orbit array {name} is malformed: not base64 "
                          f"({exc})") from None
    if len(raw) % 8:
        raise DomainError(f"orbit array {name} is malformed: {len(raw)} "
                          "bytes, not a whole number of float64")
    values = np.frombuffer(raw, "<f8").astype(float)
    if shape is None:
        return values
    if values.size != np.prod(shape, dtype=int):
        raise DomainError(f"orbit array {name} is malformed: shape "
                          f"{values.shape}, need shape {shape}")
    return values.reshape(shape)


def nls_fields(params: ProfileParams, R, W, Z) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """(Psi_p, S_p) in the halved convention at radii R of the state
    (W, Z): U_p and S_p are half of R (W + Z)/2 and R (W - Z)/2, and Psi_p
    is reconstructed algebraically from its own profile equation, which
    is solvable pointwise for Psi when r != 2; this avoids an integration
    constant.  Consistency with quadrature of U_p is a test, not the
    definition.  ProfileTable.Psi_nls is this map on the table's nodes."""
    r, alpha = params.r, params.alpha
    if r == 2.0:
        raise DomainError(
            "Psi reconstruction divides by r - 2; r = 2 excluded")
    U = 0.5 * (R * (0.5 * (W + Z)))
    S = 0.5 * (R * (0.5 * (W - Z)))
    return (-R * U - U ** 2 - alpha * S ** 2) / (r - 2.0), S


@dataclass(frozen=True)
class ProfileTable:
    """Solved profile on a uniform xi = log R grid.

    The state is the orbit (W, Z) with its ODE-consistent radial derivative
    columns dR_Ubar and dR_Sbar.  R and the physical columns are derived on
    first use: Ubar_R and Sbar in the scaled convention of the autonomous
    system, U_nls, S_nls and Psi_nls in the halved one.  A solved table
    also carries its Orbit, whose values on the grid the columns are, and
    the grid's (xi_min, xi_max, n_points); the JSON table stores these,
    and profile_fieldset evaluates the orbit off the grid.
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
    orbit: Orbit | None = None
    grid: tuple[float, float, int] | None = None

    @classmethod
    def from_orbit(cls, params: ProfileParams, orbit: Orbit,
                   grid: tuple[float, float, int], **scalars
                   ) -> "ProfileTable":
        """The table of `orbit` on the grid of (xi_min, xi_max, n_points):
        the state (W, Z) and, from the orbit's xi-derivatives, dR_Ubar and
        dR_Sbar."""
        xi_grid = _build_grid(*grid)
        W, Z, dW, dZ = orbit(xi_grid)
        U = 0.5 * (W + Z)
        S = 0.5 * (W - Z)
        return cls(params=params, xi_grid=xi_grid, W=W, Z=Z,
                   dR_Ubar=U + 0.5 * (dW + dZ), dR_Sbar=S + 0.5 * (dW - dZ),
                   orbit=orbit, grid=grid, **scalars)

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
        """Psi_p, by nls_fields; DomainError at r = 2."""
        return nls_fields(self.params, self.R, self.W, self.Z)[0]

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
        """The JSON-ready snapshot that to_json serializes: the scalars,
        the grid's (xi_min, xi_max, n_points) and the orbit
        (Orbit.payload), from which from_payload rebuilds every column.

        Each orbit array is one string: the standard padded base64 of its
        little-endian IEEE-754 float64 bytes, so it reads back bit for bit
        with np.frombuffer(base64.b64decode(s), "<f8").  The CSV is the
        human-readable table, with all eleven columns.  A table without
        its orbit has no payload: a DomainError.
        """
        if self.orbit is None or self.grid is None:
            raise DomainError("a table without its orbit and grid has no "
                              "JSON payload")
        xi_min, xi_max, n_points = self.grid
        return {
            "schema_version": SCHEMA_VERSION,
            "params": {"r": self.params.r, "d": self.params.d, "p": self.params.p},
            "w0": self.w0,
            "w0_mismatch": self.w0_mismatch,
            "tol": self.tol,
            "anchor": (None if self.anchor is None else
                       {"W": self.anchor.W, "Z": self.anchor.Z,
                        "xi": self.anchor.xi}),
            "grid": {"xi_min": xi_min, "xi_max": xi_max,
                     "n_points": n_points},
            "orbit": self.orbit.payload(),
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: dict) -> "ProfileTable":
        """Table from a `payload` snapshot, its columns the orbit's values
        on its grid.  It must hold exactly the entries payload writes, so
        that no stored copy of a column can disagree with the orbit."""
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise DomainError(f"unsupported schema version {payload.get('schema_version')}")
        _only(payload, ("schema_version", "params", "w0", "w0_mismatch",
                        "tol", "anchor", "grid", "orbit"), "table")
        params = ProfileParams(**payload["params"])
        grid = payload["grid"]
        anchor = payload.get("anchor")
        return cls.from_orbit(
            params, Orbit.from_payload(params.r, payload["orbit"]),
            (grid["xi_min"], grid["xi_max"], grid["n_points"]),
            w0=payload["w0"], w0_mismatch=payload["w0_mismatch"],
            tol=payload["tol"],
            anchor=None if anchor is None else PhasePoint(**anchor))


class ResidualPair(NamedTuple):
    phase: float   # sup residual of the Psi_p profile equation
    sound: float   # sup residual of the S_p profile equation


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
    """Right side of the autonomous (W, Z) system in xi = log R, on the
    pair of Python floats that the DOP853 of _dop853 marches (the same
    IEEE operations as on numpy scalars)."""
    def rhs(xi, y):
        W, Z = y
        return (n_w(W, Z, r) / d_w(W, Z), n_z(W, Z, r) / d_z(W, Z))
    return rhs


def _leave_along(r: float, start: np.ndarray, direction: np.ndarray
                 ) -> np.ndarray:
    """Phase point where the orbit of the flow at r leaving `start` along
    `direction` first reaches D_Z = ANCHOR_LEVEL; the eigenvector's sign
    is taken so the orbit enters D_Z > 0.  An orbit that starts,
    ANCHOR_EPS from `start`, already at or above the level cannot cross
    it: a DomainError before any integration."""
    if GRAD_D_Z[0] * direction[0] + GRAD_D_Z[1] * direction[1] < 0.0:
        direction = -direction
    y0 = start + ANCHOR_EPS * direction
    what = f"boundary orbit from ({start[0]:.6f}, {start[1]:.6f})"
    dz0 = d_z(y0[0], y0[1])
    if dz0 >= ANCHOR_LEVEL:
        raise DomainError(
            f"no outgoing anchor at r = {r}: the {what} starts at D_Z = "
            f"{dz0:.12f}, not below the anchor level D_Z = {ANCHOR_LEVEL}, "
            f"so it never crosses it")
    sol = _march(_flow(r), (0.0, 100.0), y0, ANCHOR_TOL, what,
                 level=ANCHOR_LEVEL)
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
    eigendirection: it takes the other root of the quadratic that
    L'Hopital's rule gives for the slope Z_1, so glued to the left piece
    it would put a corner at the sonic point.  The rule: the tabulated
    member crosses the level D_Z = ANCHOR_LEVEL at the midpoint in W of
    the two edge orbits' crossings, as far from both degenerations as the
    strip allows.  It depends on r alone: the edge orbits are integrated at
    the fixed tolerance ANCHOR_TOL whatever the solver's settings.

    The rule needs the saddle below the level: D_Z(P_star) = 1 - r/r*,
    which is ANCHOR_LEVEL = 1/2 at r = r*/2.  For r <= r*/2 the unstable
    manifold of P_star runs into the far-field node, where D_Z = 1,
    without crossing the level, and the anchor is a DomainError before
    any orbit is integrated.
    """
    r = params.r
    pts = special_points(params)
    if r <= params.r_star / 2:
        raise DomainError(
            f"no outgoing anchor at r = {r}: the saddle P_star has "
            f"D_Z = 1 - r/r* = {d_z(pts.P_star.W, pts.P_star.Z):.6f}, not "
            f"below the anchor level D_Z = {ANCHOR_LEVEL}, so its unstable "
            f"manifold never crosses it; the anchor rule needs r > r*/2 = "
            f"{params.r_star / 2:.6f}")

    # lower edge: unstable manifold of the saddle P_star, whose Jacobian
    # is grad(N)/D there because N_W = N_Z = 0
    Ws, Zs = pts.P_star.W, pts.P_star.Z
    jac = np.array([np.array(grad_n_w(Ws, Zs, r)) / d_w(Ws, Zs),
                    np.array(grad_n_z(Ws, Zs, r)) / d_z(Ws, Zs)])
    vals, vecs = np.linalg.eig(jac)
    lower = _leave_along(r, np.array([Ws, Zs]), vecs[:, np.argmax(vals)])

    # upper edge: fast eigendirection of P_s in the desingularized flow
    # (W', Z') = (N_W D_Z, N_Z D_W), whose Jacobian at P_s is
    # [N_W grad(D_Z); D_W grad(N_Z)] because N_Z = D_Z = 0 there
    W0, Z0 = pts.P_s.W, pts.P_s.Z
    jac = np.array([n_w(W0, Z0, r) * np.array(GRAD_D_Z),
                    d_w(W0, Z0) * np.array(grad_n_z(W0, Z0, r))])
    vals, vecs = np.linalg.eig(jac)
    upper = _leave_along(r, np.array([W0, Z0]), vecs[:, np.argmax(vals)])

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
    left (its match to the series at the seam pins the sonic location,
    and the contraction toward the sonic point makes this piece accurate
    to round-off); and on the right the outgoing member through
    outgoing_anchor(params), integrated backward from the anchor into the
    sonic point and forward from it into the far field.
    Both marches into P_s stop at the seam under one rule (_arrive): of
    the seams xi_switch / 2^k, k = 0 .. 6, where the series tail is below
    1e-14 (_seams, checked before any march), the first where march and
    series agree to 100 tol.  The anchor's xi is reported on the table.  A
    march that stops short, or meets a seam's level nearer the other
    sonic point P_bar_s, raises SonicCrossingError naming where; a grid
    too coarse to give each march a node, or an anchor inside the series
    range, DomainError.  The table carries the Orbit of the four pieces,
    and its columns are the orbit's values on the grid.
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
    seams = _seams(Wc, Zc, r, xi_switch)
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
    # the seam (or a blow-up) ends the march; the span only bounds it
    sol_left, seam_left, xi_hit = _arrive(
        rhs, (xi_start, xi_max - xi_min), y_start, tol, "left march", bound,
        [-seam for seam in seams], pts, Wc, Zc, r)

    # ---- right piece: the outgoing member through the anchor.  March from
    # the anchor back into the sonic point (contracting onto the slow
    # direction) and label it like the left piece; march forward from the
    # anchor into the far-field node (contracting as well). ----
    anchor = outgoing_anchor(params)
    y_anchor = (anchor.W, anchor.Z)
    back = "backward march from the anchor (xi counted from the anchor)"
    sol_back, seam_right, xi_back = _arrive(
        rhs, (0.0, -(xi_max - xi_min)), y_anchor, tol, back, bound, seams,
        pts, Wc, Zc, r)
    xi_anchor = float(-xi_back)
    if xi_anchor <= xi_switch:
        raise DomainError(
            f"anchor sits at xi = {xi_anchor:.4f}, inside the series range "
            f"|xi| <= {xi_switch}; reduce xi_switch")

    xi_grid = _build_grid(xi_min, xi_max, n_points)
    left = xi_grid < seam_left + 1e-12
    inner = (xi_grid > seam_right - 1e-12) & (xi_grid <= xi_anchor)
    if not (np.any(left) and np.any(inner)):
        raise DomainError(
            f"n_points = {n_points} on [{xi_min}, {xi_max}] leaves the left "
            f"march (xi < {seam_left}) or the backward march "
            f"({seam_right} < xi <= {xi_anchor:.4f}) without a grid node")
    if xi_grid[left][0] + xi_hit < xi_start:
        raise DomainError(
            f"left coverage insufficient: sonic arrival at {xi_hit:.3f} "
            f"leaves the grid start outside the integrated range")

    # the forward march ends at the last node
    sol_fwd = None
    if xi_grid[-1] > xi_anchor:
        sol_fwd = _march(rhs, (xi_anchor, xi_grid[-1]), y_anchor, tol,
                         "forward march from the anchor", level=None,
                         bound=bound).sol
    orbit = Orbit(r=r, Wc=Wc, Zc=Zc, seam_left=seam_left,
                  seam_right=seam_right, left=sol_left.sol,
                  left_origin=float(xi_hit), back=sol_back.sol,
                  back_origin=float(xi_back), fwd=sol_fwd)
    table = ProfileTable.from_orbit(
        params, orbit, (xi_min, xi_max, n_points), tol=tol,
        anchor=PhasePoint(anchor.W, anchor.Z, xi_anchor))
    W, Z = table.W, table.Z

    # invariants of the solved branch
    if not np.all(d_w(W, Z) > 0):
        raise ConsistencyError("D_W lost positivity on the computed orbit")
    if not np.all(W > Z):
        raise ConsistencyError("W > Z violated on the computed orbit")
    dz_vals = d_z(W, Z)
    off = np.abs(xi_grid) > 1e-12
    if not np.all(np.sign(dz_vals[off]) == np.sign(xi_grid[off])):
        raise SonicCrossingError("sign(D_Z) != sign(xi) off the sonic point")

    w0, w0_mismatch = _match_origin(table.R, table.Sbar)
    return replace(table, w0=w0, w0_mismatch=w0_mismatch)


def _seams(Wc: np.ndarray, Zc: np.ndarray, r: float, xi_switch: float
           ) -> list[float]:
    """The candidate seams |xi| = xi_switch / 2^k, k = 0 .. 6, outermost
    first, at which the series tail is below 1e-14: a property of the
    series alone, so it is decided before any march.  None passing is a
    ConsistencyError naming kappa, at the left march's innermost seam."""
    seams = [xi_switch / 2 ** k for k in range(7)]
    tails = [_series_tail(Wc, seam) + _series_tail(Zc, seam)
             for seam in seams]
    if tails[-1] > 1e-14:
        raise ConsistencyError(
            f"sonic series does not converge at the seam xi = {-seams[-1]}: "
            f"tail {tails[-1]:.3e} > 1e-14, {_kappa_text(r)}; reduce "
            f"xi_switch")
    return [seam for seam, tail in zip(seams, tails) if tail <= 1e-14]


def _march(rhs, span, y0, tol: float, what: str, level: float | None = 0.0,
           bound: float | None = None, stops=()):
    """DOP853 march of the (W, Z) flow over `span` from y0, at rtol = tol
    and atol = tol / 10, by solve_ivp of _dop853 (scipy's method and step
    control on Python floats); its failures are named errors.

    With a `level` the march must stop where D_Z first reaches it; with
    level=None it must run the whole span without D_Z changing sign.  The
    `stops`, (seam, level, rule) triples, are the levels of D_Z at seams
    that the march meets before `level`: at each root of one, rule(root,
    sol) with the march so far decides whether it stops there or goes on.
    With a `bound` (the marches of solve_profile) max(|W|, |Z|) above it is
    a BlowupError, and the solution carries dense output; the anchor's edge
    orbits are only read at their event.  Any other stop raises
    SonicCrossingError naming `what`, where it stopped, the level it was
    heading for and the integrator's reason ("reached the end of the
    span", or "the step size fell below 10 ulp of t").
    """
    target = 0.0 if level is None else level
    events = [_level_event(lvl, rule) for _, lvl, rule in stops]
    events.append(_level_event(target))
    events[-1].terminal = True
    if bound is not None:
        def ev_blowup(xi, y):
            return bound - max(abs(y[0]), abs(y[1]))
        ev_blowup.terminal = True
        events.append(ev_blowup)

    sol = solve_ivp(rhs, span, y0, rtol=tol, atol=tol * 1e-1, events=events,
                    dense_output=bound is not None)
    if bound is not None and len(sol.t_events[-1]):
        raise BlowupError(f"{what} exceeded the blowup bound {bound:.6g} at "
                          f"xi = {sol.t[-1]:.6f}")
    at_level = sol.t_events[len(stops)]
    if level is None and len(at_level):
        raise SonicCrossingError(f"D_Z changed sign at xi = "
                                 f"{at_level[0]:.6f} on the {what}")
    if not sol.success or (level is not None and sol.status != 1):
        # the first level not yet crossed
        ahead = [f"{lvl:.6g}, the series' level at the seam xi = {xi:g}"
                 for (xi, lvl, _), roots in zip(stops, sol.t_events)
                 if not len(roots)]
        raise SonicCrossingError(
            f"{what} stopped at xi = {sol.t[-1]:.6f} without reaching "
            f"D_Z = {(ahead + [f'{target:g}'])[0]} ({sol.message})")
    return sol


def _level_event(level: float, rule=None):
    """The event D_Z - level of a march, with its stop rule."""
    def event(xi, y):
        return d_z(y[0], y[1]) - level
    if rule is not None:
        event.stop = rule
    return event


def _arrive(rhs, span, y0, tol: float, what: str, bound: float,
            seams: list[float], pts, Wc: np.ndarray, Zc: np.ndarray,
            r: float):
    """March from y0 into P_s that stops where the sonic series takes over:
    the solution, the seam and the march coordinate of P_s.

    The march follows series + c |xi|^kappa (1 + ...), so the series
    stands in for it only where the two agree to 100 tol.  It stops where
    D_Z first reaches the series' D_Z at the first candidate seam (_seams,
    signed for this side).  There P_s is relabelled by Newton-matching W
    against the series at the seam, from the event root minus the seam, for
    the root carries the integrator's error, a shift along the autonomous
    orbit.  If the two disagree, the same march goes on to the next
    candidate's level, every step as before; if none agrees, it runs on to
    D_Z = 0 as a plain march would, and the innermost seam is relabelled
    from that root, where a disagreement above 1e-7 is a ConsistencyError.
    At every root the march must be nearer the series' point there (P_s
    itself at D_Z = 0) than the other sonic point P_bar_s, or it is a
    SonicCrossingError naming both.  The decision at a root stands: the
    seam is read off the roots and their decisions, and a march by scipy's
    DOP853, which ignores the stop rule and runs on to D_Z = 0, reads the
    same seam.
    """
    goals = list(zip(_series_eval(Wc, seams).tolist(),
                     _series_eval(Zc, seams).tolist())) + [(pts.P_s.W,
                                                            pts.P_s.Z)]
    levels = [d_z(gw, gz) for gw, gz in goals[:-1]] + [0.0]
    origins = seams + [0.0]
    P_bar = pts.P_bar_s
    relabelled = {}

    def relabel(i: int, root: float, sol) -> tuple[float, float]:
        """(march coordinate of P_s, deviation from the series) at the seam
        of level i, from its root, once per root; the P_bar_s refusal
        first."""
        if (i, root) in relabelled:
            return relabelled[i, root]
        W, Z = sol(root)
        gw, gz = goals[i]
        if np.hypot(W - P_bar.W, Z - P_bar.Z) < np.hypot(W - gw, Z - gz):
            goal = ("the sonic point P_s" if i == len(seams) else
                    f"the series at the seam xi = {seams[i]:g}")
            raise SonicCrossingError(
                f"{what} reached D_Z = {levels[i]:.6g} at ({W:.6f}, "
                f"{Z:.6f}), xi = {root:.6f}, nearer P_bar_s ({P_bar.W:.6f}, "
                f"{P_bar.Z:.6f}) than {goal} ({gw:.6f}, {gz:.6f})")
        k = min(i, len(seams) - 1)
        seam, (w_seam, z_seam) = seams[k], goals[k]
        xi_hit = root - origins[i]
        for _ in range(3):
            w_m, z_m = sol(seam + xi_hit)
            step = (w_seam - w_m) / (n_w(w_m, z_m, r) / d_w(w_m, z_m))
            xi_hit += step
            if abs(step) < 1e-15:
                break
        w_m, z_m = sol(seam + xi_hit)
        relabelled[i, root] = xi_hit, max(abs(w_m - w_seam),
                                          abs(z_m - z_seam))
        return relabelled[i, root]

    def agrees(i):
        return lambda root, sol: relabel(i, root, sol)[1] <= 100.0 * tol

    sol = _march(rhs, span, y0, tol, what, bound=bound,
                 stops=[(seam, level, agrees(i))
                        for i, (seam, level) in enumerate(zip(seams, levels))])
    # the roots in march order, as the stop rules met them
    crossings = sorted((abs(root - span[0]), i, root)
                       for i in range(len(seams)) for root in sol.t_events[i])
    for _, i, root in crossings:
        xi_hit, dev = relabel(i, root, sol.sol)
        if dev <= 100.0 * tol:
            return sol, seams[i], xi_hit
    xi_hit, dev = relabel(len(seams), sol.t_events[len(seams)][0], sol.sol)
    if dev > 1e-7:
        raise ConsistencyError(
            f"{what} and sonic series disagree at xi = {seams[-1]}: "
            f"deviation {dev:.3e}")
    return sol, seams[-1], xi_hit


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
                     ) -> np.ndarray:
    """Right sides of the two stationary profile equations, zero on an
    exact profile, as one new array of shape (2, *shape): N_Psi in row 0
    and N_S in row 1, where shape broadcasts the inputs (complex inputs
    give a complex array); the caller supplies the derivatives.

    Both rows are written in place through one scratch array, in the
    order the two right sides read from left to right, so every value has
    the bits of the plain expression.  The result shares no memory with
    the inputs or the scratch, and unpacks as (N_Psi, N_S).
    """
    r, alpha = params.r, params.alpha
    args = (R, Psi, dPsi, S, dS, lapPsi)
    shape = np.broadcast(*args).shape
    out = np.empty((2, *shape), np.result_type(*args))
    N_Psi, N_S = out
    tmp = np.empty(shape, out.dtype)
    # -(r - 2) Psi - R dPsi - dPsi^2 - alpha S^2
    np.multiply(-(r - 2.0), Psi, out=N_Psi)
    N_Psi -= np.multiply(R, dPsi, out=tmp)
    N_Psi -= np.multiply(dPsi, dPsi, out=tmp)
    np.multiply(alpha, S, out=tmp)
    N_Psi -= np.multiply(tmp, S, out=tmp)
    # -(r - 1) S - R dS - 2 dS dPsi - 2 alpha S lapPsi
    np.multiply(-(r - 1.0), S, out=N_S)
    N_S -= np.multiply(R, dS, out=tmp)
    np.multiply(2.0, dS, out=tmp)
    N_S -= np.multiply(tmp, dPsi, out=tmp)
    np.multiply(2.0 * alpha, S, out=tmp)
    N_S -= np.multiply(tmp, lapPsi, out=tmp)
    return out


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

    margin = acc // 2 + 1    # rows with one-sided first-difference stencils
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
