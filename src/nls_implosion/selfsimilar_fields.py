"""Field-level machinery: polar (Madelung) variables, self-similar frame
maps, smooth cut-offs, damped profiles and their error terms.

Everything here is radial.  A complex wave field v on a radial grid maps to
(rho, psi) via v = sqrt(rho) e^(i psi); the self-similar frame uses

    psi = (T-t)^(2/r-1)/r * Psi(x e^s, s),     s = -log(T-t)/r,
    rho = (T-t)^(1/(alpha r)-1/alpha)/r * P(x e^s, s),

and the sound-speed variable S = r^(1-alpha)/sqrt(alpha) * P^alpha.  The
damped profile multiplies the stationary profile by cut-offs so it decays
(periodic torus) or becomes integrable (whole space) in the far field; the
price is a pair of error fields E_Psi, E_S supported where the cut-offs
transition, which are evaluated here both from their expanded closed forms
and directly from their defining combination as a cross-check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._fd import derivative
from .errors import DomainError, RangeError, VacuumError
from .phase_portrait import ProfileParams
from .profile_solver import ProfileTable, profile_operator

__all__ = [
    "RadialGrid",
    "FieldSet",
    "DampedProfileField",
    "ErrorTerms",
    "madelung",
    "inverse_madelung",
    "to_selfsimilar",
    "from_selfsimilar",
    "cutoff",
    "cutoff_derivative",
    "damped_profile",
    "error_terms",
    "radial_laplacian",
]

#: transition windows (inner edge, outer edge) of the cut-off families
CUT_WINDOWS = {"hat": (0.5, 2.0 / 3.0), "tilde": (1.0 / 8.0, 1.0 / 4.0),
               "poly": (0.5, 2.0 / 3.0)}


# ---------------------------------------------------------------------------
# smooth cut-offs
# ---------------------------------------------------------------------------

def _smooth_step(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1, NaN for NaN.

    In between it is f(t) / (f(t) + f(1 - t)) with f(t) = exp(-1/t), the
    standard C-infinity germ; the exponentials are taken only there, and
    the plateaus get the exact 0.0 and 1.0 that quotient gives.
    """
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, np.where(np.isnan(t), np.nan, 0.0))
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    f = np.exp(-1.0 / ti)
    out[inside] = f / (f + np.exp(-1.0 / (1.0 - ti)))
    return out[()]


def cutoff(kind: str, x, n_d: int = 40):
    """Evaluate the hat / tilde / poly cut-off at radius ratio x >= 0.

    hat:   1 on [0, 1/2], 0 on [2/3, inf)
    tilde: 0 on [0, 1/8], 1 on [1/4, inf)
    poly:  1 on [0, 1/2], <x>^(-n_d) on [2/3, inf), value in (0, 1]

    All three make their transition with the C-infinity monotone step
    f(t)/(f(t) + f(1 - t)), f(t) = exp(-1/t), of _smooth_step, taking
    exponentials only inside a transition window (and, for poly, for the
    tail power), so hat and tilde cost scales with the points inside
    their window, not with the grid.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise DomainError("cut-offs are defined for x >= 0 (and not NaN)")
    if kind == "hat":
        a, b = CUT_WINDOWS["hat"]
        return _smooth_step((b - x) / (b - a))
    if kind == "tilde":
        a, b = CUT_WINDOWS["tilde"]
        return _smooth_step((x - a) / (b - a))
    if kind == "poly":
        a, b = CUT_WINDOWS["poly"]
        blend = _smooth_step((x - a) / (b - a))
        # geometric interpolation between the plateau 1 and <x>^(-n_d):
        # exp(-n_d * blend * log<x>) is C-infinity and monotone decreasing
        return np.exp(-0.5 * n_d * blend * np.log1p(x * x))
    raise DomainError(f"unknown cut-off kind {kind!r}")


def _smooth_step_derivative(t: np.ndarray, order: int) -> np.ndarray:
    """g' (order 1) or g'' (order 2) of the step g = _smooth_step, exact 0
    off 0 < t < 1: with u = 1/t^2 + 1/(1 - t)^2, g' = u g (1 - g) and
    g'' = g (1 - g) (u' + u^2 (1 - 2 g)), where g (1 - g) = a b/(a + b)^2
    and 1 - 2 g = (b - a)/(a + b), a = f(t) and b = f(1 - t), have no
    cancellation."""
    out = np.zeros(t.shape)
    inside = (t > 0.0) & (t < 1.0)
    ti, si = t[inside], 1.0 - t[inside]
    a, b = np.exp(-1.0 / ti), np.exp(-1.0 / si)
    u = 1.0 / (ti * ti) + 1.0 / (si * si)
    factor = u if order == 1 else (2.0 / si ** 3 - 2.0 / ti ** 3
                                   + u * u * (b - a) / (a + b))
    out[inside] = a * b / ((a + b) * (a + b)) * factor
    return out


def cutoff_derivative(kind: str, x, order: int = 1):
    """First or second x-derivative of the hat or tilde cut-off in closed
    form, g^(order)(t) (dt/dx)^order for the step g at its argument t
    (see cutoff), exactly 0 off the window.  Each point is computed
    alone, so the bits do not depend on the array's shape.  poly and
    orders other than 1 and 2 are refused."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise DomainError("cut-offs are defined for x >= 0 (and not NaN)")
    if kind not in ("hat", "tilde") or order not in (1, 2):
        raise DomainError(f"cut-off derivatives are taken of hat or tilde "
                          f"at order 1 or 2, not of {kind!r} at {order!r}")
    a, b = CUT_WINDOWS[kind]
    t = (b - x) / (b - a) if kind == "hat" else (x - a) / (b - a)
    slope = (-1.0 if kind == "hat" else 1.0) / (b - a)
    return (slope ** order * _smooth_step_derivative(t, order))[()]


# ---------------------------------------------------------------------------
# polar (Madelung) variables
# ---------------------------------------------------------------------------

def madelung(v: np.ndarray, floor: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Split a vacuum-free complex radial field into (rho, psi).

    rho = |v|^2 and psi is the phase, made continuous in radius by
    integrating Im(conj(v) dv)/|v|^2 outward from the first node to select
    the 2 pi branch, so no arctangent branch cut can leak in.  The
    reconstruction sqrt(rho) e^(i psi) is then exact to round-off.
    """
    v = np.asarray(v, dtype=complex)
    mod = np.abs(v)
    if np.min(mod) < floor:
        raise VacuumError(
            f"|v| reaches {np.min(mod):.3e} < floor {floor:.3e}; "
            "phase undefined near vacuum")
    rho = mod * mod
    psi = np.empty(len(v))
    psi[0] = np.angle(v[0])
    principal = np.angle(v[1:] * np.conj(v[:-1]))
    # trapezoid estimate of the phase increment from the polar identity
    dv = v[1:] - v[:-1]
    mid = 0.5 * (v[1:] + v[:-1])
    est = np.imag(np.conj(mid) * dv) / np.abs(mid) ** 2
    wind = np.round((est - principal) / (2.0 * np.pi))
    psi[1:] = psi[0] + np.cumsum(principal + 2.0 * np.pi * wind)
    return rho, psi


def inverse_madelung(rho: np.ndarray, psi: np.ndarray) -> np.ndarray:
    if np.any(rho <= 0):
        raise DomainError("rho must be positive")
    return np.sqrt(rho) * np.exp(1j * psi)


# ---------------------------------------------------------------------------
# radial calculus on grids containing R = 0
# ---------------------------------------------------------------------------

def _even_d1(f: np.ndarray, h: float, acc: int = 4) -> np.ndarray:
    """First derivative of an even radial field (f(-R) = f(R))."""
    return derivative(f, h, 1, acc=acc, even=True)


def _even_d2(f: np.ndarray, h: float, acc: int = 4) -> np.ndarray:
    return derivative(f, h, 2, acc=acc, even=True)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Radial nodes R_j = R(x_j) over a uniform grid x_j = j h from the
    centre R = 0, in dimension d.

    Two constructors build every grid, from its node count n and its
    radius R_max: uniform(n, R_max), the identity map (kind "uniform",
    c = None, R = x = linspace(0, R_max, n)), and sinh(n, R_max, c), the
    stretch R = c sinh(x/c) (kind "sinh"): spacing h at the centre,
    growing like R/c outward, with R[-1] = R_max exactly.  Either map is
    odd in x, so an even field stays even in x and the even-reflection
    derivative applies in x unchanged; R-derivatives follow by the chain
    rule, f_R = f_x / R' and f_RR = (f_xx - R'' f_R) / R'^2, and at R = 0
    (R' = 1, R'' = 0) the Laplacian keeps its limit d f_xx(0).  On the
    identity map every operator is the uniform-grid one, call for call.
    The quadrature is the trapezoid rule in x with the measure
    R' R^(d-1) dx.  Every radial routine of the package takes its nodes
    as a RadialGrid; from_payload rebuilds a stored grid through its
    kind's constructor.
    """

    x: np.ndarray
    R: np.ndarray
    h: float
    c: float | None = None
    d: int = 8

    @classmethod
    def uniform(cls, n: int, R_max: float, d: int = 8) -> "RadialGrid":
        """n nodes of the identity map on [0, R_max]: R = x =
        linspace(0, R_max, n), h = R[1] - R[0].  A DomainError naming the
        values unless n >= 2 and R_max is finite and > 0."""
        if not (n >= 2 and 0.0 < R_max < np.inf):
            raise DomainError(f"n = {n}, R_max = {R_max}; a radial grid "
                              f"needs n >= 2 and a finite R_max > 0")
        R = np.linspace(0.0, R_max, n)
        return cls(x=R, R=R, h=float(R[1] - R[0]), d=d)

    @classmethod
    def sinh(cls, n: int, R_max: float, c: float,
             d: int = 8) -> "RadialGrid":
        """n nodes of R = c sinh(x/c) on [0, R_max].  A DomainError naming
        the values unless n >= 2 and R_max and c are finite and > 0."""
        if not (n >= 2 and 0.0 < R_max < np.inf and 0.0 < c < np.inf):
            raise DomainError(f"n = {n}, R_max = {R_max}, c = {c}; a sinh "
                              f"grid needs n >= 2 and finite R_max, c > 0")
        x_max = c * float(np.arcsinh(R_max / c))
        x = np.linspace(0.0, x_max, n)
        R = c * np.sinh(x / c)
        R[-1] = R_max
        return cls(x=x, R=R, h=x_max / (n - 1), c=float(c), d=d)

    @property
    def kind(self) -> str:
        return "uniform" if self.c is None else "sinh"

    @functools.cached_property
    def inv_dR(self) -> np.ndarray:
        """1/R'."""
        return 1.0 / np.cosh(self.x / self.c)

    @functools.cached_property
    def d2R(self) -> np.ndarray:
        """R'' = R / c^2."""
        return self.R / (self.c * self.c)

    @functools.cached_property
    def inv_dR2(self) -> np.ndarray:
        """1/R'^2."""
        return self.inv_dR * self.inv_dR

    @functools.cached_property
    def jac(self) -> np.ndarray:
        """R' R^(d-1), the measure of the quadrature in x."""
        vol = self.R ** (self.d - 1)
        return vol if self.c is None else vol * np.cosh(self.x / self.c)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """quad as a vector: trapezoid weights in x times R' R^(d-1)."""
        half_dx = 0.5 * np.diff(self.x)
        w = np.zeros_like(self.x)
        w[:-1] += half_dx
        w[1:] += half_dx
        return w * self.jac

    def quad(self, f: np.ndarray) -> float:
        """int f R^(d-1) dR over [0, R_max]."""
        return float(np.trapezoid(f * self.jac, self.x))

    @functools.cached_property
    def lap_coef(self) -> np.ndarray:
        """(d-1)/R, the Laplacian's coefficient of f_R, with 0 at the
        centre R = 0."""
        return (self.d - 1) / np.where(self.R == 0.0, np.inf, self.R)

    def d1(self, f: np.ndarray, acc: int = 4) -> np.ndarray:
        """f_R of an even field, along the last axis."""
        fx = _even_d1(f, self.h, acc=acc)
        return fx if self.c is None else fx * self.inv_dR

    def d2(self, f: np.ndarray, d1: np.ndarray, acc: int = 4) -> np.ndarray:
        """f_RR of an even field whose f_R is d1."""
        fxx = _even_d2(f, self.h, acc=acc)
        if self.c is None:
            return fxx
        # (fxx - R'' d1) / R'^2, in one new array
        out = np.multiply(self.d2R, d1)
        np.subtract(fxx, out, out=out)
        out *= self.inv_dR2
        return out

    def laplacian(self, f: np.ndarray, d1: np.ndarray,
                  acc: int = 4) -> np.ndarray:
        """f_RR + (d-1)/R f_R of an even field whose f_R is d1, along the
        last axis, as one new array: the cached lap_coef times d1, plus
        f_RR in place, with the centre row overwritten by its limit
        d f_RR(0).  It shares no memory with f, d1 or f_RR."""
        d2 = self.d2(f, d1, acc=acc)
        out = np.multiply(self.lap_coef, d1)
        out += d2
        np.multiply(self.d, d2[..., 0], out=out[..., 0])
        return out

    def dR(self, f: np.ndarray, m: int, acc: int = 4) -> np.ndarray:
        """m-th R-derivative without reflection (one-sided at both ends):
        on the stretch, (1/R') d_x applied m times."""
        if self.c is None:
            return derivative(f, self.h, m, acc=acc)
        for _ in range(m):
            f = derivative(f, self.h, 1, acc=acc) * self.inv_dR
        return f

    def speed(self, U: np.ndarray) -> np.ndarray:
        """|R + 2U| / R', the transport speed in x."""
        a = np.abs(self.R + 2.0 * U)
        return a if self.c is None else a * self.inv_dR

    def payload(self) -> dict:
        """The map and its extreme physical spacings, JSON-ready."""
        dR = np.diff(self.R)
        return {"kind": self.kind, "c": self.c, "n": len(self.R),
                "R_max": float(self.R[-1]), "dR_min": float(np.min(dR)),
                "dR_max": float(np.max(dR))}

    @classmethod
    def from_payload(cls, grid: dict, R: np.ndarray,
                     d: int = 8) -> "RadialGrid":
        """The grid a payload names, rebuilt by its kind's constructor from
        (len(R), R[-1], c), which refuses a degenerate one, and refused
        unless its nodes are R bit for bit."""
        kind = grid["kind"]
        n, R_max = len(R), float(R[-1]) if len(R) else np.nan
        if kind == "uniform":
            out = cls.uniform(n, R_max, d)
        elif kind == "sinh":
            out = cls.sinh(n, R_max, grid["c"], d)
        else:
            raise DomainError(f"unknown grid kind {kind!r}")
        if not np.array_equal(out.R, R):
            raise DomainError(f"R column is not the {kind} grid of its header")
        return out


def radial_laplacian(f: np.ndarray, grid: RadialGrid,
                     acc: int = 4) -> np.ndarray:
    """d-dimensional radial Laplacian f_RR + (d-1)/R f_R of an even field
    on the grid, with the centre limit d f_RR(0)."""
    return grid.laplacian(f, grid.d1(f, acc=acc), acc=acc)


# ---------------------------------------------------------------------------
# field container and frame maps
# ---------------------------------------------------------------------------

def _half_log_density(S: np.ndarray, params: ProfileParams) -> np.ndarray:
    """w = log(P)/2, taken through S so it stays finite where P underflows
    (S = 0 gives -inf)."""
    alpha = params.alpha
    with np.errstate(divide="ignore"):
        return (np.log(S * np.sqrt(alpha) / params.r ** (1.0 - alpha))
                / (2.0 * alpha))


@dataclass(frozen=True)
class FieldSet:
    """Radial field snapshot in the self-similar frame, in the full space.

    The state is (Psi, S) on a RadialGrid, with S the sound-speed
    variable; the density P, the half log-density w and U = d_R Psi are
    derived on first use.  Exact vacuum (S = 0, so P = 0, w = -inf) is
    representable.  The snapshot carries no domain label: the periodic
    and euclidean cut-off families are a choice of damped_profile, not a
    property of the fields.
    """

    params: ProfileParams
    grid: RadialGrid
    s: float
    Psi: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        if not np.all(self.S >= 0):
            raise DomainError("S must be nonnegative (and not NaN)")

    @property
    def R(self) -> np.ndarray:
        return self.grid.R

    @functools.cached_property
    def P(self) -> np.ndarray:
        alpha = self.params.alpha
        return ((self.S * np.sqrt(alpha) / self.params.r ** (1.0 - alpha))
                ** (1.0 / alpha))

    @functools.cached_property
    def w(self) -> np.ndarray:
        return _half_log_density(self.S, self.params)

    @functools.cached_property
    def U(self) -> np.ndarray:
        return self.grid.d1(self.Psi)

    def payload(self) -> dict:
        """JSON-ready snapshot with the frame metadata header (s and the
        grid's map); from_payload reads it back."""
        return {
            "schema_version": 1,
            "kind": "fieldset",
            "frame": {"s": self.s, "grid": self.grid.payload()},
            "params": {"r": self.params.r, "d": self.params.d,
                       "p": self.params.p},
            "columns": {"R": self.R.tolist(), "Psi": self.Psi.tolist(),
                        "S": self.S.tolist()},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FieldSet":
        """The snapshot of payload(); its R column must be the nodes of the
        grid its header names (see RadialGrid.from_payload).  A header
        without a grid (written before grids had maps) names the uniform
        grid, and a header's domain label "mode" (written before it was
        dropped) is ignored."""
        if payload.get("kind") != "fieldset":
            raise DomainError("not a fieldset snapshot")
        params = ProfileParams(r=payload["params"]["r"])
        cols = payload["columns"]
        frame = payload["frame"]
        grid = RadialGrid.from_payload(frame.get("grid", {"kind": "uniform"}),
                                       np.asarray(cols["R"], dtype=float),
                                       params.d)
        return cls.from_Psi_S(params, grid, frame["s"],
                              np.asarray(cols["Psi"]), np.asarray(cols["S"]))

    @classmethod
    def from_Psi_S(cls, params: ProfileParams, grid: RadialGrid, s: float,
                   Psi: np.ndarray, S: np.ndarray) -> "FieldSet":
        """The snapshot of Psi and S at frame time s on the grid, which
        RadialGrid.uniform or RadialGrid.sinh built."""
        return cls(params=params, grid=grid, s=float(s),
                   Psi=np.asarray(Psi, dtype=float),
                   S=np.asarray(S, dtype=float))


def to_selfsimilar(psi: np.ndarray, rho: np.ndarray, x: np.ndarray,
                   T: float, t: float, params: ProfileParams) -> FieldSet:
    """Map physical (psi, rho) on the nodes x at time t to the frame fields.

    s = -log(T-t)/r and y = x e^s; the amplitude powers follow the ansatz
    exactly, so composing with from_selfsimilar is the identity up to
    rounding.  x must be uniform from 0, linspace(0, x[-1], len(x)) to
    rtol 1e-12, or it is a DomainError naming x; the frame grid is
    RadialGrid.uniform(len(x), x[-1] e^s).
    """
    if not 0.0 <= t < T:
        raise DomainError(f"need 0 <= t < T, got t = {t}, T = {T}")
    if not (len(x) > 1 and 0.0 < x[-1] < np.inf and np.allclose(
            x, np.linspace(0.0, x[-1], len(x)), rtol=1e-12, atol=0)):
        raise DomainError("x is not a uniform grid from 0 with x[-1] > 0")
    rho = np.asarray(rho, dtype=float)
    if not np.all(rho >= 0):
        raise DomainError("rho must be nonnegative (and not NaN)")
    r, alpha = params.r, params.alpha
    Tt = T - t
    s = -np.log(Tt) / r
    Psi = r * Tt ** (1.0 - 2.0 / r) * np.asarray(psi, dtype=float)
    P = r * Tt ** (1.0 / alpha - 1.0 / (alpha * r)) * rho
    grid = RadialGrid.uniform(len(x), x[-1] * np.exp(s), params.d)
    S = r ** (1.0 - alpha) / np.sqrt(alpha) * P ** alpha
    return FieldSet.from_Psi_S(params, grid, s, Psi, S)


def from_selfsimilar(fs: FieldSet, T: float, t: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse frame map; returns (psi, rho, x)."""
    if not 0.0 <= t < T:
        raise DomainError(f"need 0 <= t < T, got t = {t}, T = {T}")
    r, alpha = fs.params.r, fs.params.alpha
    Tt = T - t
    psi = Tt ** (2.0 / r - 1.0) / r * fs.Psi
    rho = Tt ** (1.0 / (alpha * r) - 1.0 / alpha) / r * fs.P
    x = fs.R * Tt ** (1.0 / r)
    return psi, rho, x


# ---------------------------------------------------------------------------
# damped profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DampedProfileField:
    """Profile damped by the frame cut-offs, on the profile table's grid."""

    params: ProfileParams
    R: np.ndarray
    s: float
    mode: str
    n_d: int
    S_d: np.ndarray
    Psi_d: np.ndarray
    constants: dict = field(default_factory=dict)


def damped_profile(table: ProfileTable, s: float, mode: str = "periodic",
                   n_d: int = 40) -> DampedProfileField:
    """Damp the solved profile with the cut-offs at frame time s.

    Periodic: S_d = S_p hat(y/e^s) + e^(-(r-1)s) tilde(y/e^s) and
    Psi_d = Psi_p hat(y/e^s).  Euclidean: S_d = S_p poly(y/e^s),
    Psi_d = Psi_p.  The empirical two-sided comparability constants of S_d
    with <y>^(-(r-1)) and with e^(-(r-1)s) are recorded.
    """
    if mode not in ("periodic", "euclidean"):
        raise DomainError(f"unknown mode {mode!r}")
    r = table.params.r
    R = table.R
    if R[-1] < (2.0 / 3.0) * np.exp(s):
        raise RangeError(
            f"table covers R <= {R[-1]:.4g} but the cut-off transition of "
            f"e^s = {np.exp(s):.4g} extends to {(2/3)*np.exp(s):.4g}")
    x = R * np.exp(-s)
    if mode == "periodic":
        hat = cutoff("hat", x)
        tilde = cutoff("tilde", x)
        S_d = table.S_nls * hat + np.exp(-(r - 1.0) * s) * tilde
        Psi_d = table.Psi_nls * hat
    else:
        S_d = table.S_nls * cutoff("poly", x, n_d=n_d)
        Psi_d = table.Psi_nls.copy()
    bracket = np.sqrt(1.0 + R * R) ** (r - 1.0)
    scaled = S_d * bracket
    constants = {"c1": float(np.min(scaled)), "c2": float(np.max(scaled))}
    if mode == "periodic":
        constants["c3"] = float(np.max(np.exp(-(r - 1.0) * s) / S_d))
    return DampedProfileField(params=table.params, R=R, s=float(s), mode=mode,
                              n_d=n_d, S_d=S_d, Psi_d=Psi_d,
                              constants=constants)


# ---------------------------------------------------------------------------
# error terms of the damped profile
# ---------------------------------------------------------------------------

class ErrorTerms(NamedTuple):
    E_Psi: np.ndarray          # expanded closed form
    E_S: np.ndarray            # expanded closed form (display transcribed)
    E_Psi_defining: np.ndarray  # from the defining combination
    E_S_defining: np.ndarray
    bracket_Psi: np.ndarray    # under-braced profile combination (expect ~0)
    bracket_S: np.ndarray
    # sup |expanded - defining|; for Psi that is the round-off of the
    # defining route's cancellation, a few eps times its terms' sup (see
    # error_terms), not a transcription
    mismatch_Psi: float
    mismatch_S: float
    support_inner_x: float     # smallest y e^-s with non-negligible error
    support_note: str


def error_terms(dp: DampedProfileField, table: ProfileTable) -> ErrorTerms:
    """Evaluate the damped-profile error fields E_Psi and E_S (periodic) at
    the damped profile's frame time dp.s.

    Two routes are taken for each field: the expanded closed form,
    transcribed term by term, and the defining combination
    -d_s(damped) + (stationary operator applied to the damped fields).
    Their sup-norm mismatch is reported, not reconciled.  For E_S it
    measures a transcription: the expanded E_S display contains a
    cut-off-derivative term whose argument looks like a transcription
    slip at source, and mismatch_S quantifies exactly the effect of
    evaluating it verbatim.  For E_Psi it measures round-off: the defining
    E_Psi is N_Psi_d - d_s Psi_d, two fields whose sups are about 29 on
    the wide r = 2.01 table, cancelling to 5.2e-6, 6.9e-7 and 9.1e-8 at
    s = 10, 11 and 12, and mismatch_Psi (7.6e-15, 7.3e-15 and 9.3e-15
    there) is 1.13 to 1.45 eps times that scale of 29.  The under-braced
    profile brackets (zero for an exact profile) are returned as a
    consistency output.
    """
    if dp.mode != "periodic":
        raise DomainError("error terms are implemented for the periodic "
                          "damped profile")
    s = dp.s
    params = table.params
    r, alpha, d = params.r, params.alpha, params.d
    R = table.R
    es = np.exp(s)
    x = R / es

    S_p = table.S_nls
    Psi_p = table.Psi_nls
    dPsi_p = table.U_nls                      # d_R Psi_p
    dS_p = table.dR_S_nls                     # d_R S_p
    lapPsi_p = table.lapPsi_nls

    hat = cutoff("hat", x)
    hat1 = cutoff_derivative("hat", x, order=1)
    hat2 = cutoff_derivative("hat", x, order=2)
    tilde = cutoff("tilde", x)
    tilde1 = cutoff_derivative("tilde", x, order=1)
    edr = np.exp(-(r - 1.0) * s)

    # ---- E_Psi, expanded closed form ----
    trans = hat - hat * hat
    bracket_Psi, bracket_S = profile_operator(params, R, Psi_p, dPsi_p, S_p,
                                              dS_p, lapPsi_p)
    E_Psi = (dPsi_p ** 2 * trans + alpha * S_p ** 2 * trans
             - Psi_p ** 2 * hat1 ** 2 / es ** 2
             - alpha * edr ** 2 * tilde ** 2
             - 2.0 * Psi_p * dPsi_p * hat1 * hat / es
             - 2.0 * alpha * edr * tilde * S_p * hat)

    # ---- E_S, expanded closed form (verbatim transcription) ----
    # Laplacian of hat(y/e^s) in d dimensions
    lap_hat = hat2 / es ** 2 + (d - 1) / R * hat1 / es
    dSphat = dS_p * hat + S_p * hat1 / es     # d_R (S_p hat)
    E_S = (hat * bracket_S
           + 2.0 * alpha * S_p * lapPsi_p * trans
           + 2.0 * dS_p * dPsi_p * trans
           - 2.0 * alpha * S_p * hat * (2.0 * dPsi_p * tilde1 / es
                                        + Psi_p * lap_hat)
           - 2.0 * dSphat * Psi_p * hat1 / es
           - 2.0 * S_p * hat1 * dPsi_p * hat / es
           - 2.0 * alpha * edr * tilde * (lapPsi_p * hat
                                          + 2.0 * dPsi_p * hat1 / es
                                          + Psi_p * lap_hat)
           - 2.0 * edr * (dPsi_p * hat + Psi_p * hat1 / es) * tilde1 / es)

    # ---- defining combinations ----
    S_d, Psi_d = dp.S_d, dp.Psi_d
    # radial derivatives of the damped fields, assembled from the profile
    # columns and cut-off derivatives (exact product rule, no differencing
    # of the damped fields themselves)
    dPsi_d = dPsi_p * hat + Psi_p * hat1 / es
    lapPsi_d = (lapPsi_p * hat + 2.0 * dPsi_p * hat1 / es + Psi_p * lap_hat)
    dS_d = dS_p * hat + S_p * hat1 / es + edr * tilde1 / es
    ds_Psi_d = -Psi_p * hat1 * x            # d_s of hat(R e^-s)
    ds_S_d = (-S_p * hat1 * x - (r - 1.0) * edr * tilde - edr * tilde1 * x)

    N_Psi_d, N_S_d = profile_operator(params, R, Psi_d, dPsi_d, S_d, dS_d,
                                      lapPsi_d)
    E_Psi_def = N_Psi_d - ds_Psi_d
    E_S_def = N_S_d - ds_S_d

    # empirical support: the stated lower edge is |y| = e^s/2 but the tilde
    # transition activates E_S already at |y| = e^s/8; report, do not fail
    combined = np.abs(E_Psi) + np.abs(E_S)
    thresh = 1e-10 * (np.max(combined) + 1e-300)
    live = combined > thresh
    inner_x = float(x[live][0]) if np.any(live) else float("inf")
    note = ("tilde-derivative terms extend the error support inward of the "
            "stated |y| >= e^s/2 edge" if inner_x < 0.5 else
            "support consistent with |y| >= e^s/2")

    return ErrorTerms(
        E_Psi=E_Psi, E_S=E_S,
        E_Psi_defining=E_Psi_def, E_S_defining=E_S_def,
        bracket_Psi=bracket_Psi * hat, bracket_S=bracket_S * hat,
        mismatch_Psi=float(np.max(np.abs(E_Psi - E_Psi_def))),
        mismatch_S=float(np.max(np.abs(E_S - E_S_def))),
        support_inner_x=inner_x, support_note=note)
