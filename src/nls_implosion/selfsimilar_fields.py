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

from ._fd import derivative, half_width, reflect, reflected_derivative
from .errors import DomainError, RangeError, ResolutionError, VacuumError
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

#: decay order of the poly cut-off's tail <x>^(-N_D)
N_D = 40

#: smallest |v| at which madelung still takes a phase
MADELUNG_FLOOR = 1e-10


# ---------------------------------------------------------------------------
# smooth cut-offs
# ---------------------------------------------------------------------------

def _smooth_step(t, out=None):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1, NaN for NaN.

    In between it is f(t) / (f(t) + f(1 - t)) with f(t) = exp(-1/t), the
    standard C-infinity germ; the exponentials are taken only there, and
    the plateaus get the exact 0.0 and 1.0 that quotient gives.  The
    result goes into `out` (of t's shape, and may be t itself) when it is
    given, and into a new array otherwise.
    """
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    nan = np.isnan(t)
    if out is None:
        out = np.empty(t.shape)
    np.greater_equal(t, 1.0, out=out)
    out[nan] = np.nan
    f = np.exp(-1.0 / ti)
    out[inside] = f / (f + np.exp(-1.0 / (1.0 - ti)))
    return out[()]


def _cut_argument(kind: str, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The argument t of the cut-off family's step at x, written into out
    and returned: (b - x)/(b - a) for hat, (x - a)/(b - a) for tilde and
    poly, over the family's window (a, b)."""
    a, b = CUT_WINDOWS[kind]
    if kind == "hat":
        np.subtract(b, x, out=out)
    else:
        np.subtract(x, a, out=out)
    out /= b - a
    return out


def cutoff(kind: str, x, out: np.ndarray | None = None):
    """Evaluate the hat / tilde / poly cut-off at radius ratio x >= 0.

    hat:   1 on [0, 1/2], 0 on [2/3, inf)
    tilde: 0 on [0, 1/8], 1 on [1/4, inf)
    poly:  1 on [0, 1/2], <x>^(-N_D) on [2/3, inf), value in (0, 1]

    All three make their transition with the C-infinity monotone step
    f(t)/(f(t) + f(1 - t)), f(t) = exp(-1/t), of _smooth_step, taking
    exponentials only inside a transition window (and, for poly, for the
    tail power), so hat and tilde cost scales with the points inside
    their window, not with the grid.  The result goes into `out` (float64
    of x's shape, not x itself) when it is given, and into a new array
    otherwise; hat and tilde make no other array of x's size.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise DomainError("cut-offs are defined for x >= 0 (and not NaN)")
    if kind not in CUT_WINDOWS:
        raise DomainError(f"unknown cut-off kind {kind!r}")
    if out is None:
        out = np.empty(x.shape)
    blend = _smooth_step(_cut_argument(kind, x, out), out=out)
    if kind == "poly":
        # geometric interpolation between the plateau 1 and <x>^(-N_D):
        # exp(-N_D * blend * log<x>) is C-infinity and monotone decreasing
        np.exp(-0.5 * N_D * blend * np.log1p(x * x), out=out)
    return out[()]


def _smooth_step_derivative(t: np.ndarray, order: int,
                            out: np.ndarray | None = None) -> np.ndarray:
    """g' (order 1) or g'' (order 2) of the step g = _smooth_step, exact 0
    off 0 < t < 1: with u = 1/t^2 + 1/(1 - t)^2, g' = u g (1 - g) and
    g'' = g (1 - g) (u' + u^2 (1 - 2 g)), where g (1 - g) = a b/(a + b)^2
    and 1 - 2 g = (b - a)/(a + b), a = f(t) and b = f(1 - t), have no
    cancellation.  The result goes into `out` (of t's shape, and may be t
    itself) when it is given, and into a new array otherwise."""
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    si = 1.0 - ti
    a, b = np.exp(-1.0 / ti), np.exp(-1.0 / si)
    u = 1.0 / (ti * ti) + 1.0 / (si * si)
    factor = u if order == 1 else (2.0 / si ** 3 - 2.0 / ti ** 3
                                   + u * u * (b - a) / (a + b))
    if out is None:
        out = np.zeros(t.shape)
    else:
        out[...] = 0.0
    out[inside] = a * b / ((a + b) * (a + b)) * factor
    return out


def cutoff_derivative(kind: str, x, order: int = 1,
                      out: np.ndarray | None = None):
    """First or second x-derivative of the hat or tilde cut-off in closed
    form, g^(order)(t) (dt/dx)^order for the step g at its argument t
    (see cutoff), exactly 0 off the window.  Each point is computed
    alone, so the bits do not depend on the array's shape.  poly and
    orders other than 1 and 2 are refused.  The result goes into `out`
    (float64 of x's shape, not x itself) when it is given, and into a new
    array otherwise, with no other array of x's size."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise DomainError("cut-offs are defined for x >= 0 (and not NaN)")
    if kind not in ("hat", "tilde") or order not in (1, 2):
        raise DomainError(f"cut-off derivatives are taken of hat or tilde "
                          f"at order 1 or 2, not of {kind!r} at {order!r}")
    if out is None:
        out = np.empty(x.shape)
    a, b = CUT_WINDOWS[kind]
    slope = (-1.0 if kind == "hat" else 1.0) / (b - a)
    _smooth_step_derivative(_cut_argument(kind, x, out), order, out=out)
    out *= slope ** order
    return out[()]


# ---------------------------------------------------------------------------
# polar (Madelung) variables
# ---------------------------------------------------------------------------

def madelung(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a vacuum-free complex radial field into (rho, psi).

    rho = |v|^2 and psi is the phase, made continuous in radius by
    integrating Im(conj(v) dv)/|v|^2 outward from the first node to select
    the 2 pi branch, so no arctangent branch cut can leak in.  The
    reconstruction sqrt(rho) e^(i psi) is then exact to round-off.  A
    field with |v| < MADELUNG_FLOOR anywhere is a VacuumError.
    """
    v = np.asarray(v, dtype=complex)
    mod = np.abs(v)
    if np.min(mod) < MADELUNG_FLOOR:
        raise VacuumError(
            f"|v| reaches {np.min(mod):.3e} < floor {MADELUNG_FLOOR:.3e}; "
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

# No package code calls these two; bench/layertrace.py times them by name.
def _even_d1(f: np.ndarray, h: float) -> np.ndarray:
    """First derivative of an even radial field (f(-R) = f(R))."""
    return derivative(f, h, 1, acc=RadialGrid.ACC, even=True)


def _even_d2(f: np.ndarray, h: float) -> np.ndarray:
    return derivative(f, h, 2, acc=RadialGrid.ACC, even=True)


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

    The even operators, f_R, the Laplacian f_RR + (d-1)/R f_R with its
    centre limit d f_RR(0), and the transport speed |R + 2U|/R', have
    one implementation: the stage workspace (_StageWorkspace) that
    workspace(shape, dtype) gives for states X of that shape (m, ..., n)
    and dtype, float64 for the stepper's states and complex128 for the
    dissipativity probe's complex step.  It is built on first use and
    kept in the grid's `workspaces` dict under (shape, dtype); it holds
    no reference to its grid, so it goes when the grid does.  d1 and
    laplacian are its allocating front ends: each runs the workspace of
    the state of shape (1, *f.shape) on f, as float64 (complex128 for a
    complex f), and returns a copy of the result.

    A workspace keeps these arrays, all of the state's dtype, and
    rewrites them at every use:
      * pad, X's even reflection, written once by its d1 (`_fd.reflect`)
        and read by the first derivative of every row and the second
        derivative of the X[0] rows (`_fd.reflected_derivative`, at the
        one accuracy ACC), so its laplacian reads the reflection the
        last d1 left;
      * dX, d1's f_R: f_x, times 1/R' on the stretch;
      * lap, laplacian's result for the X[0] rows, f_RR + (d-1)/R f_R
        with the centre row d f_RR(0), and on the stretch
        f_RR = (f_xx - R'' f_R)/R'^2, with f_xx formed in tmp;
      * F and tmp, profile_operator's output and scratch; speed forms
        its result in tmp too;
      * the grid factors R, (d-1)/R (0 at the centre) and, on the
        stretch, 1/R', R'' and 1/R'^2, computed by the workspace and
        broadcast once to the state's shape, C-ordered, since a ufunc
        against a same-shape operand runs faster than against an (n,)
        one.  They take the state's dtype because numpy casts a real
        operand of a complex ufunc through buffers of 128 KiB, which
        would take fresh pages at every call; written into a complex
        array, a real x is x + 0j, as the cast gives it, so the bits
        are the same.
    Fresh at each call: the output of each np.correlate, one block of
    _fd's pass for a real state up to (2, 2, 2048), whose values are
    copied into dX or tmp before any ufunc reads them (a ufunc that
    reads a strided view allocates a buffer of its size), and on a
    complex state the copy of each block of a part of pad.
    """

    #: accuracy order of the even-reflection operators
    ACC = 4

    x: np.ndarray
    R: np.ndarray
    h: float
    c: float | None = None
    d: int = 8
    #: the stage workspaces on this grid, by (state shape, dtype)
    workspaces: dict = field(default_factory=dict, init=False, repr=False)

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

    def workspace(self, shape: tuple[int, ...],
                  dtype=float) -> "_StageWorkspace":
        """The stage workspace for states of that shape and dtype, built
        on first use and kept in `workspaces` under (shape, dtype)."""
        key = (shape, np.dtype(dtype))
        if key not in self.workspaces:
            self.workspaces[key] = _StageWorkspace(self, *key)
        return self.workspaces[key]

    def d1(self, f: np.ndarray) -> np.ndarray:
        """f_R of an even field, along the last axis, as a new array."""
        f = np.asarray(f, dtype=complex if np.iscomplexobj(f) else float)
        return self.workspace((1, *f.shape), f.dtype).d1(f[None])[0].copy()

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """f_RR + (d-1)/R f_R of an even field, along the last axis, with
        the centre limit d f_RR(0), as a new array."""
        f = np.asarray(f, dtype=complex if np.iscomplexobj(f) else float)
        ws = self.workspace((1, *f.shape), f.dtype)
        return ws.laplacian(ws.d1(f[None])[0]).copy()

    def dR(self, f: np.ndarray, m: int, acc: int = 4) -> np.ndarray:
        """m-th R-derivative without reflection (one-sided at both ends):
        on the stretch, (1/R') d_x applied m times."""
        if self.c is None:
            return derivative(f, self.h, m, acc=acc)
        for _ in range(m):
            f = derivative(f, self.h, 1, acc=acc) * self.inv_dR
        return f

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
        unless its nodes are R bit for bit.  A header without its kind,
        or a sinh one without c, is a DomainError naming the key."""
        kind = _entry(grid, "kind", "grid header")
        n, R_max = len(R), float(R[-1]) if len(R) else np.nan
        if kind == "uniform":
            out = cls.uniform(n, R_max, d)
        elif kind == "sinh":
            out = cls.sinh(n, R_max, _entry(grid, "c", "grid header"), d)
        else:
            raise DomainError(f"unknown grid kind {kind!r}")
        if not np.array_equal(out.R, R):
            raise DomainError(f"R column is not the {kind} grid of its header")
        return out


def _entry(entries: dict, key: str, what: str):
    """entries[key], a DomainError naming the key when it is missing."""
    if key not in entries:
        raise DomainError(f"{what} key {key!r} is missing")
    return entries[key]


class _StageWorkspace:
    """The arrays kept for one grid and one state shape (m, ..., n) and
    dtype, with the grid's even operators that write into them (see
    RadialGrid)."""

    def __init__(self, grid: RadialGrid, shape: tuple[int, ...],
                 dtype=float):
        rows, n = shape[1:], shape[-1]

        def kept(a, to):
            out = np.empty(to, dtype)
            out[...] = a
            return out

        self.h, self.d = grid.h, grid.d
        self.width = max(half_width(m, RadialGrid.ACC) for m in (1, 2))
        if n <= self.width:
            raise ResolutionError(f"grid of {n} points too short for the "
                                  f"even operators at accuracy "
                                  f"{RadialGrid.ACC}")
        self.pad = np.empty((*shape[:-1], self.width + n), dtype)
        self.dX, self.F = np.empty(shape, dtype), np.empty(shape, dtype)
        self.lap, self.tmp = np.empty(rows, dtype), np.empty(rows, dtype)
        R = grid.R
        self.R = kept(R, rows)
        self.lap_coef = kept((grid.d - 1) / np.where(R == 0.0, np.inf, R),
                             rows)
        self.inv_dR = None
        if grid.c is not None:
            self.inv_dR = kept(grid.inv_dR, shape)
            self.d2R = kept(R / (grid.c * grid.c), rows)
            self.inv_dR2 = kept(grid.inv_dR * grid.inv_dR, rows)

    def d1(self, X: np.ndarray) -> np.ndarray:
        """f_R of every row of X in the kept dX: X's reflection written
        into pad, and its x-derivative, times 1/R' on the stretch."""
        dX = reflected_derivative(reflect(X, self.width, self.pad),
                                  self.width, self.h, 1, RadialGrid.ACC,
                                  out=self.dX)
        if self.inv_dR is not None:
            dX *= self.inv_dR
        return dX

    def laplacian(self, dPsi: np.ndarray) -> np.ndarray:
        """The Laplacian of the X[0] rows into the kept lap, for the X
        whose reflection the last d1 left in pad and whose X[0] rows have
        the f_R dPsi: f_RR from pad[0] in the kept tmp, (d-1)/R dPsi plus
        f_RR, and the centre's limit d f_RR(0)."""
        fxx, lap = self.tmp, self.lap
        reflected_derivative(self.pad[0], self.width, self.h, 2,
                             RadialGrid.ACC, out=fxx)
        if self.inv_dR is not None:
            # (fxx - R'' dPsi) / R'^2, with lap as the scratch
            np.multiply(self.d2R, dPsi, out=lap)
            fxx -= lap
            fxx *= self.inv_dR2
        np.multiply(self.lap_coef, dPsi, out=lap)
        lap += fxx
        np.multiply(self.d, fxx[..., 0], out=lap[..., 0])
        return lap

    def speed(self, U: np.ndarray) -> np.ndarray:
        """|R + 2U| / R', the transport speed in x of the gradient fields
        U, of the X[0] rows' shape, in the kept tmp."""
        a = np.multiply(2.0, U, out=self.tmp)
        np.add(self.R, a, out=a)
        np.abs(a, out=a)
        if self.inv_dR is not None:
            a *= self.inv_dR[0]
        return a


def radial_laplacian(f: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """d-dimensional radial Laplacian f_RR + (d-1)/R f_R of an even field
    on the grid, with the centre limit d f_RR(0)."""
    return grid.laplacian(f)


# ---------------------------------------------------------------------------
# field container and frame maps
# ---------------------------------------------------------------------------

def _half_log_density(S: np.ndarray, params: ProfileParams) -> np.ndarray:
    """w = log(P)/2, taken through S so it stays finite where P underflows
    (S = 0 gives -inf): log(S sqrt(alpha) / r^(1 - alpha)) / (2 alpha),
    each operation written in place into the one new array it returns."""
    alpha = params.alpha
    w = np.multiply(S, np.sqrt(alpha))
    w /= params.r ** (1.0 - alpha)
    with np.errstate(divide="ignore"):
        np.log(w, out=w)
    w /= 2.0 * alpha
    return w


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
        for name in ("Psi", "S"):
            shape = np.shape(getattr(self, name))
            if shape != self.grid.R.shape:
                raise DomainError(f"{name} column has shape {shape}, the "
                                  f"grid's R {self.grid.R.shape}")
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
        without a grid is a DomainError that names it, and so is any other
        missing key; a header's domain label "mode" (written before it was
        dropped) is ignored."""
        if payload.get("kind") != "fieldset":
            raise DomainError("not a fieldset snapshot")
        params = ProfileParams(r=_entry(
            _entry(payload, "params", "fieldset snapshot"), "r",
            "fieldset params"))
        cols = _entry(payload, "columns", "fieldset snapshot")
        frame = _entry(payload, "frame", "fieldset snapshot")
        if "grid" not in frame:
            raise DomainError("fieldset header has no grid; its frame holds "
                              f"{sorted(frame)}")
        R, Psi, S = (np.asarray(_entry(cols, name, "fieldset column"),
                                dtype=float) for name in ("R", "Psi", "S"))
        grid = RadialGrid.from_payload(frame["grid"], R, params.d)
        return cls.from_Psi_S(params, grid,
                              _entry(frame, "s", "fieldset header"), Psi, S)

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
    """Profile damped by the frame cut-offs, on the profile table's grid;
    the euclidean mode's poly cut-off decays like <y/e^s>^(-N_D)."""

    params: ProfileParams
    R: np.ndarray
    s: float
    mode: str
    S_d: np.ndarray
    Psi_d: np.ndarray
    constants: dict = field(default_factory=dict)


#: rows of the kept scratch that error_terms forms its terms in
_TERM_ROWS = 15


@functools.lru_cache(maxsize=1)
def _terms_scratch(n: int) -> np.ndarray:
    """The kept scratch rows, (_TERM_ROWS, n), for terms on n nodes, built
    on first use; a table of another n replaces them."""
    return np.empty((_TERM_ROWS, n))


def damped_profile(table: ProfileTable, s: float,
                   mode: str = "periodic") -> DampedProfileField:
    """Damp the solved profile with the cut-offs at frame time s.

    Periodic: S_d = S_p hat(y/e^s) + e^(-(r-1)s) tilde(y/e^s) and
    Psi_d = Psi_p hat(y/e^s).  Euclidean: S_d = S_p poly(y/e^s), with
    poly's tail <y/e^s>^(-N_D), and Psi_d = Psi_p.  The empirical
    two-sided comparability constants of S_d with <y>^(-(r-1)) and with
    e^(-(r-1)s) are recorded.
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
        S_d = table.S_nls * cutoff("poly", x)
        Psi_d = table.Psi_nls.copy()
    bracket = np.sqrt(1.0 + R * R) ** (r - 1.0)
    scaled = S_d * bracket
    constants = {"c1": float(np.min(scaled)), "c2": float(np.max(scaled))}
    if mode == "periodic":
        constants["c3"] = float(np.max(np.exp(-(r - 1.0) * s) / S_d))
    return DampedProfileField(params=table.params, R=R, s=float(s), mode=mode,
                              S_d=S_d, Psi_d=Psi_d, constants=constants)


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

    The six arrays returned are new; every other term of the table's size
    is formed in the kept scratch rows of _terms_scratch, each operation
    in place and in the order the expression reads from left to right, so
    every value has the bits of the plain expression.  A term that two
    expressions share (the damped fields' derivatives dPsi_d, lapPsi_d
    and the first part of dS_d, which the closed form of E_S repeats) is
    formed once.
    """
    if dp.mode != "periodic":
        raise DomainError("error terms are implemented for the periodic "
                          "damped profile")
    s = dp.s
    params = table.params
    r, alpha, d = params.r, params.alpha, params.d
    R = table.R
    es = np.exp(s)
    edr = np.exp(-(r - 1.0) * s)

    S_p = table.S_nls
    Psi_p = table.Psi_nls
    dPsi_p = table.U_nls                      # d_R Psi_p
    dS_p = table.dR_S_nls                     # d_R S_p
    lapPsi_p = table.lapPsi_nls

    scratch = _terms_scratch(len(R))
    pair = scratch[13:]
    (x, hat, hat1, t3, tilde, tilde1, trans, lap_hat, dPsi_d, lapPsi_d,
     dS_d, t1, t2) = scratch[:13]
    np.divide(R, es, out=x)
    cutoff("hat", x, out=hat)
    cutoff_derivative("hat", x, order=1, out=hat1)
    hat2 = cutoff_derivative("hat", x, order=2, out=t3)
    cutoff("tilde", x, out=tilde)
    cutoff_derivative("tilde", x, order=1, out=tilde1)

    # trans = hat - hat hat
    np.multiply(hat, hat, out=trans)
    np.subtract(hat, trans, out=trans)
    # Laplacian of hat(y/e^s) in d dimensions:
    # lap_hat = hat2 / es^2 + (d - 1) / R hat1 / es
    np.divide(hat2, es ** 2, out=lap_hat)
    np.divide(d - 1, R, out=t1)
    t1 *= hat1
    t1 /= es
    lap_hat += t1
    # radial derivatives of the damped fields, assembled from the profile
    # columns and cut-off derivatives (exact product rule, no differencing
    # of the damped fields themselves); the closed forms below share them
    # dPsi_d = dPsi_p hat + Psi_p hat1 / es
    np.multiply(dPsi_p, hat, out=dPsi_d)
    np.multiply(Psi_p, hat1, out=t1)
    t1 /= es
    dPsi_d += t1
    # lapPsi_d = lapPsi_p hat + 2 dPsi_p hat1 / es + Psi_p lap_hat
    np.multiply(lapPsi_p, hat, out=lapPsi_d)
    np.multiply(2.0, dPsi_p, out=t1)
    t1 *= hat1
    t1 /= es
    lapPsi_d += t1
    lapPsi_d += np.multiply(Psi_p, lap_hat, out=t1)
    # d_R (S_p hat) = dS_p hat + S_p hat1 / es; dS_d adds edr tilde1 / es
    # to it once the closed form of E_S has read it
    dSphat = dS_d
    np.multiply(dS_p, hat, out=dSphat)
    np.multiply(S_p, hat1, out=t1)
    t1 /= es
    dSphat += t1

    # ---- E_Psi, expanded closed form ----
    # dPsi_p^2 trans + alpha S_p^2 trans - Psi_p^2 hat1^2 / es^2
    # - alpha edr^2 tilde^2 - 2 Psi_p dPsi_p hat1 hat / es
    # - 2 alpha edr tilde S_p hat
    E_Psi = np.multiply(dPsi_p, dPsi_p)
    E_Psi *= trans
    np.multiply(S_p, S_p, out=t1)
    np.multiply(alpha, t1, out=t1)
    t1 *= trans
    E_Psi += t1
    np.multiply(Psi_p, Psi_p, out=t1)
    t1 *= np.multiply(hat1, hat1, out=t2)
    t1 /= es ** 2
    E_Psi -= t1
    np.multiply(tilde, tilde, out=t1)
    np.multiply(alpha * edr ** 2, t1, out=t1)
    E_Psi -= t1
    np.multiply(2.0, Psi_p, out=t1)
    t1 *= dPsi_p
    t1 *= hat1
    t1 *= hat
    t1 /= es
    E_Psi -= t1
    np.multiply(2.0 * alpha * edr, tilde, out=t1)
    t1 *= S_p
    t1 *= hat
    E_Psi -= t1

    bracket_Psi, bracket_S = profile_operator(params, R, Psi_p, dPsi_p, S_p,
                                              dS_p, lapPsi_p, out=pair,
                                              tmp=t1)
    bracket_Psi = np.multiply(bracket_Psi, hat)
    bracket_S = np.multiply(bracket_S, hat)

    # ---- E_S, expanded closed form (verbatim transcription) ----
    # hat bracket_S + 2 alpha S_p lapPsi_p trans + 2 dS_p dPsi_p trans
    # - 2 alpha S_p hat (2 dPsi_p tilde1 / es + Psi_p lap_hat)
    # - 2 dSphat Psi_p hat1 / es - 2 S_p hat1 dPsi_p hat / es
    # - 2 alpha edr tilde (lapPsi_p hat + 2 dPsi_p hat1 / es
    #                      + Psi_p lap_hat)
    # - 2 edr (dPsi_p hat + Psi_p hat1 / es) tilde1 / es,
    # whose two parentheses at the end are lapPsi_d and dPsi_d
    np.multiply(2.0 * alpha, S_p, out=t1)
    t1 *= lapPsi_p
    t1 *= trans
    E_S = np.add(bracket_S, t1)
    np.multiply(2.0, dS_p, out=t1)
    t1 *= dPsi_p
    t1 *= trans
    E_S += t1
    np.multiply(2.0 * alpha, S_p, out=t1)
    t1 *= hat
    np.multiply(2.0, dPsi_p, out=t2)
    t2 *= tilde1
    t2 /= es
    t2 += np.multiply(Psi_p, lap_hat, out=t3)
    t1 *= t2
    E_S -= t1
    np.multiply(2.0, dSphat, out=t1)
    t1 *= Psi_p
    t1 *= hat1
    t1 /= es
    E_S -= t1
    np.multiply(2.0, S_p, out=t1)
    t1 *= hat1
    t1 *= dPsi_p
    t1 *= hat
    t1 /= es
    E_S -= t1
    np.multiply(2.0 * alpha * edr, tilde, out=t1)
    t1 *= lapPsi_d
    E_S -= t1
    np.multiply(2.0 * edr, dPsi_d, out=t1)
    t1 *= tilde1
    t1 /= es
    E_S -= t1

    # ---- defining combinations ----
    # dS_d = dS_p hat + S_p hat1 / es + edr tilde1 / es
    np.multiply(edr, tilde1, out=t1)
    t1 /= es
    dS_d += t1
    N_Psi_d, N_S_d = profile_operator(params, R, dp.Psi_d, dPsi_d, dp.S_d,
                                      dS_d, lapPsi_d, out=pair, tmp=t1)
    # d_s Psi_d = -Psi_p hat1 x, d_s of hat(R e^-s)
    np.negative(Psi_p, out=t1)
    t1 *= hat1
    t1 *= x
    E_Psi_def = np.subtract(N_Psi_d, t1)
    # d_s S_d = -S_p hat1 x - (r - 1) edr tilde - edr tilde1 x
    np.negative(S_p, out=t1)
    t1 *= hat1
    t1 *= x
    t1 -= np.multiply((r - 1.0) * edr, tilde, out=t2)
    np.multiply(edr, tilde1, out=t2)
    t2 *= x
    t1 -= t2
    E_S_def = np.subtract(N_S_d, t1)

    # empirical support: the stated lower edge is |y| = e^s/2 but the tilde
    # transition activates E_S already at |y| = e^s/8; report, do not fail
    combined = np.abs(E_Psi, out=t1)
    combined += np.abs(E_S, out=t2)
    thresh = 1e-10 * (np.max(combined) + 1e-300)
    live = combined > thresh
    first = int(np.argmax(live))
    inner_x = float(x[first]) if live[first] else float("inf")
    note = ("tilde-derivative terms extend the error support inward of the "
            "stated |y| >= e^s/2 edge" if inner_x < 0.5 else
            "support consistent with |y| >= e^s/2")

    def sup_gap(a, b):
        return float(np.max(np.abs(np.subtract(a, b, out=t1), out=t1)))

    return ErrorTerms(
        E_Psi=E_Psi, E_S=E_S,
        E_Psi_defining=E_Psi_def, E_S_defining=E_S_def,
        bracket_Psi=bracket_Psi, bracket_S=bracket_S,
        mismatch_Psi=sup_gap(E_Psi, E_Psi_def),
        mismatch_S=sup_gap(E_S, E_S_def),
        support_inner_x=inner_x, support_note=note)
