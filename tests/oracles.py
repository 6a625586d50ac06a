"""Independent cross-checks that the tests compare the package against.

Each function recomputes a quantity the package computes another way: the
L'Hopital quadratic against the closed-form sonic slope, the quadratic
Taylor seed against the series recurrence, Xi_1 and the barrier normals
by the product rule against their factored forms, the complex radial
NLS against its polar form, the dense cut-offs, evaluated at every
point, against the windowed ones, and the cut-offs' derivatives by
50-digit numerical differentiation against their closed forms.  No
package code calls them, so they live with the tests.
"""

import math

import mpmath
import numpy as np

from nls_implosion.errors import DomainError
from nls_implosion.phase_portrait import (
    GRAD_D_Z,
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
from nls_implosion.selfsimilar_fields import (
    CUT_WINDOWS,
    RadialGrid,
    _even_d1,
    radial_laplacian,
)

#: grad D_W; the package itself only needs grad D_Z
GRAD_D_W = (0.75, 0.25)


# ---------------------------------------------------------------------------
# phase portrait
# ---------------------------------------------------------------------------

def sonic_slope_quadratic_roots(params: ProfileParams) -> tuple[float, float]:
    """Both roots of the L'Hopital quadratic for Z_1 at P_s.

    dZ/dxi = N_Z/D_Z is 0/0 at the sonic point; L'Hopital gives

        Z1 * grad(D_Z) . (W1, Z1) = grad(N_Z) . (W1, Z1)

    with W1 known from the regular equation.  This is quadratic in Z1; the
    smooth branch is the one matching the closed form of sonic_slope.  Kept
    on purpose as an independent test cross-check of that closed form.
    """
    r = params.r
    _, _, W0, Z0, W1, _ = _sonic_closed_forms(r)
    nzw, nzz = grad_n_z(W0, Z0, r)
    # Z1 * (GRAD_D_Z . (W1, Z1)) = nzw*W1 + nzz*Z1
    # => 0.75*Z1^2 + (0.25*W1 - nzz)*Z1 - nzw*W1 = 0
    a = GRAD_D_Z[1]
    b = GRAD_D_Z[0] * W1 - nzz
    c = -nzw * W1
    disc = b * b - 4.0 * a * c
    if disc < 0:
        raise DomainError(f"L'Hopital quadratic has no real roots at r = {r}")
    sq = math.sqrt(disc)
    return (-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a)


def xi1_poly(W, Z, r, alpha=0.5):
    """Xi_1 = D_W^2 D_Z + (alpha/2) N_W D_Z - (alpha/2) N_Z D_W; kept on
    purpose as an independent test cross-check of xi1_us."""
    DW, DZ = d_w(W, Z), d_z(W, Z)
    return DW * DW * DZ + 0.5 * alpha * (n_w(W, Z, r) * DZ - n_z(W, Z, r) * DW)


def grad_b_normal_partI_expanded(W, Z, r):
    """Same directional derivative by the product rule; kept on purpose as
    an independent test cross-check of the closed form."""
    nww, nwz = grad_n_w(W, Z, r)
    nzw, nzz = grad_n_z(W, Z, r)
    DW, DZ = d_w(W, Z), d_z(W, Z)
    NW, NZ = n_w(W, Z, r), n_z(W, Z, r)
    gW = nww * DZ + NW * GRAD_D_Z[0] + nzw * DW + NZ * GRAD_D_W[0]
    gZ = nwz * DZ + NW * GRAD_D_Z[1] + nzz * DW + NZ * GRAD_D_W[1]
    return -gW + gZ


def grad_b_normal_partII_expanded(W, Z, r):
    """Same directional derivative by the product rule; kept on purpose as
    an independent test cross-check of the closed form."""
    nww, nwz = grad_n_w(W, Z, r)
    nzw, nzz = grad_n_z(W, Z, r)
    DW, DZ = d_w(W, Z), d_z(W, Z)
    NW, NZ = n_w(W, Z, r), n_z(W, Z, r)
    gW = nww * DZ + NW * GRAD_D_Z[0] - nzw * DW - NZ * GRAD_D_W[0]
    gZ = nwz * DZ + NW * GRAD_D_Z[1] - nzz * DW - NZ * GRAD_D_W[1]
    return -gW - gZ


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
# polar-equation consistency
# ---------------------------------------------------------------------------

def nls_rhs_complex(v: np.ndarray, grid: RadialGrid,
                    p: int = 3) -> np.ndarray:
    """d v/dt for i d_t v = v |v|^(p-1) - Lap v, radial in the grid's
    dimension; kept on purpose as an independent test cross-check of
    nls_rhs_polar."""
    lap_re = radial_laplacian(v.real, grid)
    lap_im = radial_laplacian(v.imag, grid)
    lap = lap_re + 1j * lap_im
    return -1j * (v * np.abs(v) ** (p - 1) - lap)


def nls_rhs_polar(rho: np.ndarray, psi: np.ndarray, grid: RadialGrid,
                  p: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Right sides of the polar system equivalent to the complex equation;
    kept on purpose as the tests' physical-frame reference for `step`.

    d_t psi = -rho^((p-1)/2) + Lap(rho)/(2 rho) - |grad rho|^2/(4 rho^2)
              - |grad psi|^2
    d_t rho = 2 (-grad rho . grad psi - rho Lap psi)
    """
    drho = _even_d1(rho, grid.h)
    dpsi = _even_d1(psi, grid.h)
    lap_rho = radial_laplacian(rho, grid)
    lap_psi = radial_laplacian(psi, grid)
    dt_psi = (-rho ** ((p - 1) / 2.0) + lap_rho / (2.0 * rho)
              - drho ** 2 / (4.0 * rho ** 2) - dpsi ** 2)
    dt_rho = 2.0 * (-drho * dpsi - rho * lap_psi)
    return dt_psi, dt_rho


# ---------------------------------------------------------------------------
# dense cut-offs
# ---------------------------------------------------------------------------

def dense_bump(t):
    """exp(-1/t) for t > 0, 0 otherwise; the standard C-infinity germ."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def dense_smooth_step(t):
    """The step as f / (f + dense_bump(1 - t)), f = dense_bump(t), at
    every point, plateaus included; kept on purpose as the reference the
    windowed _smooth_step must match bit for bit."""
    f = dense_bump(t)
    return f / (f + dense_bump(1.0 - t))


def dense_cutoff(kind: str, x, n_d: int = 40):
    """The cut-offs through dense_smooth_step, for finite x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("cut-offs are defined for x >= 0")
    if kind == "hat":
        a, b = CUT_WINDOWS["hat"]
        return dense_smooth_step((b - x) / (b - a))
    if kind == "tilde":
        a, b = CUT_WINDOWS["tilde"]
        return dense_smooth_step((x - a) / (b - a))
    if kind == "poly":
        a, b = CUT_WINDOWS["poly"]
        blend = dense_smooth_step((x - a) / (b - a))
        return np.exp(-0.5 * n_d * blend * np.log1p(x * x))
    raise DomainError(f"unknown cut-off kind {kind!r}")


def mp_cutoff_derivative(kind: str, x, order: int = 1, dps: int = 50):
    """The order-th x-derivative of the hat or tilde cut-off at each
    double x, by mpmath's numerical differentiation at dps digits of the
    cut-off's defining quotient f(t)/(f(t) + f(1 - t)), f(t) = exp(-1/t),
    over the same double window edges; kept on purpose as the reference
    the closed-form cutoff_derivative must match."""
    with mpmath.workdps(dps):
        a, b = (mpmath.mpf(e) for e in CUT_WINDOWS[kind])

        def step(t):
            if t <= 0:
                return mpmath.mpf(0)
            if t >= 1:
                return mpmath.mpf(1)
            f = mpmath.exp(-1 / t)
            return f / (f + mpmath.exp(-1 / (1 - t)))

        def cut(y):
            return step((b - y) / (b - a) if kind == "hat"
                        else (y - a) / (b - a))

        vals = [float(mpmath.diff(cut, mpmath.mpf(float(v)), order))
                for v in np.ravel(x)]
    return np.array(vals).reshape(np.shape(x))
