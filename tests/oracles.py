"""Independent cross-checks that the tests compare the package against.

Each function recomputes a quantity the package computes another way: the
L'Hopital quadratic against the closed-form sonic slope, the quadratic
Taylor seed against the series recurrence, the series' fixed-point
integers summed term by term against the carried sums, Xi_1 and the
barrier normals by the product rule against their factored forms, the
complex radial NLS against its polar form, the dense cut-offs, evaluated
at every point, against the windowed ones, and the cut-offs' derivatives
by 50-digit numerical differentiation against their closed forms, the
dissipativity probe's forms in fresh arrays against the kept ones, the
blow-up fit with one grid quadrature per row against its stacked one, and
the grid's even operators, the chain rule written out, against its stage
workspace.  No package code calls them, so they live with the
tests.
"""

import math

import mpmath
import numpy as np

from nls_implosion._fd import derivative
from nls_implosion.dynamics_lab import (
    BLOWUP_LOG10_TT,
    BLOWUP_N_TIMES,
    DissipativityForm,
    _sym,
    profile_fieldset,
)
from nls_implosion.errors import ConsistencyError, DomainError
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
from nls_implosion.profile_solver import (
    SERIES_BITS,
    SERIES_DPS,
    _fixed,
    _kappa_text,
    profile_operator,
)
from nls_implosion.selfsimilar_fields import (
    CUT_WINDOWS,
    N_D,
    RadialGrid,
    _even_d1,
    _smooth_step,
    cutoff,
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


def sonic_series_fixed(r: float, order: int) -> tuple[tuple[int, ...],
                                                      tuple[int, ...]]:
    """The sonic series' fixed-point integers up to `order`, by the
    recurrence that sums every convolution of each balance afresh, term
    by term: the reference that profile_solver._sonic_series_fixed,
    which carries the sums from one order to the next, must match
    integer for integer.
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


# ---------------------------------------------------------------------------
# the grid's even operators
# ---------------------------------------------------------------------------

def _inv_dR(grid: RadialGrid):
    """1/R' = 1/cosh(x/c) on the stretch R = c sinh(x/c), 1 on the
    identity map."""
    return 1.0 if grid.c is None else 1.0 / np.cosh(grid.x / grid.c)


def plain_d1(f, grid: RadialGrid) -> np.ndarray:
    """f_R of an even field on the grid by the chain rule written out:
    derivative(even=True) in x, times 1/R' on the stretch."""
    fx = derivative(f, grid.h, 1, even=True)
    return fx if grid.c is None else fx * _inv_dR(grid)


def plain_laplacian(f, grid: RadialGrid) -> np.ndarray:
    """f_RR + (d-1)/R f_R of an even field, with the centre limit
    d f_RR(0), each point written out; on the stretch
    f_RR = (f_xx - R'' f_R) / R'^2 with R'' = R/c^2."""
    d1 = plain_d1(f, grid)
    d2 = derivative(f, grid.h, 2, even=True)
    if grid.c is not None:
        inv_dR = _inv_dR(grid)
        d2 = (d2 - grid.R / (grid.c * grid.c) * d1) * (inv_dR * inv_dR)
    lap = np.empty_like(d1)
    lap[..., 0] = grid.d * d2[..., 0]
    lap[..., 1:] = d2[..., 1:] + (grid.d - 1) / grid.R[1:] * d1[..., 1:]
    return lap


def plain_speed(U, grid: RadialGrid) -> np.ndarray:
    """The transport speed in x of the gradient field U, |R + 2U|/R'."""
    a = np.abs(grid.R + 2.0 * U)
    return a if grid.c is None else a * _inv_dR(grid)


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


def _into(value, out):
    """value, or value copied into out when out is given (the package's
    `out` convention)."""
    if out is None:
        return value
    out[...] = value
    return out


def dense_smooth_step(t, out=None):
    """The step as f / (f + dense_bump(1 - t)), f = dense_bump(t), at
    every point, plateaus included; kept on purpose as the reference the
    windowed _smooth_step must match bit for bit."""
    f = dense_bump(t)
    return _into(f / (f + dense_bump(1.0 - t)), out)


def dense_cutoff(kind: str, x, out=None):
    """The cut-offs through dense_smooth_step, for finite x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("cut-offs are defined for x >= 0")
    if kind == "hat":
        a, b = CUT_WINDOWS["hat"]
        return _into(dense_smooth_step((b - x) / (b - a)), out)
    if kind == "tilde":
        a, b = CUT_WINDOWS["tilde"]
        return _into(dense_smooth_step((x - a) / (b - a)), out)
    if kind == "poly":
        a, b = CUT_WINDOWS["poly"]
        blend = dense_smooth_step((x - a) / (b - a))
        return _into(np.exp(-0.5 * N_D * blend * np.log1p(x * x)), out)
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


# ---------------------------------------------------------------------------
# dissipativity probe
# ---------------------------------------------------------------------------

def dissipativity_form(table, m, J, C0, K, n, n_modes):
    """The probe's forms composed in fresh arrays, on a grid built for the
    one call: the stacked complex step X = profile + i E over the 2N mode
    directions E, its grid derivatives, profile_operator, Lt and the
    Gram products, each a new array; kept on purpose as the reference
    that dynamics_lab._dissipativity_form, which runs the same arithmetic
    in kept arrays, must match bit for bit."""
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
    X = np.moveaxis(E, 1, 0) * 1j
    X += np.stack((base.Psi, base.S))[:, None]
    dX = plain_d1(X, grid)
    F = profile_operator(params, R, X[0], dX[0], X[1], dX[1],
                         plain_laplacian(X[0], grid))
    Lt = chi2 * np.moveaxis(F.imag, 0, 1) - J * (1.0 - chi1) * E

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


# ---------------------------------------------------------------------------
# blow-up rate fit
# ---------------------------------------------------------------------------

def blowup_exponent(table, s_exponent: int, n_grid: int = 513) -> float:
    """dynamics_lab.blowup_exponent at an integer s above the critical
    index, with one grid.quad call per T - t row where the package takes
    one stacked quadrature; kept as the reference that must match it bit
    for bit."""
    params = table.params
    r, alpha, d, m = params.r, params.alpha, params.d, s_exponent
    grid = RadialGrid.uniform(n_grid, 1.0, d)
    base = profile_fieldset(table, grid, 10.0)
    A = 1.0 / (alpha * r) - 1.0 / alpha - 2.0 * m / r + d / r
    log_Tt = np.linspace(*BLOWUP_LOG10_TT, BLOWUP_N_TIMES) * np.log(10.0)
    c = np.exp((2.0 / r - 1.0) * log_Tt) / r
    g = derivative(np.sqrt(base.P) * np.exp(1j * c[:, None] * base.Psi),
                   grid.h, m, even=True)
    I = [grid.quad(gi.real * gi.real + gi.imag * gi.imag) for gi in g]
    return float(np.polyfit(log_Tt, A * log_Tt + np.log(I), 1)[0])
