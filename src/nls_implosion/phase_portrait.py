"""Exact algebra of the autonomous (W, Z) phase portrait for (d, gamma) = (8, 2).

The smooth imploding profile is an orbit of the autonomous system

    dW/dxi = N_W(W, Z) / D_W(W, Z),    dZ/dxi = N_Z(W, Z) / D_Z(W, Z),

with xi = log R, W = U + S, Z = U - S.  This module hard-codes the (8, 2)
coefficient table, the special points (sonic point and friends), the sonic
slopes, the origin expansion coefficients, and the barrier curves, together
with the sign lemmas that the construction relies on.

All sign-critical quantities are evaluated twice: once in double precision via
a factored closed form and once in >= 30-digit arithmetic via direct
evaluation; a sign disagreement raises ConsistencyError instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import mpmath
import numpy as np

from .errors import ConsistencyError, DomainError
from .report import VerificationReport

__all__ = [
    "R_STAR",
    "ProfileParams",
    "PhasePoint",
    "SpecialPoints",
    "Polys",
    "BarrierCurve",
    "d_w",
    "d_z",
    "n_w",
    "n_z",
    "eval_polys",
    "special_points",
    "auxiliary_signs",
    "origin_coeffs",
    "barrier_curves",
    "xi1_us",
    "xi2_us",
    "xi2_splus",
    "xi3_parenthesis",
    "grad_b_normal_partI",
    "grad_b_normal_partII",
    "EXTENDED_DPS",
]

#: admissible upper bound r*(gamma=2) = 10/(2 + 2*sqrt(2)) = 5*(sqrt(2) - 1)
R_STAR = 10.0 / (2.0 + 2.0 * math.sqrt(2.0))

#: working precision (significant digits) for the extended-precision side of
#: every double-checked sign evaluation
EXTENDED_DPS = 40


@dataclass(frozen=True)
class ProfileParams:
    """Problem parameters.  Only (d, p) = (8, 3) is supported.

    gamma = (p+1)/2 and alpha = (p-1)/4 = (gamma-1)/2 are derived exactly;
    the self-similar exponent r must lie in (1, r*).
    """

    r: float
    d: int = 8
    p: int = 3

    def __post_init__(self):
        if (self.d, self.p) != (8, 3):
            raise DomainError(f"only (d, p) = (8, 3) is supported, got {(self.d, self.p)}")
        if not (1.0 < self.r < R_STAR):
            raise DomainError(f"r = {self.r} outside the admissible range (1, {R_STAR})")

    @property
    def gamma(self) -> float:
        return (self.p + 1) / 2

    @property
    def alpha(self) -> float:
        return (self.p - 1) / 4

    @property
    def r_star(self) -> float:
        return R_STAR


@dataclass(frozen=True)
class PhasePoint:
    """A point of the (W, Z) phase plane, optionally tagged with xi = log R."""

    W: float
    Z: float
    xi: float | None = None

    @property
    def U(self) -> float:
        return 0.5 * (self.W + self.Z)

    @property
    def S(self) -> float:
        return 0.5 * (self.W - self.Z)


class Polys(NamedTuple):
    N_W: float
    N_Z: float
    D_W: float
    D_Z: float


# ---------------------------------------------------------------------------
# polynomial coefficient table for (d, gamma) = (8, 2)
#
# The four polynomials below hold the coefficients for every routine that
# evaluates them pointwise.  The sonic series recurrence
# (profile_solver._sonic_series_fixed) writes the quadratic coefficients
# again, times 8, in convolution form over fixed-point integers at
# SERIES_BITS, seeded from SERIES_DPS closed forms: the [xi^n] sums of
# W W, W Z and Z Z that one order's Z-balance takes carry into the next
# order's W-balance, completed by their terms in Z_n.  Evaluation order
# is fixed as written.
# ---------------------------------------------------------------------------

def d_w(W, Z):
    return 1.0 + 0.75 * W + 0.25 * Z


def d_z(W, Z):
    return 1.0 + 0.25 * W + 0.75 * Z


def n_w(W, Z, r):
    return -r * W - (13.0 / 8.0) * W * W - 0.25 * W * Z + (7.0 / 8.0) * Z * Z


def n_z(W, Z, r):
    return -r * Z + (7.0 / 8.0) * W * W - 0.25 * W * Z - (13.0 / 8.0) * Z * Z


# first partials (used for the eigenvalue ratio kappa at P_s and the
# anchor's Jacobians)

def grad_n_w(W, Z, r):
    return (-r - 3.25 * W - 0.25 * Z, -0.25 * W + 1.75 * Z)


def grad_n_z(W, Z, r):
    return (1.75 * W - 0.25 * Z, -r - 0.25 * W - 3.25 * Z)


GRAD_D_Z = (0.25, 0.75)


def eval_polys(point: PhasePoint, params: ProfileParams) -> Polys:
    """Evaluate (N_W, N_Z, D_W, D_Z) at a phase point.  Total function."""
    W, Z, r = point.W, point.Z, params.r
    return Polys(n_w(W, Z, r), n_z(W, Z, r), d_w(W, Z), d_z(W, Z))


# ---------------------------------------------------------------------------
# special points
# ---------------------------------------------------------------------------

def _sonic_closed_forms(r, num=float, sqrt=math.sqrt):
    """Radicals R1, R2, sonic point P_s = (W0, Z0) and smooth-branch slopes
    (W1, Z1): in floats by default; given num=mpmath.mpf, sqrt=mpmath.sqrt
    and an mpf r, at the working precision.  Integer literals are exact in
    both, so one operation order serves every precision.
    """
    rad1 = (r - 44) * r + 92
    if rad1 < 0:
        raise DomainError(f"R_1 radicand negative at r = {r}")
    R1 = sqrt(rad1)
    rad2 = (r * (r * (r * (79 * r - 79 * R1 - 2906) + 2 * (584 * R1 + 6733))
                 - 24 * (107 * R1 + 1062))
            + 2704 * R1 + 23424)
    if rad2 < 0:
        raise DomainError(f"R_2 radicand negative at r = {r}")
    R2 = 7 * sqrt(num(7)) * sqrt(rad2)
    W0 = (-3 * r + 3 * R1 + 10) / 14
    Z0 = (r - R1 - 22) / 14
    W1 = 20 * (r - 1) / (-r + R1 + 8) - num(2) / 7 * (2 * r + 5)
    Z1 = ((980 * r + sqrt(num(2)) * R2 - 980) / (r - R1 - 8)
          + 7 * (94 - 17 * r)) / 147
    return R1, R2, W0, Z0, W1, Z1


@dataclass(frozen=True)
class SpecialPoints:
    P_s: PhasePoint        # rightmost solution of N_Z = D_Z = 0 (sonic point)
    P_bar_s: PhasePoint    # the other solution of N_Z = D_Z = 0
    P_star: PhasePoint     # the only solution of N_W = N_Z = 0 with W > Z
    P_i: PhasePoint        # intersection of (p_W(Z), Z) with D_Z = 0
    R1: float
    R2: float
    W1: float              # sonic Taylor slope, smooth branch
    Z1: float


def special_points(params: ProfileParams) -> SpecialPoints:
    """Closed-form special points of the phase portrait."""
    r = params.r
    R1, R2, W0, Z0, W1, Z1 = _sonic_closed_forms(r)
    sqrt2 = math.sqrt(2.0)

    P_s = PhasePoint(W0, Z0, xi=0.0)
    P_bar_s = PhasePoint((-3.0 * r - 3.0 * R1 + 10.0) / 14.0,
                         (r + R1 - 22.0) / 14.0)
    P_star = PhasePoint((2.0 * sqrt2 - 1.0) * r / 5.0,
                        -(1.0 + 2.0 * sqrt2) * r / 5.0)
    rad_i = 9.0 * r * r - 20.0 * r + 92.0
    if rad_i < 0:
        raise DomainError(f"P_i radicand negative at r = {r}")
    sq_i = math.sqrt(rad_i)
    P_i = PhasePoint((3.0 * sq_i - 9.0 * r + 10.0) / 26.0,
                     (-sq_i + 3.0 * r - 38.0) / 26.0)
    return SpecialPoints(P_s=P_s, P_bar_s=P_bar_s, P_star=P_star, P_i=P_i,
                         R1=R1, R2=R2, W1=W1, Z1=Z1)


# ---------------------------------------------------------------------------
# auxiliary sign quantities with dual-precision agreement
# ---------------------------------------------------------------------------

#: a value of auxiliary_signs at most this far from 0 has sign 0, which
#: agrees with either sign.  It spares little more than an exact zero: at
#: r = R_STAR, where B and C vanish, the smallest direct value is 5e-16
SIGN_ZERO_TOL = 1e-30


def _sign(x: float, zero_tol: float) -> int:
    if abs(x) <= zero_tol:
        return 0
    return 1 if x > 0 else -1


def _require_sign_agreement(name: str, factored: float, direct: float,
                            zero_tol: float) -> None:
    sf, sd = _sign(factored, zero_tol), _sign(direct, zero_tol)
    if sf != 0 and sd != 0 and sf != sd:
        raise ConsistencyError(
            f"{name}: factored double-precision value {factored:+.6e} and "
            f"extended-precision direct value {direct:+.6e} disagree in sign")


def _mp_aux_quantities(r_val: float):
    """Direct extended-precision evaluation of A, B, C, W1+Z1, N_W(P_s)."""
    with mpmath.workdps(EXTENDED_DPS):
        r = mpmath.mpf(r_val)
        R1, R2, W0, Z0, W1, Z1 = _sonic_closed_forms(r, mpmath.mpf,
                                                     mpmath.sqrt)
        base = 7 * r * (-29 * r + 29 * R1 + 16) - 448 * R1 - 1624
        A = 2 * R2 ** 2 - base ** 2
        B = ((85 - 6 * r ** 2 - 128 * r) * R1) ** 2 \
            - (725 * r - 1070 + 6 * r ** 3 - 4 * r ** 2) ** 2
        C = ((2 * r + 5) * R1) ** 2 - (2 * r ** 2 + 59 * r - 110) ** 2
        # direct polynomial evaluation of N_W at the closed-form P_s
        NWPs = -r * W0 - mpmath.mpf(13) / 8 * W0 ** 2 - W0 * Z0 / 4 \
            + mpmath.mpf(7) / 8 * Z0 ** 2
        return tuple(float(x) for x in (A, B, C, W1 + Z1, NWPs))


def auxiliary_signs(params: ProfileParams) -> VerificationReport:
    """Signs and margins for the quantities behind W_1 + Z_1 < 0 and N_W(P_s) < 0.

    Each quantity is evaluated via its factored closed form in double
    precision and via direct extended-precision arithmetic; the two must
    agree in sign (ConsistencyError otherwise).  Margins follow the
    "positive = pass" convention, so sign-definite-negative quantities are
    reported negated.
    """
    r = params.r
    R1, _, _, _, W1, Z1 = _sonic_closed_forms(r)

    quart = r * r + 10.0 * r - 25.0          # vanishes exactly at r = r*
    A_fact = -4704.0 * (r - 1.0) * (725.0 * r - 1070.0 + 6.0 * r ** 3
                                    - 4.0 * r ** 2
                                    + (85.0 - 6.0 * r ** 2 - 128.0 * r) * R1)
    B_fact = -19208.0 * (r - 1.0) * (3.0 * r + 1.0) * quart
    C_fact = -392.0 * (r - 1.0) * quart
    w1z1_fact = W1 + Z1
    nwps_fact = (2.0 / 49.0) * ((2.0 * r ** 2 + 59.0 * r - 110.0)
                                - (2.0 * r + 5.0) * R1)

    A_dir, B_dir, C_dir, w1z1_dir, nwps_dir = _mp_aux_quantities(r)
    for name, fact, direct in (("A", A_fact, A_dir), ("B", B_fact, B_dir),
                               ("C", C_fact, C_dir),
                               ("W1+Z1", w1z1_fact, w1z1_dir),
                               ("N_W(P_s)", nwps_fact, nwps_dir)):
        _require_sign_agreement(name, fact, direct, SIGN_ZERO_TOL)

    report = VerificationReport(params={"r": r, "d": params.d, "p": params.p},
                                tolerances={"zero_tol": SIGN_ZERO_TOL})
    report.add("A_positive", "A > 0 (W1+Z1 numerator domination)",
               "closed form at r", A_fact, f"r={r}")
    report.add("B_positive", "B > 0 (radical domination in A)",
               "closed form at r", B_fact, f"r={r}")
    report.add("C_positive", "C > 0 (radical domination in N_W(P_s))",
               "closed form at r", C_fact, f"r={r}")
    report.add("W1_plus_Z1_negative", "W_1 + Z_1 < 0",
               "closed form at r", -w1z1_fact, f"r={r}")
    report.add("N_W_Ps_negative", "N_W(P_s) < 0",
               "closed form at r", -nwps_fact, f"r={r}")
    return report


# ---------------------------------------------------------------------------
# origin expansion
# ---------------------------------------------------------------------------

def origin_coeffs(w0: float, params: ProfileParams) -> tuple[float, float]:
    """Taylor coefficients (w_1, w_3) of the origin expansion W = w0/R + sum w_i R^(i-1).

    Changing w0 is a dilation of the profile: w1 is w0-independent and w3
    scales like 1/w0^2.
    """
    if w0 == 0:
        raise DomainError("w0 must be nonzero")
    r = params.r
    w1 = -(r - 1.0) / 4.0
    w3 = (r - 5.0) * (r - 1.0) * (3.0 * r + 1.0) / (160.0 * w0 * w0)
    return w1, w3


# ---------------------------------------------------------------------------
# barrier quantities
# ---------------------------------------------------------------------------

def xi1_us(U, S, r):
    """Xi_1 = D_W^2 D_Z + (alpha/2)(N_W D_Z - N_Z D_W) at alpha = 1/2, in
    (U, S) coordinates."""
    return ((U + 1.0) ** 3
            - 0.25 * S * (r * (U + 2.0) + U * (7.0 * U + 6.0) - 2.0)
            - 0.25 * S * S * (U + 1.0))


def xi2_us(U, S, r):
    """Xi_2 = N_Z D_W - N_W D_Z = S(-S^2/2 + U(9U+10) + r(U+2))."""
    return S * (-0.5 * S * S + U * (9.0 * U + 10.0) + r * (U + 2.0))


def xi2_splus(U, r):
    """Upper zero S_+(U) of Xi_2 in the halfplane S > 0 (NaN where complex)."""
    rad = 2.0 * r * (2.0 + U) + 2.0 * U * (10.0 + 9.0 * U)
    with np.errstate(invalid="ignore"):
        return np.sqrt(rad)


def xi1_splus(U, r):
    """Upper zero S_+(U) of Xi_1 at fixed U > -1 (Part II.3 convention)."""
    U = np.asarray(U, dtype=float)
    c1 = r * (U + 2.0) + U * (7.0 * U + 6.0) - 2.0
    # -(1/4)(U+1) S^2 - (1/4) c1 S + (U+1)^3 = 0
    a = U + 1.0
    disc = (c1 / a) ** 2 + 16.0 * a * a
    return 0.5 * (-c1 / a + np.sqrt(disc))


def xi3_parenthesis(t, params: ProfileParams) -> float:
    """Affine parenthesis of Xi_3 along the barrier b(t) = (Wbar_0 - t, Zbar_0 + t)."""
    r = params.r
    R1 = _sonic_closed_forms(r)[0]
    return (t * (35.0 * r - 14.0 * R1 - 133.0)
            + 6.0 * r * r + 6.0 * r * R1 + 58.0 * r - 6.0 * R1 - 64.0)


def p_w_branch(Z, r):
    """Branch p_W(Z) of the hyperbola N_W = 0 (minimum 0 at Z = 0)."""
    Z = np.asarray(Z, dtype=float)
    return (np.sqrt(16.0 * r * r + 8.0 * r * Z + 92.0 * Z * Z) - 4.0 * r - Z) / 13.0


def grad_b_normal_partI(W, Z, r):
    """(-1, 1) . grad(N_W D_Z + N_Z D_W), in closed form -(W-Z)(-1+r+2W+2Z)."""
    return -(W - Z) * (-1.0 + r + 2.0 * W + 2.0 * Z)


def grad_b_normal_partII(W, Z, r):
    """(-1, -1) . grad(N_W D_Z - N_Z D_W) = (1/2)(W-Z)(10+r+9W+9Z)."""
    return 0.5 * (W - Z) * (10.0 + r + 9.0 * W + 9.0 * Z)


@dataclass(frozen=True)
class BarrierCurve:
    name: str
    param: np.ndarray       # curve parameter samples
    W: np.ndarray
    Z: np.ndarray


def barrier_curves(params: ProfileParams, n_samples: int = 512) -> dict[str, BarrierCurve]:
    """Dense samples of the barrier curves in (W, Z) coordinates.

    Curves: the Part I curve b (solved in (U, S) as b_S(b_U)), the hyperbola
    branch p_W(Z), and the zero branches S_+(U) of Xi_1 and Xi_2.  The
    b-curve sampler stops strictly before b_U = -(r-1)/4 where its defining
    denominator vanishes.
    """
    r = params.r
    pts = special_points(params)
    U_ps = pts.P_s.U
    U_p0 = -(r - 1.0) / 4.0
    if not (U_ps < U_p0):
        raise DomainError(f"empty b_U range at r = {r}")

    curves: dict[str, BarrierCurve] = {}

    # Part I curve b: b_U in (U(P_s), -(r-1)/4), upper endpoint singular.
    t = (np.arange(n_samples) + 0.5) / (n_samples + 0.5)
    b_u = U_ps + (U_p0 - U_ps) * t
    denom = 8.0 * b_u + 2.0 * (r - 1.0)
    b_s = 2.0 * np.sqrt(b_u + 1.0) * np.sqrt(r + b_u) * np.sqrt(b_u / denom)
    curves["b_partI"] = BarrierCurve("b_partI", b_u, b_u + b_s, b_u - b_s)

    # Hyperbola branch p_W(Z) for Z in [Z_i, 0].
    z = np.linspace(pts.P_i.Z, 0.0, n_samples)
    curves["p_W"] = BarrierCurve("p_W", z, np.asarray(p_w_branch(z, r)), z)

    # Xi_1 = 0 upper branch over the quadrilateral's U range.
    u1 = np.linspace(pts.P_bar_s.U, pts.P_s.W, n_samples)
    s1 = xi1_splus(u1, r)
    curves["Xi1_zero_branch"] = BarrierCurve(
        "Xi1_zero_branch", u1, u1 + s1, u1 - s1)

    # Xi_2 = 0 branch from P_star to P_s.
    u2 = np.linspace(pts.P_star.U, pts.P_s.U, n_samples)
    s2 = xi2_splus(u2, r)
    curves["Xi2_zero_branch"] = BarrierCurve(
        "Xi2_zero_branch", u2, u2 + s2, u2 - s2)

    return curves
