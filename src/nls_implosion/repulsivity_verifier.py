"""Numerical verification of the repulsivity and barrier inequalities.

Every check evaluates an inequality that the solved profile (or a barrier
curve in the phase plane) is supposed to satisfy, and reports a signed
margin with the convention "positive = pass".  All curve checks are
sampled, not certified: the sample count is recorded in each report entry.
Two families of statements are covered:

  * pointwise repulsivity of the physical profile (radial, angular and an
    integrated form away from the critical radius), and
  * the phase-plane confinement inequalities split into a part along the
    incoming trajectory (xi < 0) and a part on the outgoing side (xi > 0),
    where the quadrilateral barriers only hold for scaling exponents near
    the upper endpoint r*.

alpha = (p - 1)/4 = 1/2 is carried through symbolically from the parameter
set so that a wrong constant surfaces as a failed check rather than being
baked into two places at once.  `certify` is the one policy by which
the CLI certifies a table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError, WindowError
from .phase_portrait import (
    ProfileParams,
    auxiliary_signs,
    barrier_curves,
    d_w,
    d_z,
    eval_polys,
    grad_b_normal_partI,
    n_w,
    n_z,
    origin_coeffs,
    special_points,
    xi1_splus,
    xi1_us,
    xi2_splus,
    xi2_us,
    xi3_parenthesis,
)
from .profile_solver import ProfileTable
from .report import VerificationReport

__all__ = [
    "AngularMargins",
    "R_WINDOW_MIN",
    "check_radial_repulsivity",
    "check_angular_repulsivity",
    "check_partI",
    "check_partII",
    "check_integrated",
    "verify_all",
    "certify",
]

#: default lower edge of the r-window in which the outgoing-side barrier
#: statements are checked; they are only claimed near r*, and empirically
#: hold on the solved profiles down to about this value
R_WINDOW_MIN = 1.9

#: default sample count per curve segment
N_SAMPLES = 512

#: round-off allowance for non-strict (<=) inequalities that hold with
#: equality at segment corners (the Xi zero branches pass exactly through
#: the sonic points, so the sampled slack is 0 there up to round-off)
EQUALITY_TOL = 1e-12

#: width of the collar (1, 1 + DELTA_C] the integrated ratio leaves out
DELTA_C = 0.01

#: how far from 0 the integrated ratio's numerator may sit at R = 1
ZERO_TOL = 1e-9


class AngularMargins(NamedTuple):
    appendix: float   # 1 + Ubar_R/R - alpha |dR Sbar|
    nls: float        # 1 + 2 U_p,R/R - 2 alpha |dR S_p|


def _min_with_location(values: np.ndarray, coord: np.ndarray,
                       label: str) -> tuple[float, str]:
    i = int(np.argmin(values))
    return float(values[i]), f"{label}={coord[i]:.6g}"


def check_radial_repulsivity(table: ProfileTable) -> float:
    """Worst-case margin of 1 + 2 dR U_p,R - 2 alpha |dR S_p| over the grid.

    A positive value is the profile's radial repulsivity constant.
    """
    alpha = table.params.alpha
    margin = 1.0 + table.dR_Ubar - alpha * np.abs(table.dR_Sbar)
    return float(np.min(margin))


def check_angular_repulsivity(table: ProfileTable) -> AngularMargins:
    """Worst-case margins of 1 + U - alpha |dR S| in both conventions.

    The two conventions are algebraically identical (the factors of two
    cancel), and both are derived from the same (W, Z) state, so their
    agreement checks only the arithmetic of each expression, not the
    table.  Ubar_R/R is the velocity U itself, so nothing blows up as
    R -> 0.
    """
    alpha = table.params.alpha
    appendix = 1.0 + table.Ubar_R / table.R - alpha * np.abs(table.dR_Sbar)
    nls = (1.0 + 2.0 * table.U_nls / table.R
           - 2.0 * alpha * (0.5 * np.abs(table.dR_Sbar)))
    return AngularMargins(float(np.min(appendix)), float(np.min(nls)))


def check_partI(params: ProfileParams, table: ProfileTable,
                n_samples: int = N_SAMPLES) -> VerificationReport:
    """Incoming-side (xi < 0) confinement checks.

    (a) N_W D_Z + N_Z D_W > 0 pointwise along the computed trajectory for
        xi < 0 (the sonic point itself, where the quantity vanishes, is the
        excluded boundary case);
    (b) the directional derivative -(W - Z)(-1 + r + 2W + 2Z) keeps one
        sign along the barrier curve b;
    (c) the origin expansion coefficient (r-5)(r-1)(3r+1)/(40 w0^2),
        4 w_3 of origin_coeffs, is negative, so the flow points inward
        near R = 0.
    """
    r = params.r
    report = VerificationReport(
        params={"r": r, "d": params.d, "p": params.p},
        tolerances={"n_samples": n_samples})

    neg = table.xi_grid < 0
    combo = (n_w(table.W[neg], table.Z[neg], r) * d_z(table.W[neg], table.Z[neg])
             + n_z(table.W[neg], table.Z[neg], r) * d_w(table.W[neg], table.Z[neg]))
    margin, where = _min_with_location(combo, table.xi_grid[neg], "xi")
    report.add("partI_trajectory_combo",
               "N_W D_Z + N_Z D_W > 0 on the incoming trajectory",
               f"{int(np.count_nonzero(neg))} grid points, xi < 0",
               margin, where)

    b = barrier_curves(params, n_samples=n_samples)["b_partI"]
    values = grad_b_normal_partI(b.W, b.Z, r)
    sign = 1.0 if values[0] > 0 else -1.0
    margin, where = _min_with_location(sign * values, b.param, "b_U")
    report.add("partI_b_constant_sign",
               "-(W-Z)(-1+r+2W+2Z) has constant sign along the curve b",
               f"{n_samples} midpoint samples of b",
               margin, where)

    w0 = table.w0
    if not np.isfinite(w0) or w0 == 0.0:
        raise DomainError("table carries no matched origin coefficient w0")
    coeff = 4.0 * origin_coeffs(w0, params)[1]
    report.add("partI_origin_coefficient",
               "(r-5)(r-1)(3r+1)/(40 w0^2) < 0 near the origin",
               "closed-form evaluation",
               -coeff, f"w0={w0:.6g}")
    return report


def check_partII(params: ProfileParams, table: ProfileTable,
                 n_samples: int = N_SAMPLES) -> VerificationReport:
    """Outgoing-side (xi > 0) confinement checks.

    The quadrilateral Q = {D_Z >= 0, W <= W_0, W >= Z, U >= U(Pbar_s)} and
    the zero branches S_+(U) of Xi_1 and Xi_2 confine the trajectory after
    the sonic point.  These statements are only claimed for r near r*;
    below R_WINDOW_MIN a WindowError is raised instead of reporting a
    meaningless margin.
    """
    r = params.r
    if r < R_WINDOW_MIN:
        raise WindowError(
            f"r = {r} below the near-r* window [{R_WINDOW_MIN}, r*); the "
            "outgoing-side barrier statements are not claimed there")
    pts = special_points(params)
    W0, Z0 = pts.P_s.W, pts.P_s.Z
    Wb, Zb = pts.P_bar_s.W, pts.P_bar_s.Z
    report = VerificationReport(
        params={"r": r, "d": params.d, "p": params.p},
        tolerances={"n_samples": n_samples, "r_window_min": R_WINDOW_MIN,
                    "equality_tol": EQUALITY_TOL})

    pos = table.xi_grid > 0
    Wt, Zt = table.W[pos], table.Z[pos]
    Ut, St = 0.5 * (Wt + Zt), 0.5 * (Wt - Zt)
    xi_pos = table.xi_grid[pos]
    n_traj = f"{int(np.count_nonzero(pos))} grid points, xi > 0"

    margin, where = _min_with_location(xi1_us(Ut, St, r), xi_pos, "xi")
    report.add("partII_xi1_trajectory", "Xi_1 > 0 on the outgoing trajectory",
               n_traj, margin, where)
    margin, where = _min_with_location(xi2_us(Ut, St, r), xi_pos, "xi")
    report.add("partII_xi2_trajectory", "Xi_2 > 0 on the outgoing trajectory",
               n_traj, margin, where)

    # vertical barrier W = W_0: N_W < 0 for t in [0, W_0 - Z_0].  -N_W is
    # concave in t, so its minimum is at an end, and both are samples
    t = np.linspace(0.0, W0 - Z0, n_samples)
    values = -n_w(W0, Z0 + t, r)
    margin, where = _min_with_location(values, t, "t")
    report.add("partII_vertical_segment_nw",
               "N_W < 0 on the segment W = W_0, Z in [Z_0, W_0]",
               f"{n_samples} samples, endpoints included", margin, where)

    # Xi_3's affine parenthesis at the two endpoints used in the proof
    for t_val, tag in ((0.0, "t=0"), (0.5 * (Wb - Zb), "t=(Wbar0-Zbar0)/2")):
        report.add(f"partII_xi3_parenthesis_{tag}",
                   "affine parenthesis of Xi_3 positive",
                   "endpoint evaluation", xi3_parenthesis(t_val, params), tag)

    # S <= S_+(U) (upper zero of Xi_1) on each boundary piece of Q
    for name, U_seg, S_seg, note in _quadrilateral_boundary(pts, n_samples):
        slack = xi1_splus(U_seg, r) - S_seg
        margin, where = _min_with_location(slack, U_seg, "U")
        report.add(f"partII_splus_dominates_{name}",
                   "S <= S_+(U) on a boundary piece of Q",
                   f"{len(U_seg)} samples, {note}", margin, where,
                   required_margin=-EQUALITY_TOL)

    # Xi_2's upper zero dominates the sonic line D_Z = 0 for U >= U(P_s)
    U_line = np.linspace(pts.P_s.U, 0.0, n_samples)
    S_line = 2.0 * (1.0 + U_line)      # D_Z = 1 + U - S/2 = 0
    slack = xi2_splus(U_line, r) - S_line
    margin, where = _min_with_location(slack, U_line, "U")
    report.add("partII_xi2_splus_on_sonic_line",
               "S_+(U) of Xi_2 dominates the sonic line for U >= U(P_s)",
               f"{n_samples} samples, endpoints included", margin, where,
               required_margin=-EQUALITY_TOL)
    return report


def _quadrilateral_boundary(pts, n_samples: int):
    """(U, S) samples of the four boundary pieces of the quadrilateral Q."""
    W0, Z0 = pts.P_s.W, pts.P_s.Z
    Wb, Zb = pts.P_bar_s.W, pts.P_bar_s.Z
    U_pbar = 0.5 * (Wb + Zb)

    # piece 1: sonic line D_Z = 0 between the two sonic points
    U = np.linspace(U_pbar, pts.P_s.U, n_samples)
    yield "sonic_line", U, 2.0 * (1.0 + U), "D_Z = 0 from Pbar_s to P_s"

    # piece 2: vertical side W = W_0, Z from Z_0 up to W_0
    Z = np.linspace(Z0, W0, n_samples)
    yield ("vertical_side", 0.5 * (W0 + Z), 0.5 * (W0 - Z),
           "W = W_0 from P_s to the diagonal")

    # piece 3: diagonal W = Z, i.e. S = 0
    U = np.linspace(U_pbar, W0, n_samples)
    yield "diagonal", U, np.zeros_like(U), "S = 0 side"

    # piece 4: U = U(Pbar_s), S from 0 up to the sonic line
    S = np.linspace(0.0, 0.5 * (Wb - Zb), n_samples)
    yield ("left_side", np.full_like(S, U_pbar), S,
           "U = U(Pbar_s) from the diagonal to Pbar_s")


def check_integrated(table: ProfileTable) -> float:
    """Worst ratio (R + Ubar_R - alpha Sbar)/(R - 1) over R > 1 + DELTA_C,
    on the whole table.

    The ratio is 0/0 at R = 1; the collar (1, 1 + DELTA_C] is excluded and
    the limit there is checked separately: the grid must hold R = 1 (a
    DomainError otherwise), the numerator must vanish there within
    ZERO_TOL, and its derivative form (which is the radial repulsivity
    expression) must agree with the pointwise ratio just outside the
    collar (a ConsistencyError otherwise).
    """
    alpha = table.params.alpha
    numer = table.R + table.Ubar_R - alpha * table.Sbar

    i1 = int(np.argmin(np.abs(table.R - 1.0)))
    if abs(table.R[i1] - 1.0) > 1e-12:
        raise DomainError("grid does not contain R = 1")
    if abs(numer[i1]) > ZERO_TOL:
        raise ConsistencyError(
            f"R + Ubar_R - alpha*Sbar = {numer[i1]:.3e} at R = 1; the "
            "critical point condition fails beyond tolerance")

    mask = table.R > 1.0 + DELTA_C
    ratio = numer[mask] / (table.R[mask] - 1.0)

    # L'Hopital: the R -> 1 limit of the ratio is the derivative of the
    # numerator
    limit = 1.0 + table.dR_Ubar[i1] - alpha * table.dR_Sbar[i1]
    first = float(ratio[0])
    # the ratio drifts away from its limit over the collar width
    allowed = max(0.1, 2.0 * DELTA_C) * max(abs(limit), 1.0)
    if abs(first - limit) > allowed:
        raise ConsistencyError(
            f"ratio just outside the collar ({first:.6f}) disagrees "
            f"with the L'Hopital limit ({limit:.6f})")
    return float(np.min(ratio))


def verify_all(params: ProfileParams, table: ProfileTable,
               n_samples: int = N_SAMPLES) -> VerificationReport:
    """Run every repulsivity and confinement check into one report.

    Outgoing-side barrier checks are skipped (not failed) when r sits
    below the near-r* window.
    """
    report = VerificationReport(
        params={"r": params.r, "d": params.d, "p": params.p},
        tolerances={"n_samples": n_samples, "delta_c": DELTA_C,
                    "r_window_min": R_WINDOW_MIN})

    report.add("radial_repulsivity",
               "1 + 2 dR U_p,R - 2 alpha |dR S_p| > 0 on the grid",
               f"{len(table.R)} grid points",
               check_radial_repulsivity(table))
    angular = check_angular_repulsivity(table)
    report.add("angular_repulsivity_appendix",
               "1 + Ubar_R/R - alpha |dR Sbar| > 0 on the grid",
               f"{len(table.R)} grid points", angular.appendix)
    report.add("angular_repulsivity_nls",
               "1 + 2 U_p,R/R - 2 alpha |dR S_p| > 0 on the grid",
               f"{len(table.R)} grid points", angular.nls)
    report.add("integrated_repulsivity",
               "(R + Ubar_R - alpha Sbar)/(R - 1) > 0 outside the collar",
               f"grid points with R > 1 + {DELTA_C}",
               check_integrated(table))
    report.extend(check_partI(params, table, n_samples=n_samples))
    try:
        report.extend(check_partII(params, table, n_samples=n_samples))
    except WindowError:
        pass
    return report


def certify(params: ProfileParams, table: ProfileTable,
            n_samples: int = N_SAMPLES) -> VerificationReport:
    """`verify_all` at n_samples plus the sign lemmas, as one report.

    Raises ConsistencyError, in this order, when the closed-form special
    points leave a residual in their polynomials, when a well-separated
    outgoing-side margin moves by over 10 % when the samples double, or
    when `auxiliary_signs` finds a disagreement.  The refinement gate
    runs `check_partII` once more, at 2 n_samples, and only where the
    report holds its margins, inside the near-r* window; the Part I
    curve minima are sampled sups that tighten with sampling, so they are
    not gated.
    """
    pts = special_points(params)
    ps, star = eval_polys(pts.P_s, params), eval_polys(pts.P_star, params)
    residuals = {"N_Z(P_s)": abs(ps.N_Z), "D_Z(P_s)": abs(ps.D_Z),
                 "N_W(P_star)": abs(star.N_W), "N_Z(P_star)": abs(star.N_Z)}
    bad = {k: v for k, v in residuals.items() if v > 1e-11}
    if bad:
        raise ConsistencyError(
            f"special points do not annihilate their polynomials: {bad}")
    report = verify_all(params, table, n_samples=n_samples)
    coarse = [c for c in report.checks if c.name.startswith("partII")]
    fine = (check_partII(params, table, n_samples=2 * n_samples).checks
            if coarse else [])
    for c, f in zip(coarse, fine):
        if (abs(c.margin) > 1e-10
                and abs(f.margin - c.margin) > 0.10 * abs(c.margin)):
            raise ConsistencyError(
                f"margin of {c.name} moves from {c.margin:.6e} to "
                f"{f.margin:.6e} under refinement")
    report.extend(auxiliary_signs(params))
    return report
