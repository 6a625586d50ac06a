"""Acceptance suite: twelve headline properties, one pass/fail line each.

Each test prints a single summary line (visible with pytest -s, or in the
captured output of a failure) and then asserts.  Tolerances and runtime
budgets are stated inline; frozen constants carry a comment explaining
where their value comes from.
"""

import math
import time

import numpy as np
import pytest

from nls_implosion.phase_portrait import (
    ProfileParams,
    R_STAR,
    auxiliary_signs,
    d_z,
    eval_polys,
    special_points,
    xi3_parenthesis,
)
from nls_implosion.profile_solver import (
    fit_decay,
    origin_slope,
    residual_profile,
    solve_profile,
    to_physical,
)
from nls_implosion.repulsivity_verifier import verify_all
from nls_implosion.selfsimilar_fields import (
    damped_profile,
    error_terms,
    from_selfsimilar,
    inverse_madelung,
    madelung,
    to_selfsimilar,
)
from nls_implosion.dynamics_lab import (
    blowup_exponent,
    dissipativity_probe,
    exponent_formula,
    simulate,
)
from nls_implosion._fd import derivative


def _line(num, label, ok):
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    return ok


def _extrapolate_to_upper_endpoint(f, order=2):
    """Richardson-style extrapolation of f(r) to r = r* from inside."""
    hs = np.array([2e-5, 1e-5, 5e-6, 2.5e-6])
    vals = [f(float(R_STAR - h)) for h in hs]
    return float(np.polyval(np.polyfit(hs, vals, order), 0.0))


def test_criterion_01_admissible_upper_bound():
    t0 = time.perf_counter()
    ok = (abs(R_STAR - 10.0 / (2.0 + 2.0 * math.sqrt(2.0))) < 1e-10
          and abs(R_STAR - 5.0 * (math.sqrt(2.0) - 1.0)) < 1e-10
          and abs(R_STAR - 2.07107) < 5e-6)
    elapsed = time.perf_counter() - t0
    assert _line(1, "upper bound r* closed forms", ok and elapsed < 1e-3)


def test_criterion_02_special_point_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for r in np.linspace(1.9 + 1e-9, R_STAR - 1e-9, 100):
        params = ProfileParams(r=float(r))
        pts = special_points(params)
        at_sonic = eval_polys(pts.P_s, params)
        at_star = eval_polys(pts.P_star, params)
        worst = max(worst, abs(at_sonic.N_Z), abs(at_sonic.D_Z),
                    abs(at_star.N_W), abs(at_star.N_Z))
    elapsed = time.perf_counter() - t0
    assert _line(2, "special points annihilate their polynomials",
                 worst < 1e-11 and elapsed < 1.0)


def test_criterion_03_auxiliary_sign_lemma():
    t0 = time.perf_counter()
    # auxiliary_signs evaluates every quantity through its factored closed
    # form and through direct extended precision, raising on any sign
    # disagreement, so a clean return certifies the agreement clause
    margins = []
    for r in np.linspace(R_STAR - 0.05, R_STAR - 0.001, 50):
        report = auxiliary_signs(ProfileParams(r=float(r)))
        margins.append(min(report["W1_plus_Z1_negative"].margin,
                           report["N_W_Ps_negative"].margin))
    signs_ok = min(margins) > 0.0

    # B and C carry the factor r^2 + 10r - 25, whose upper root is r*, so
    # both must vanish there; extrapolate the implemented margins inward
    b_limit = _extrapolate_to_upper_endpoint(
        lambda r: auxiliary_signs(ProfileParams(r=r))["B_positive"].margin)
    c_limit = _extrapolate_to_upper_endpoint(
        lambda r: auxiliary_signs(ProfileParams(r=r))["C_positive"].margin)
    vanish_ok = abs(b_limit) < 1e-9 and abs(c_limit) < 1e-9
    elapsed = time.perf_counter() - t0
    assert _line(3, "W1+Z1 < 0, N_W(P_s) < 0, B and C vanish at r*",
                 signs_ok and vanish_ok and elapsed < 1.0)


def test_criterion_04_profile_solve():
    t0 = time.perf_counter()
    params = ProfileParams(r=2.01)
    table = to_physical(solve_profile(params))
    elapsed = time.perf_counter() - t0
    res = residual_profile(table, R_lo=0.01, R_hi=100.0)
    residual_ok = max(res.phase, res.sound) < 1e-6

    # at R = 1 the trajectory passes through the sonic point exactly
    pts = special_points(params)
    i1 = int(np.argmin(np.abs(table.xi_grid)))
    critical_ok = (abs(table.W[i1] - pts.P_s.W) < 1e-8
                   and abs(table.Z[i1] - pts.P_s.Z) < 1e-8)

    origin_ok = abs(origin_slope(table)) < 1e-6
    assert _line(4, "profile residual, sonic identity, origin slope",
                 residual_ok and critical_ok and origin_ok and elapsed < 10.0)


def test_criterion_05_decay_rate(profile_r201):
    t0 = time.perf_counter()
    r = profile_r201.params.r
    slope = fit_decay(profile_r201, 0, (10.0, 1000.0))
    slope_ok = abs(slope + (r - 1.0)) < 0.02 * (r - 1.0)

    # two-sided comparison: S_p R^(r-1) stays pinched between positive
    # constants over the fit window
    mask = profile_r201.window_mask(10.0, 1000.0)
    pinched = profile_r201.S_nls[mask] * profile_r201.R[mask] ** (r - 1.0)
    bounds_ok = 0.0 < np.min(pinched) <= np.max(pinched) < np.inf
    elapsed = time.perf_counter() - t0
    assert _line(5, "far-field decay exponent -(r-1) within 2%",
                 slope_ok and bounds_ok and elapsed < 1.0)


def test_criterion_06_repulsivity_margins(params_r201, profile_r201):
    report = verify_all(params_r201, profile_r201)
    margins_ok = (report["radial_repulsivity"].margin > 0.0
                  and report["angular_repulsivity_appendix"].margin > 0.0
                  and report["angular_repulsivity_nls"].margin > 0.0
                  and report["integrated_repulsivity"].margin > 0.0)

    # limiting constants of the outgoing-side barrier argument at r*,
    # taken from the implemented closed forms by extrapolation
    sqrt2 = math.sqrt(2.0)

    def parenthesis_start(r):
        return xi3_parenthesis(0.0, ProfileParams(r=r))

    def parenthesis_mid(r):
        p = ProfileParams(r=r)
        pts = special_points(p)
        return xi3_parenthesis(0.5 * (pts.P_bar_s.W - pts.P_bar_s.Z), p)

    def n_w_at_pbar(r):
        p = ProfileParams(r=r)
        pts = special_points(p)
        return eval_polys(pts.P_bar_s, p).N_W

    got = [_extrapolate_to_upper_endpoint(f)
           for f in (parenthesis_start, parenthesis_mid, n_w_at_pbar)]
    want = [-984.0 + 764.0 * sqrt2,
            -492.0 + 382.0 * sqrt2,
            (60.0 / 49.0) * (13.0 * sqrt2 - 17.0)]
    constants_ok = all(abs(g - w) < 1e-9 for g, w in zip(got, want))
    assert all(w > 0.0 for w in want)
    assert _line(6, "repulsivity margins and limiting barrier constants",
                 margins_ok and constants_ok)


def test_criterion_07_barrier_suite(params_r201, profile_r201):
    report = verify_all(params_r201, profile_r201, n_samples=512)
    named = ["partI_b_constant_sign", "partI_origin_coefficient",
             "partII_xi1_trajectory", "partII_xi2_trajectory"]
    checks_ok = all(report[name].passed for name in named)

    # quadrilateral membership of every outgoing grid point:
    # D_Z >= 0, W <= W_0, W >= Z, U >= U(Pbar_s)
    pts = special_points(params_r201)
    pos = profile_r201.xi_grid > 0
    W, Z = profile_r201.W[pos], profile_r201.Z[pos]
    U = 0.5 * (W + Z)
    membership = min(np.min(d_z(W, Z)), np.min(pts.P_s.W - W),
                     np.min(W - Z), np.min(U - pts.P_bar_s.U))
    assert _line(7, "barrier suite and quadrilateral membership",
                 checks_ok and report.all_passed and membership > -1e-12)


def test_criterion_08_roundtrips(params_r201):
    rng = np.random.default_rng(7)
    n = 257
    x = np.linspace(0.0, 2.0, n)
    worst_polar = 0.0
    worst_frame = 0.0
    for _ in range(100):
        amp = 0.5 + rng.random() + 0.3 * np.cos(
            np.pi * x * rng.integers(1, 5)) * rng.random()
        phase = 2.0 * rng.standard_normal() * np.cos(
            np.pi * x * rng.integers(1, 4))
        v = amp * np.exp(1j * phase)
        rho, psi = madelung(v)
        back = inverse_madelung(rho, psi)
        worst_polar = max(worst_polar, np.max(np.abs(back - v)))

        T = 1.0 + rng.random()
        t = T * rng.random() * 0.9
        fs = to_selfsimilar(phase, rho, x, T, t, params_r201)
        psi2, rho2, x2 = from_selfsimilar(fs, T, t)
        worst_frame = max(worst_frame,
                          np.max(np.abs(psi2 - phase)),
                          np.max(np.abs(rho2 - rho)),
                          np.max(np.abs(x2 - x)))
    assert _line(8, "polar and frame roundtrips to 1e-12",
                 worst_polar < 1e-12 and worst_frame < 1e-12)


def test_criterion_09_error_term_suite(profile_r201_wide):
    table = profile_r201_wide
    res = residual_profile(table, R_lo=0.01, R_hi=100.0)
    floor = 10.0 * max(res.phase, res.sound)

    m_prime, R0 = 3, 20.0
    h = table.xi_grid[1] - table.xi_grid[0]
    R = table.R
    beta = np.maximum(1.0, R / R0) ** 0.1

    def weighted_norms_and_inner_sup(s):
        dp = damped_profile(table, s)
        et = error_terms(dp, table)
        norms = []
        for f, extra in ((et.E_Psi, 1), (et.E_S, 0)):
            g = f.copy()
            for _ in range(m_prime + extra):
                g = derivative(g, h, 1) / R
            norms.append(np.sqrt(np.trapezoid(
                g * g * beta ** (2 * m_prime) * R ** 8, table.xi_grid)))
        inner = R * np.exp(-s) <= 1.0 / 8.0
        sup = max(np.max(np.abs(et.E_Psi[inner])),
                  np.max(np.abs(et.E_S[inner])))
        return norms, sup

    results = {s: weighted_norms_and_inner_sup(float(s))
               for s in (10, 11, 12)}
    inner_ok = all(sup <= floor for _, sup in results.values())
    ratio_ok = all(
        results[s + 1][0][i] <= math.exp(-0.9) * results[s][0][i]
        for s in (10, 11) for i in range(2))
    assert _line(9, "error fields vanish inside, weighted norms contract",
                 inner_ok and ratio_ok)


def test_criterion_10_dissipativity_probe(profile_r201):
    frac = dissipativity_probe(profile_r201, m=2, C0=2.0, trials=200)
    undamped = dissipativity_probe(profile_r201, m=2, C0=2.0, J=0.0, K=0,
                                   trials=200)
    # the undamped configuration is allowed to fail and must say so
    assert _line(10, "damping inequality pass fraction",
                 frac >= 0.95 and undamped < 0.95)


def test_criterion_11_desk_dynamics(profile_r201):
    t0 = time.perf_counter()
    report = simulate(profile_r201)
    elapsed = time.perf_counter() - t0
    delta_low = report.config.delta_low

    rel_ok = report.max_rel_Stilde <= 2.0 * delta_low
    # C = 1e5 absorbs the d = 8 volume weight R^(d-1) in the low energy;
    # the measured ceiling at reference resolution is 5.8e4
    energy_ok = math.sqrt(max(report.E_low)) <= 1e5 * delta_low
    # the unperturbed companion run must stay at the discretization floor:
    # its drift is bounded by the accumulated stationary residual
    floor = 10.0 * (report.s[-1] - report.s[0]) * max(report.sup_residual_S)
    drift_ok = report.drift_Linf_S[-1] <= floor
    assert _line(11, "perturbed evolution stays inside bootstrap bounds",
                 rel_ok and energy_ok and drift_ok and elapsed < 60.0)


def test_criterion_12_blowup_rate(params_r201, profile_r201):
    ok = True
    for s_index in (4, 5):
        got = blowup_exponent(profile_r201, s_index)
        want = exponent_formula(s_index, params_r201)
        ok = ok and abs(got - want) <= 0.05 * abs(want)
    assert _line(12, "fitted Sobolev blow-up exponent within 5%", ok)
