"""Tests for the ODE solver and physical profile reconstruction.

Frozen expected values (seed coefficients, matched origin coefficient,
decay slopes) were computed once from the closed forms or from an
independent extended-precision recurrence and are asserted as regression
guards with tolerances reflecting how they were obtained.
"""

import base64
import csv
import io
import json
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.integrate import solve_ivp as scipy_solve_ivp

from nls_implosion.errors import (
    BlowupError,
    ConsistencyError,
    DomainError,
    InsufficientRangeError,
    RangeError,
    SonicCrossingError,
)
from nls_implosion.phase_portrait import (
    GRAD_D_Z,
    PhasePoint,
    ProfileParams,
    _sonic_closed_forms,
    d_w,
    d_z,
    grad_n_z,
    n_w,
    special_points,
)
from nls_implosion import profile_solver
from nls_implosion.repulsivity_verifier import certify
from nls_implosion.profile_solver import (
    ANCHOR_LEVEL,
    ANCHOR_TOL,
    CSV_HEADER,
    SERIES_DPS,
    ProfileTable,
    fit_decay,
    origin_slope,
    outgoing_anchor,
    residual_profile,
    solve_profile,
    sonic_series,
    to_physical,
)
from oracles import taylor_seed_coeffs

r_interior = st.floats(min_value=1.5, max_value=2.06)


def synthetic_table(r=2.01, n=512, xi_min=-5.0, xi_max=5.0, S_nls=None):
    """Minimal table with prescribed S_nls (up to round-off) and zero
    velocity: W = -Z = 2 S_nls/R."""
    xi = np.linspace(xi_min, xi_max, n)
    R = np.exp(xi)
    zeros = np.zeros(n)
    W = zeros if S_nls is None else 2.0 * S_nls(R) / R
    return ProfileTable(params=ProfileParams(r=r), xi_grid=xi, W=W, Z=-W,
                        dR_Ubar=zeros, dR_Sbar=zeros)


def _reference_series_mp(r: float, order: int = 90):
    """The sonic series as it was computed before the fixed-point
    recurrence: the same recurrence in SERIES_DPS-digit mpmath arithmetic,
    every convolution an fsum."""
    with mpmath.workdps(SERIES_DPS):
        rr = mpmath.mpf(r)
        _, _, W0, Z0, W1, Z1 = _sonic_closed_forms(rr, mpmath.mpf,
                                                   mpmath.sqrt)
        W = [W0, W1] + [mpmath.mpf(0)] * (order - 1)
        Z = [Z0, Z1] + [mpmath.mpf(0)] * (order - 1)

        DW0 = d_w(W0, Z0)
        a1 = GRAD_D_Z[0] * W1 + GRAD_D_Z[1] * Z1
        nzw, nzz = grad_n_z(W0, Z0, rr)

        def conv(a, b, m):
            return mpmath.fsum(a[i] * b[m - i] for i in range(m + 1))

        def dw_coef(m):
            return (1 if m == 0 else 0) + mpmath.mpf(3) / 4 * W[m] + Z[m] / 4

        def dz_coef(m):
            return (1 if m == 0 else 0) + W[m] / 4 + mpmath.mpf(3) / 4 * Z[m]

        for n in range(2, order + 1):
            # [xi^(n-1)] of W' D_W - N_W = 0 determines W_n
            nw = (-rr * W[n - 1] - mpmath.mpf(13) / 8 * conv(W, W, n - 1)
                  - conv(W, Z, n - 1) / 4 + mpmath.mpf(7) / 8 * conv(Z, Z, n - 1))
            s = mpmath.fsum(k * W[k] * dw_coef(n - k) for k in range(1, n))
            W[n] = (nw - s) / (n * DW0)
            # [xi^n] of Z' D_Z - N_Z = 0 determines Z_n (Z[n] still 0 in the
            # convolutions below, so they carry only the known part)
            lhs = mpmath.fsum(k * Z[k] * dz_coef(n + 1 - k) for k in range(2, n))
            nz = (mpmath.mpf(7) / 8 * conv(W, W, n) - conv(W, Z, n) / 4
                  - mpmath.mpf(13) / 8 * conv(Z, Z, n))
            rhs = nz - lhs - Z1 * (W[n] / 4)
            Z[n] = rhs / (n * a1 + mpmath.mpf(3) / 4 * Z1 - nzz)

        return tuple(W), tuple(Z)


#: r at which the fixed-point series is checked against the mpmath one:
#: spread over (1, 2.06), the resonant r = 1.821837 (kappa = 11.0025) and
#: the edges of the benchmark's certify strata
ORACLE_R = (1.05, 1.5, 1.8, 1.821837, 1.85, 1.9, 1.95, 1.995, 2.005,
            2.0095, 2.01, 2.05)


class TestSonicSeed:
    def test_frozen_values_r201(self):
        W1, Z1, W2, Z2 = taylor_seed_coeffs(ProfileParams(r=2.01))
        assert abs(W1 - (-0.267734205189027)) < 1e-14
        assert abs(Z1 - 0.1734491442097638) < 1e-14
        assert abs(W2 - 0.24686156921185176) < 1e-13
        assert abs(Z2 - (-0.17625419266153836)) < 1e-13

    @settings(max_examples=10, deadline=None)
    @given(r=r_interior)
    def test_seed_matches_series_recurrence(self, r):
        # closed-form second-order coefficients against the order-by-order
        # extended-precision recurrence, two independent derivations
        W1, Z1, W2, Z2 = taylor_seed_coeffs(ProfileParams(r=r))
        Wc, Zc = sonic_series(r, order=8)
        assert abs(Wc[1] - W1) < 1e-12
        assert abs(Zc[1] - Z1) < 1e-12
        assert abs(Wc[2] - W2) < 1e-11
        assert abs(Zc[2] - Z2) < 1e-11

    @pytest.mark.parametrize("r", ORACLE_R)
    def test_series_matches_mpmath_reference_bit_for_bit(self, r):
        W_mp, Z_mp = _reference_series_mp(r)
        Wc, Zc = sonic_series(r)
        assert [float(c).hex() for c in W_mp] == [c.hex() for c in Wc]
        assert [float(c).hex() for c in Z_mp] == [c.hex() for c in Zc]

    def test_exactly_resonant_denominator_names_kappa(self, monkeypatch):
        # P_s = (0, 0), (W1, Z1) = (-3, 0) at r = 1.5 give
        # a1 (n - kappa) = -3/4 (n - 2): exactly zero at order 2
        def resonant(r, num=float, sqrt=None):
            return tuple(num(v) for v in (0, 0, 0, 0, -3, 0))
        monkeypatch.setattr(profile_solver, "_sonic_closed_forms", resonant)
        profile_solver._sonic_series_fixed.cache_clear()
        with pytest.raises(ConsistencyError,
                           match=r"kappa = \(dN_Z/dZ - 3 Z1/4\)/a1 = "
                                 r"2\.000000, nearest integer 2; the order-2 "
                                 r"denominator"):
            sonic_series(1.5)

    def test_series_bits_frozen_r201(self):
        # fixed-point integers at SERIES_BITS, seeded from SERIES_DPS closed
        # forms and rounded once to double: portable bits
        Wc, Zc = sonic_series(2.01)
        assert [float(c).hex() for c in Wc[:8]] == [
            "0x1.bfa6e7c33b824p-1", "-0x1.1228ea5d3acd7p-2",
            "0x1.f9928ef33baf8p-3", "-0x1.1c80d7c74dca4p-3",
            "0x1.81741f82e4450p-5", "-0x1.21355b2dc6273p-8",
            "-0x1.52d0023093816p-8", "0x1.acbda0010ad9dp-9"]
        assert [float(c).hex() for c in Zc[:8]] == [
            "-0x1.9ff126a089eb1p+0", "0x1.63394e0f3373cp-3",
            "-0x1.68f7f54a1d0fdp-3", "0x1.e99a80c9223d4p-4",
            "-0x1.e86de8943025fp-5", "0x1.5fee2a9454a78p-6",
            "-0x1.e07e4831cf45fp-9", "-0x1.2bb0f3c59ae8fp-9"]

    def test_series_constant_term_is_sonic_point(self):
        pts = special_points(ProfileParams(r=2.01))
        Wc, Zc = sonic_series(2.01)
        assert abs(Wc[0] - pts.P_s.W) < 1e-15
        assert abs(Zc[0] - pts.P_s.Z) < 1e-15


class TestSolveProfile:
    def test_sonic_row_is_seeded_not_integrated(self, profile_r201, params_r201):
        pts = special_points(params_r201)
        i0 = profile_r201.i_sonic
        assert profile_r201.xi_grid[i0] == 0.0
        assert abs(profile_r201.W[i0] - pts.P_s.W) < 1e-14
        assert abs(profile_r201.Z[i0] - pts.P_s.Z) < 1e-14

    def test_slope_at_sonic_point_richardson(self, profile_r201, params_r201):
        # (W(h) - W0)/h converges to W1 at rate O(h); one Richardson step
        # removes the leading error and lands three decades closer
        W1 = special_points(params_r201).W1
        h = profile_r201.h
        i0 = profile_r201.i_sonic
        s1 = (profile_r201.W[i0 + 1] - profile_r201.W[i0]) / h
        s2 = (profile_r201.W[i0 + 2] - profile_r201.W[i0]) / (2.0 * h)
        raw = abs(s1 - W1)
        extrapolated = abs(2.0 * s1 - s2 - W1)
        assert extrapolated < 5e-5
        assert extrapolated < raw / 50.0

    def test_stays_in_nw_negative_region(self, profile_r201):
        # once past the sonic point the orbit sits where N_W < 0 and never
        # leaves it on the computed range
        pos = profile_r201.xi_grid > 0
        assert np.all(n_w(profile_r201.W[pos], profile_r201.Z[pos], 2.01) < 0)

    def test_grid_uniform_and_contains_zero(self, profile_r201):
        xi = profile_r201.xi_grid
        assert np.any(xi == 0.0)
        assert np.allclose(np.diff(xi), profile_r201.h, rtol=0, atol=1e-12)

    def test_table_invariants(self, profile_r201):
        t = profile_r201
        assert np.all(d_w(t.W, t.Z) > 0)
        assert np.all(t.W > t.Z)
        assert np.all(t.Sbar > 0)
        off = np.abs(t.xi_grid) > 1e-12
        assert np.all(np.sign(d_z(t.W, t.Z)[off]) == np.sign(t.xi_grid[off]))

    def test_orbit_pieces(self, profile_r201):
        # the series on the seams' range, each coefficient row summed
        # alone; each march over it on its own range, in its march
        # coordinate.  The ranges overlap by 1e-12 at the seams, and
        # xi = -0.2 is a node here: the left march gives its W and Z, the
        # series its derivatives.  Off the series' range the derivatives
        # are the flow's, N/D
        o, xi = profile_r201.orbit, profile_r201.xi_grid
        W, Z, dW, dZ = o(xi)
        near = (xi >= o.seam_left - 1e-12) & (xi <= o.seam_right + 1e-12)
        left = xi < o.seam_left + 1e-12
        inner = (xi > o.seam_right - 1e-12) & (xi <= o.xi_anchor)
        outer = xi > o.xi_anchor
        assert np.count_nonzero(near & left) == 1
        k = np.arange(len(o.Wc))
        for got, coeffs, where in (
                (W, o.Wc, near & ~left & ~inner),
                (Z, o.Zc, near & ~left & ~inner),
                (dW, o.Wc[1:] * k[1:], near), (dZ, o.Zc[1:] * k[1:], near)):
            want = profile_solver._series_eval(coeffs, xi[where])
            assert got[where].tobytes() == want.tobytes()
        for piece, where, at in ((o.left, left, xi + o.left_origin),
                                 (o.back, inner, xi + o.back_origin),
                                 (o.fwd, outer, xi)):
            assert np.any(where)
            np.testing.assert_array_equal(np.stack((W, Z))[:, where],
                                          piece(at[where]))
        np.testing.assert_array_equal(
            dW[~near], n_w(W[~near], Z[~near], 2.01) / d_w(W[~near],
                                                           Z[~near]))

    def test_matched_origin_coefficient(self, profile_r201):
        assert abs(profile_r201.w0 - 0.5789672787) < 1e-8
        assert profile_r201.w0_mismatch < 1e-6

    def test_rejects_bad_domain(self, params_r201):
        with pytest.raises(DomainError):
            solve_profile(params_r201, xi_min=1.0, xi_max=2.0)
        with pytest.raises(DomainError):
            solve_profile(params_r201, tol=1e-15)
        with pytest.raises(DomainError):
            solve_profile(params_r201, tol=1e-3)

    def test_blowup_bound_trips(self, params_r201, monkeypatch):
        # the left march starts at amplitude e^{-xi_start}, so a bound a
        # thousand times below it trips as the amplitude falls through it
        monkeypatch.setattr(profile_solver, "BLOWUP_FACTOR", 1e-3)
        with pytest.raises(BlowupError, match="left march exceeded"):
            solve_profile(params_r201, n_points=1024)

    @pytest.mark.parametrize("r", [1.2, 1.25, 1.32, 1.38, 1.821837, 1.84025])
    def test_solves_near_integer_kappa_and_off_window_arrivals(self, r):
        # near an integer kappa (1.2, 1.25, 1.821837) the series tail at
        # xi_switch is far above 1e-14, so the seam moves inward; at 1.32,
        # 1.38 and 1.84025 a march meets D_Z = 0 over 1e-7 from P_s
        params = ProfileParams(r=r)
        table = to_physical(solve_profile(params))
        assert max(residual_profile(table, 0.01, 100.0)) <= 1e-7
        assert certify(params, table).all_passed

    def test_left_march_short_of_the_sonic_point(self):
        # at r = 2.07 the first seam's level sits at xi = 2.31, past the end
        # of the span, xi_max - xi_min = 2, that a grid on [-1, 1] gives the
        # march
        with pytest.raises(SonicCrossingError,
                           match=r"^left march stopped at xi = 2\.000000 "
                                 r"without reaching D_Z = -0\.000257902, "
                                 r"the series' level at the seam xi = -0\.2 "
                                 r"\(reached the end of the span\)$"):
            solve_profile(ProfileParams(r=2.07), xi_min=-1.0, xi_max=1.0,
                          n_points=1024)


def _spy_arrivals(monkeypatch):
    """Record each march into P_s that solve_profile makes: its _march
    arguments, its solution, and the seam it stopped at."""
    arrivals = []
    march, arrive = profile_solver._march, profile_solver._arrive

    def spy_march(*args, **kwargs):
        sol = march(*args, **kwargs)
        if kwargs.get("stops"):
            arrivals.append({"args": args, "bound": kwargs["bound"],
                             "sol": sol})
        return sol

    def spy_arrive(*args):
        sol, seam, xi_hit = arrive(*args)
        arrivals[-1]["seam"] = seam
        return sol, seam, xi_hit

    monkeypatch.setattr(profile_solver, "_march", spy_march)
    monkeypatch.setattr(profile_solver, "_arrive", spy_arrive)
    return arrivals


class TestSeamStop:
    """Each march into P_s stops at the seam where the series takes over,
    as one march that goes on past every seam where the two disagree."""

    @pytest.mark.parametrize("r, seam, steps", [
        (1.81, 0.05, (163, 56)), (2.01, 0.2, (217, 58)),
        (2.068, 0.2, (621, 158))])
    def test_stop_keeps_the_steps_of_the_full_march(self, r, seam, steps,
                                                    monkeypatch):
        # at r = 1.81 the left march meets the levels of xi = -0.2 and -0.1
        # first, disagrees with the series there, and goes on to -0.05
        arrivals = _spy_arrivals(monkeypatch)
        solve_profile(ProfileParams(r=r))
        assert [abs(a["seam"]) for a in arrivals] == [seam, seam]
        for arrival, n_steps in zip(arrivals, steps):
            stopped = arrival["sol"]
            full = profile_solver._march(*arrival["args"], level=0.0,
                                         bound=arrival["bound"])
            assert len(stopped.t) - 1 == n_steps
            # the stopped march ends at its root, inside its last step
            np.testing.assert_array_equal(stopped.t[:-1], full.t[:n_steps])
            for name in ("_t_old", "_h", "_y_old", "_F"):
                np.testing.assert_array_equal(
                    getattr(stopped.sol, name),
                    getattr(full.sol, name)[:n_steps])
            assert len(full.t) - 1 > n_steps

    def test_evaluation_counts_near_r_star(self, monkeypatch):
        # r* - 1e-4, where kappa ~ 3e4 holds an explicit step to about
        # |xi|/kappa: a march on to D_Z = 0 takes 945,353 and 961,667
        # evaluations; the stop takes a tenth and a sixteenth of them
        arrivals = _spy_arrivals(monkeypatch)
        solve_profile(ProfileParams(r=ProfileParams(r=2.0).r_star - 1e-4))
        left, back = (a["sol"].nfev for a in arrivals)
        assert left <= 94_500
        assert back <= 57_700

    def test_series_checked_before_any_march(self, monkeypatch):
        # a tail above 1e-14 at every candidate seam is refused by the
        # series alone: no march, not even the anchor's edge orbits
        calls = []
        monkeypatch.setattr(profile_solver, "_series_tail",
                            lambda coeffs, xi: 1.0)
        monkeypatch.setattr(profile_solver, "solve_ivp",
                            lambda *a, **k: calls.append(a))
        outgoing_anchor.cache_clear()
        try:
            with pytest.raises(ConsistencyError,
                               match=r"^sonic series does not converge at "
                                     r"the seam xi = -0\.003125: tail "
                                     r"2\.000e\+00 > 1e-14, kappa = "):
                solve_profile(ProfileParams(r=2.01))
        finally:
            outgoing_anchor.cache_clear()
        assert calls == []

    def test_seam_nearer_p_bar_s_is_refused(self, params_r201, monkeypatch):
        # the backward march from (0.5, -1.2) meets the first seam's level
        # next to the other sonic point: refused there, not relabelled
        monkeypatch.setattr(profile_solver, "outgoing_anchor",
                            lambda params: PhasePoint(0.5, -1.2))
        with pytest.raises(
                SonicCrossingError,
                match=r"^backward march from the anchor \(xi counted from "
                      r"the anchor\) reached D_Z = 0\.0102028 at "
                      r"\(-0\.279201, -1\.226663\), xi = -0\.662195, "
                      r"nearer P_bar_s \(-0\.307177, -1\.230941\) than "
                      r"the series at the seam xi = 0\.2 \(0\.829610, "
                      r"-1\.596266\)$"):
            solve_profile(params_r201)


class TestOutgoingAnchor:
    def test_anchor_reported_on_table(self, profile_r201, params_r201):
        anchor = profile_r201.anchor
        rule = outgoing_anchor(params_r201)
        assert (anchor.W, anchor.Z) == (rule.W, rule.Z)
        assert d_z(anchor.W, anchor.Z) == pytest.approx(ANCHOR_LEVEL, abs=1e-15)
        # the tabulated orbit passes through the anchor at the reported xi
        i = int(np.argmin(np.abs(profile_r201.xi_grid - anchor.xi)))
        slope = n_w(anchor.W, anchor.Z, 2.01) / d_w(anchor.W, anchor.Z)
        predicted = anchor.W + slope * (profile_r201.xi_grid[i] - anchor.xi)
        assert abs(profile_r201.W[i] - predicted) < profile_r201.h ** 2

    def test_anchor_independent_of_solver_settings(self, params_r201,
                                                   profile_r201):
        other = solve_profile(params_r201, tol=1e-11, xi_switch=0.1,
                              n_points=1024)
        assert other.anchor.W == profile_r201.anchor.W
        assert other.anchor.Z == profile_r201.anchor.Z
        assert other.anchor.xi == pytest.approx(profile_r201.anchor.xi,
                                                abs=1e-9)

    def test_margin_responds_smoothly_to_anchor(self, params_r201,
                                                profile_r201, monkeypatch):
        # slide the anchor by 1e-6 along the level line D_Z = ANCHOR_LEVEL:
        # a well-conditioned member moves by a comparable amount
        rule = outgoing_anchor(params_r201)
        monkeypatch.setattr(profile_solver, "outgoing_anchor",
                            lambda params: PhasePoint(rule.W + 1e-6,
                                                      rule.Z - 1e-6 / 3.0))
        table = solve_profile(params_r201)
        dev = np.max(np.abs(table.W - profile_r201.W))
        assert 0.0 < dev < 1e-4

    @pytest.mark.parametrize("anchor", [(0.5, -0.3), (0.5, -1.2)])
    def test_anchor_off_the_family_names_where_it_stopped(self, params_r201,
                                                          anchor, monkeypatch):
        # (0.5, -0.3) lies on an orbit from infinity, (0.5, -1.2) on one
        # from the wall; neither backward march reaches the sonic point
        monkeypatch.setattr(profile_solver, "outgoing_anchor",
                            lambda params: PhasePoint(*anchor))
        with pytest.raises(SonicCrossingError,
                           match=r"backward march from the anchor.*xi = -"):
            solve_profile(params_r201)

    @pytest.mark.parametrize("r, dz", [(1.02, "0.507500"), (1.03, "0.502672")])
    def test_anchor_refused_at_or_below_half_r_star(self, r, dz,
                                                    monkeypatch):
        # D_Z(P_star) = 1 - r/r* sits above ANCHOR_LEVEL = 1/2 here, so the
        # lower edge orbit could never cross the level: refused before any
        # edge orbit is integrated
        calls = []
        monkeypatch.setattr(profile_solver, "solve_ivp",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(DomainError,
                           match=rf"D_Z = 1 - r/r\* = {dz}, not below the "
                                 r"anchor level D_Z = 0\.5.*"
                                 r"needs r > r\*/2 = 1\.035534"):
            outgoing_anchor(ProfileParams(r=r))
        assert calls == []

    def test_anchor_just_above_half_r_star_unchanged(self):
        # r = 1.04 > r*/2 = 1.035534 is left alone by both refusals near
        # r*/2: its anchor, bit for bit
        anchor = outgoing_anchor(ProfileParams(r=1.04))
        assert anchor.W.hex() == "0x1.ed75eba67f818p-1"
        assert anchor.Z.hex() == "-0x1.f9d1f9377fd5dp-1"

    @pytest.mark.parametrize("above", [1e-12, 1e-9])
    def test_anchor_refused_where_the_edge_orbit_starts_above_the_level(
            self, above, monkeypatch):
        # just above r*/2 the saddle sits less than the start offset
        # ANCHOR_EPS below the level, so the lower edge orbit would start
        # above it and never cross it
        calls = []
        monkeypatch.setattr(profile_solver, "solve_ivp",
                            lambda *a, **k: calls.append(a))
        params = ProfileParams(r=ProfileParams(r=1.04).r_star / 2 + above)
        with pytest.raises(DomainError,
                           match=rf"no outgoing anchor at r = {params.r}: "
                                 r"the boundary orbit from \(0\.378680, "
                                 r"-0\.792893\) starts at D_Z = 0\.50000006\d+"
                                 r", not below the anchor level D_Z = 0\.5"):
            outgoing_anchor(params)
        assert calls == []

    def test_anchor_a_micro_above_half_r_star_solves(self):
        params = ProfileParams(r=ProfileParams(r=1.04).r_star / 2 + 1e-6)
        table = to_physical(solve_profile(params))
        assert max(residual_profile(table, 0.01, 100.0)) <= 1e-7


def _scipy_dop853(fun, t_span, y0, rtol, atol, events, dense_output):
    """scipy's own DOP853, called as _march calls the in-house one."""
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol,
                           atol=atol, events=events,
                           dense_output=dense_output)


class TestScipyReference:
    """The in-house DOP853 runs scipy's method on Python floats, so the
    tables agree with scipy's up to the order of the sums."""

    @pytest.mark.parametrize("r", [1.05, 1.5, 1.9, 2.01, 2.05])
    def test_tables_match_scipy_dop853(self, r, monkeypatch):
        params = ProfileParams(r=r)
        own = to_physical(solve_profile(params))
        outgoing_anchor.cache_clear()
        try:
            with monkeypatch.context() as m:
                m.setattr(profile_solver, "solve_ivp", _scipy_dop853)
                ref = to_physical(solve_profile(params))
        finally:
            outgoing_anchor.cache_clear()
        np.testing.assert_array_equal(own.xi_grid, ref.xi_grid)
        np.testing.assert_allclose(own.W, ref.W, rtol=1e-10, atol=0)
        np.testing.assert_allclose(own.Z, ref.Z, rtol=1e-10, atol=0)
        assert abs(own.anchor.W - ref.anchor.W) <= ANCHOR_TOL
        assert abs(own.anchor.Z - ref.anchor.Z) <= ANCHOR_TOL
        res_own = residual_profile(own, 0.01, 100.0)
        res_ref = residual_profile(ref, 0.01, 100.0)
        for a, b in zip(res_own, res_ref):
            assert a == pytest.approx(b, rel=0.01)


class TestToPhysical:
    def test_critical_point_appendix_convention(self, profile_r201):
        # 1 + Ubar_R - alpha*Sbar = D_Z at R = 1
        i0 = profile_r201.i_sonic
        value = 1.0 + profile_r201.Ubar_R[i0] - 0.5 * profile_r201.Sbar[i0]
        assert abs(value) < 1e-12

    def test_critical_point_halved_convention(self, profile_r201):
        i0 = profile_r201.i_sonic
        value = (1.0 + 2.0 * profile_r201.U_nls[i0]
                 - 2.0 * 0.5 * profile_r201.S_nls[i0])
        assert abs(value) < 1e-12

    def test_scaling_between_conventions(self, profile_r201):
        assert np.allclose(2.0 * profile_r201.U_nls, profile_r201.Ubar_R,
                           rtol=0, atol=0)
        assert np.allclose(2.0 * profile_r201.S_nls, profile_r201.Sbar,
                           rtol=0, atol=0)

    def test_origin_regularity(self, profile_r201):
        assert np.isfinite(profile_r201.Psi_nls[0])
        assert abs(profile_r201.U_nls[0]) < 1e-2      # gradient of Psi at 0
        assert abs(origin_slope(profile_r201)) < 1e-6  # dS/dR at 0

    def test_psi_consistent_with_quadrature(self, profile_r201):
        # the algebraic reconstruction must agree with integrating U_nls,
        # up to one global constant
        t = profile_r201
        psi_q = cumulative_trapezoid(t.U_nls * t.R, t.xi_grid, initial=0.0)
        diff = (t.Psi_nls - t.Psi_nls[0]) - psi_q
        mask = t.window_mask(0.01, 100.0)
        assert np.max(np.abs(diff[mask] - diff[mask][0])) < 1e-5

    def test_r_equal_two_rejected(self):
        with pytest.raises(DomainError, match="r = 2 excluded"):
            to_physical(synthetic_table(r=2.0))


class TestFitDecay:
    def test_exact_power_law(self):
        table = synthetic_table(xi_min=0.0, xi_max=8.0,
                                S_nls=lambda R: R ** (-1.01))
        slope = fit_decay(table, 0, (15.0, 2500.0))
        assert abs(slope - (-1.01)) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(q=st.floats(min_value=0.2, max_value=4.0))
    def test_exact_power_law_any_exponent(self, q):
        table = synthetic_table(xi_min=0.0, xi_max=8.0,
                                S_nls=lambda R: R ** (-q))
        assert abs(fit_decay(table, 0, (15.0, 2500.0)) + q) < 1e-9

    def test_converged_profile_slopes(self, profile_r201):
        # contract: -(r-1)-j within 0.05*(r-1+j)
        for j in range(3):
            target = -(1.01 + j)
            slope = fit_decay(profile_r201, j, (20.0, 900.0))
            assert abs(slope - target) < 0.05 * (1.01 + j)

    def test_lower_bound_positive(self, profile_r201):
        mask = profile_r201.window_mask(10.0, 1000.0)
        scaled = profile_r201.S_nls[mask] * profile_r201.R[mask] ** 1.01
        assert scaled.min() > 0

    def test_window_validation(self, profile_r201):
        with pytest.raises(DomainError):
            fit_decay(profile_r201, 0, (5.0, 100.0))
        with pytest.raises(InsufficientRangeError):
            fit_decay(profile_r201, 0, (20.0, 100.0))
        with pytest.raises(DomainError):
            fit_decay(profile_r201, 3, (20.0, 900.0))


class TestResidualProfile:
    def test_converged_profile_below_contract(self, profile_r201):
        res = residual_profile(profile_r201, 0.01, 100.0)
        assert res.phase < 1e-6
        assert res.sound < 1e-6

    def test_zero_fields_residual_zero(self):
        res = residual_profile(synthetic_table())
        assert res.phase == 0.0
        assert res.sound == 0.0

    def test_perturbation_detected(self, profile_r201):
        # multiplying S by 1.01 through the (W, Z) state, velocity kept,
        # moves the derived Psi with it, while the stored dR_Sbar column
        # does not follow; both residuals rise far above the converged
        # ones
        t = profile_r201
        U, S = 0.5 * (t.W + t.Z), 0.5 * (t.W - t.Z)
        base = residual_profile(t, 0.01, 100.0)
        bad = replace(t, W=U + 1.01 * S, Z=U - 1.01 * S)
        res = residual_profile(bad, 0.01, 100.0)
        assert res.phase > 10.0 * base.phase
        assert res.sound > 10.0 * base.sound


class TestInvariants:
    def test_dilation_covariance(self, params_r201, profile_r201):
        # the system is autonomous in xi = log R: solving on a grid shifted
        # by a whole number of cells reproduces the same orbit samples
        h = profile_r201.h
        shift = 64
        other = solve_profile(params_r201, xi_min=-6.0 - shift * h,
                              xi_max=7.0, n_points=len(profile_r201.xi_grid) + shift)
        assert other.h == pytest.approx(h, abs=1e-15)
        dev = max(np.max(np.abs(profile_r201.W - other.W[shift:])),
                  np.max(np.abs(profile_r201.Z - other.Z[shift:])))
        assert dev <= 10.0 * profile_r201.tol

    def test_quadrilateral_membership(self, profile_r201, params_r201):
        pts = special_points(params_r201)
        pos = profile_r201.xi_grid > 0
        W, Z = profile_r201.W[pos], profile_r201.Z[pos]
        U = 0.5 * (W + Z)
        assert np.all(d_z(W, Z) >= 0)
        assert np.all(W <= pts.P_s.W + 1e-14)
        assert np.all(W >= Z)
        U_pbar = 0.5 * (pts.P_bar_s.W + pts.P_bar_s.Z)
        assert np.all(U >= U_pbar)

    def test_derivative_self_consistency(self, profile_r201):
        # second-order centred difference of the W column agrees with the
        # ODE right side to O(h^2)
        t = profile_r201
        h = t.h
        # ODE right side.  The error constant carries the third derivative
        # of the solution, which is large in the narrow band past the sonic
        # point and in the exponential region near the origin, so check the
        # second-order rate directly: doubling the stride must quadruple
        # the error, and the stride-h error must sit under an absolute
        # O(h^2) envelope with a documented constant.
        ode = n_w(t.W, t.Z, 2.01) / d_w(t.W, t.Z)

        def sup_err(stride):
            k = stride
            fd = (t.W[2 * k:] - t.W[:-2 * k]) / (2.0 * k * h)
            err = np.abs(fd - ode[k:-k]) / (1.0 + np.abs(ode[k:-k]))
            return np.max(err)

        e1, e2 = sup_err(1), sup_err(2)
        assert 2.5 < e2 / e1 < 5.5
        assert e1 < 50.0 * h * h


#: the arrays of a schema-4 table, as piece.key: the series'
#: coefficients and each march's DenseSolution arrays
ORBIT_ARRAYS = ["series.W", "series.Z"] + [
    f"{piece}.{key}" for piece in ("left", "back", "fwd")
    for key in ("ts", "t_old", "h", "y_old", "F")]


def _orbit_values(table, name):
    """The values the orbit array `name` of the table's payload holds."""
    piece, key = name.split(".")
    if piece == "series":
        return getattr(table.orbit, key + "c")
    return getattr(table.orbit, piece).arrays()[key]


class TestSerialization:
    def test_json_roundtrip_exact(self, profile_r201):
        # schema 4 stores the grid and the orbit, no column; every column
        # is rebuilt on load bit for bit, and so is every orbit array
        payload = json.loads(profile_r201.to_json())
        assert "columns" not in payload and payload["schema_version"] == 4
        restored = ProfileTable.from_payload(payload)
        for name in ("xi_grid", "W", "Z", "R", "Ubar_R", "Sbar",
                     "U_nls", "S_nls", "Psi_nls", "dR_Ubar", "dR_Sbar"):
            np.testing.assert_array_equal(getattr(restored, name),
                                          getattr(profile_r201, name))
        for name in ORBIT_ARRAYS:
            back, want = (_orbit_values(t, name)
                          for t in (restored, profile_r201))
            assert back.shape == want.shape
            assert back.tobytes() == want.tobytes()
        for name in ("seam_left", "seam_right", "left_origin",
                     "back_origin", "r"):
            assert (getattr(restored.orbit, name)
                    == getattr(profile_r201.orbit, name))
        assert restored.grid == profile_r201.grid == (-6.0, 7.0, 4096)
        assert restored.w0 == profile_r201.w0
        assert restored.params == profile_r201.params
        assert restored.anchor == profile_r201.anchor

    @pytest.mark.parametrize("r", [1.5, 2.01, 2.068])
    def test_columns_are_the_orbit_on_the_grid(self, r):
        # the table's columns are the orbit's values at its nodes, and a
        # table read back from its payload has the same columns and CSV
        table = to_physical(solve_profile(ProfileParams(r=r)))
        W, Z, dW, dZ = table.orbit(table.xi_grid)
        U, S = 0.5 * (W + Z), 0.5 * (W - Z)
        for col, want in ((table.W, W), (table.Z, Z),
                          (table.dR_Ubar, U + 0.5 * (dW + dZ)),
                          (table.dR_Sbar, S + 0.5 * (dW - dZ))):
            assert col.tobytes() == want.tobytes()
        back = ProfileTable.from_payload(json.loads(table.to_json()))
        for name in ("xi_grid", "W", "Z", "dR_Ubar", "dR_Sbar"):
            assert (getattr(back, name).tobytes()
                    == getattr(table, name).tobytes())
        assert back.to_csv().encode() == table.to_csv().encode()

    @pytest.mark.parametrize("name", ["R", "Sbar", "Psi_nls"])
    def test_json_non_state_column_refused(self, profile_r201, name):
        # every column is rebuilt from the orbit on load; a file that
        # carries a copy of one, even the exact one, is refused
        payload = json.loads(profile_r201.to_json())
        payload["orbit"][name] = base64.b64encode(
            getattr(profile_r201, name).astype("<f8").tobytes()).decode()
        with pytest.raises(DomainError,
                           match=rf"orbit entries \['{name}'\] are not part"):
            ProfileTable.from_payload(payload)

    @pytest.mark.parametrize("name", ORBIT_ARRAYS)
    def test_json_missing_orbit_array_refused(self, profile_r201, name):
        payload = json.loads(profile_r201.to_json())
        piece, key = name.split(".")
        del payload["orbit"][piece][key]
        with pytest.raises(DomainError,
                           match=rf"orbit array {name} is missing"):
            ProfileTable.from_payload(payload)

    def test_json_columns_are_base64_of_little_endian_float64(
            self, profile_r201):
        # the one-liner the docs give reads each orbit array back bit for
        # bit, flattened in C order
        orbit = json.loads(profile_r201.to_json())["orbit"]
        for name in ORBIT_ARRAYS:
            piece, key = name.split(".")
            back = np.frombuffer(base64.b64decode(orbit[piece][key]), "<f8")
            want = _orbit_values(profile_r201, name).astype("<f8").ravel()
            assert back.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ORBIT_ARRAYS)
    def test_json_malformed_orbit_array_refused(self, profile_r201, name):
        # an array one float short disagrees in shape with the one that
        # sets the length of its piece (a short series.W with series.Z, a
        # short h of a march with its ts); a null array is no base64
        # string at all
        payload = json.loads(profile_r201.to_json())
        piece, key = name.split(".")
        raw = base64.b64decode(payload["orbit"][piece][key])
        payload["orbit"][piece][key] = base64.b64encode(raw[:-8]).decode()
        culprit = {"W": "series.Z", "h": f"{piece}.ts"}.get(key, name)
        with pytest.raises(DomainError,
                           match=f"orbit array {culprit} is malformed: "
                                 r"shape \("):
            ProfileTable.from_payload(payload)
        payload["orbit"][piece][key] = None
        with pytest.raises(DomainError,
                           match=f"orbit array {name} is malformed: "
                                 "NoneType, need a base64 string"):
            ProfileTable.from_payload(payload)

    @pytest.mark.parametrize("tamper, message", [
        pytest.param(lambda text, col: "*" + text[1:],
                     r"not base64 \(Only base64 data is allowed\)",
                     id="outside-alphabet"),
        pytest.param(lambda text, col: "\u00e9" + text[1:],
                     r"not base64 \(string argument should contain only "
                     r"ASCII characters\)", id="non-ascii"),
        pytest.param(lambda text, col: text.rstrip("="),
                     r"not base64 \(Incorrect padding\)", id="unpadded"),
        pytest.param(lambda text, col: base64.b64encode(
                         base64.b64decode(text)[:-4]).decode(),
                     "{partial} bytes, not a whole number of float64",
                     id="partial-float"),
        pytest.param(lambda text, col: col.tolist(),
                     "list, need a base64 string", id="decimal-list"),
    ])
    def test_json_column_codec_refusals(self, profile_r201, tamper, message):
        # schema 4 reads an orbit array only as the base64 of whole "<f8"
        # values: a decimal list is refused, not parsed
        payload = json.loads(profile_r201.to_json())
        F = profile_r201.orbit.left.arrays()["F"]
        payload["orbit"]["left"]["F"] = tamper(payload["orbit"]["left"]["F"],
                                               F)
        message = message.format(partial=F.nbytes - 4)
        with pytest.raises(DomainError,
                           match=f"orbit array left.F is malformed: {message}"):
            ProfileTable.from_payload(payload)

    def test_schema_version_enforced(self, profile_r201):
        payload = json.loads(profile_r201.to_json())
        payload["schema_version"] = 99
        with pytest.raises(DomainError):
            ProfileTable.from_payload(payload)

    def test_schema_3_payload_refused(self, profile_r201):
        # the columns of schema 3, each base64 "<f8", are not read
        payload = json.loads(profile_r201.to_json())
        del payload["grid"], payload["orbit"]
        payload["schema_version"] = 3
        payload["columns"] = {
            name: base64.b64encode(profile_r201._column(name).astype(
                "<f8").tobytes()).decode()
            for name in ("xi", "W", "Z", "dR_Ubar", "dR_Sbar")}
        with pytest.raises(DomainError, match="unsupported schema version 3"):
            ProfileTable.from_payload(payload)

    def test_table_without_orbit_has_no_payload(self):
        with pytest.raises(DomainError, match="without its orbit"):
            synthetic_table().payload()

    def test_csv_header_and_shape(self, profile_r201):
        lines = profile_r201.to_csv().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == len(profile_r201.xi_grid) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == profile_r201.xi_grid[0]
        assert first[2] == profile_r201.W[0]

    def test_csv_bytes_match_csv_writer_on_numpy_scalars(self):
        # the serializer before it ran on plain floats: csv.writer over
        # rows of numpy scalars, each formatted with format(v, ".17g")
        table = to_physical(solve_profile(ProfileParams(r=2.01),
                                          n_points=1024))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in zip(*(getattr(table, "xi_grid" if name == "xi" else name)
                         for name in CSV_HEADER)):
            writer.writerow([format(v, ".17g") for v in row])
        assert table.to_csv().encode() == buf.getvalue().encode()

    def test_window_mask_range_checked(self, profile_r201):
        with pytest.raises(RangeError):
            profile_r201.window_mask(1e-6, 1.0)
        with pytest.raises(RangeError):
            profile_r201.window_mask(1.0, 1e6)
