"""Tests for the ODE solver and physical profile reconstruction.

Frozen expected values (seed coefficients, matched origin coefficient,
decay slopes) were computed once from the closed forms or from an
independent extended-precision recurrence and are asserted as regression
guards with tolerances reflecting how they were obtained.
"""

import csv
import io
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid

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
    CSV_HEADER,
    SERIES_DPS,
    STATE_COLUMNS,
    ProfileTable,
    fit_decay,
    origin_slope,
    outgoing_anchor,
    residual_profile,
    solve_profile,
    sonic_series,
    taylor_seed_coeffs,
    to_physical,
)

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

    def test_arrival_nearer_p_bar_s_is_refused(self, params_r201):
        # a march whose D_Z root is the other sonic point
        pts = special_points(params_r201)
        root = [pts.P_bar_s.W, pts.P_bar_s.Z]
        march = SimpleNamespace(t_events=[np.array([-0.4])],
                                y_events=[np.array([root])])
        Wc, Zc = sonic_series(2.01)
        with pytest.raises(SonicCrossingError,
                           match=r"left march hit D_Z = 0 .* nearer P_bar_s"):
            profile_solver._arrive(march, pts, Wc, Zc, 2.01, 1e-12, -0.2,
                                   "left march")

    def test_left_march_short_of_the_sonic_point(self):
        # at r = 2.07 the left march runs out its span before D_Z = 0
        with pytest.raises(SonicCrossingError,
                           match=r"left march stopped at xi = 2\.000000 "
                                 r"without reaching D_Z = 0"):
            solve_profile(ProfileParams(r=2.07), n_points=1024)


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


class TestSerialization:
    def test_json_roundtrip_exact(self, profile_r201):
        payload = json.loads(profile_r201.to_json())
        assert sorted(payload["columns"]) == sorted(STATE_COLUMNS)
        restored = ProfileTable.from_payload(payload)
        for name in ("xi_grid", "W", "Z", "R", "Ubar_R", "Sbar",
                     "U_nls", "S_nls", "Psi_nls", "dR_Ubar", "dR_Sbar"):
            np.testing.assert_array_equal(getattr(restored, name),
                                          getattr(profile_r201, name))
        assert restored.w0 == profile_r201.w0
        assert restored.params == profile_r201.params
        assert restored.anchor == profile_r201.anchor

    @pytest.mark.parametrize("name", ["R", "Sbar", "Psi_nls"])
    def test_json_non_state_column_refused(self, profile_r201, name):
        # derived columns are rebuilt from (W, Z) on load; a file that
        # carries a copy of one, even the exact one, is refused
        payload = json.loads(profile_r201.to_json())
        payload["columns"][name] = getattr(profile_r201, name).tolist()
        with pytest.raises(DomainError,
                           match=rf"columns \['{name}'\] are not state"):
            ProfileTable.from_payload(payload)

    @pytest.mark.parametrize("name", ["xi", "W", "Z", "dR_Ubar", "dR_Sbar"])
    def test_json_missing_state_column_refused(self, profile_r201, name):
        payload = json.loads(profile_r201.to_json())
        del payload["columns"][name]
        with pytest.raises(DomainError, match=f"state column {name} "):
            ProfileTable.from_payload(payload)

    @pytest.mark.parametrize("name", ["xi", "W", "Z", "dR_Ubar", "dR_Sbar"])
    def test_json_malformed_state_column_refused(self, profile_r201, name):
        # a column one entry short disagrees in length with xi (a short xi
        # with W, the first column measured against it); a null column is
        # no 1-D array at all
        payload = json.loads(profile_r201.to_json())
        column = payload["columns"][name]
        payload["columns"][name] = column[:-1]
        culprit = "W" if name == "xi" else name
        with pytest.raises(DomainError,
                           match=f"state column {culprit} is malformed: "
                                 r"shape \("):
            ProfileTable.from_payload(payload)
        payload["columns"][name] = None
        with pytest.raises(DomainError,
                           match=f"state column {name} is malformed: "
                                 r"shape \(\)"):
            ProfileTable.from_payload(payload)

    def test_schema_version_enforced(self, profile_r201):
        payload = json.loads(profile_r201.to_json())
        payload["schema_version"] = 99
        with pytest.raises(DomainError):
            ProfileTable.from_payload(payload)

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
