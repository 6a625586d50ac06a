"""Tests for the phase-portrait algebra.

Frozen expected values were computed independently with 40-digit mpmath
arithmetic from the closed forms, not by running the package.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nls_implosion.errors import ConsistencyError, DomainError
from nls_implosion import phase_portrait as pp
from nls_implosion.phase_portrait import (
    PhasePoint,
    ProfileParams,
    R_STAR,
    auxiliary_signs,
    barrier_curves,
    eval_polys,
    origin_coeffs,
    special_points,
)
from oracles import (
    grad_b_normal_partI_expanded,
    grad_b_normal_partII_expanded,
    sonic_slope_quadratic_roots,
    xi1_poly,
)

# interior r strategy, safely away from both endpoints
r_interior = st.floats(min_value=1.5, max_value=2.06)
coord = st.floats(min_value=-3.0, max_value=3.0)


def test_r_star_closed_forms():
    assert abs(R_STAR - 10.0 / (2.0 + 2.0 * math.sqrt(2.0))) < 1e-15
    assert abs(R_STAR - 5.0 * (math.sqrt(2.0) - 1.0)) < 1e-10
    # upper root of r^2 + 10 r - 25
    assert abs(R_STAR * R_STAR + 10.0 * R_STAR - 25.0) < 1e-12


class TestProfileParams:
    def test_derived_exponents(self):
        params = ProfileParams(r=2.0)
        assert params.gamma == 2.0
        assert params.alpha == 0.5
        assert params.r_star == R_STAR

    @pytest.mark.parametrize("r", [1.0, 0.5, R_STAR, 2.5, -1.0])
    def test_rejects_r_outside_range(self, r):
        with pytest.raises(DomainError):
            ProfileParams(r=r)

    def test_rejects_other_dimensions(self):
        with pytest.raises(DomainError):
            ProfileParams(r=2.0, d=3)
        with pytest.raises(DomainError):
            ProfileParams(r=2.0, p=5)


class TestPolys:
    def test_hand_values(self):
        # at (W, Z) = (1, -1): worked out by hand from the coefficient table
        params = ProfileParams(r=2.0)
        polys = eval_polys(PhasePoint(1.0, -1.0), params)
        assert polys.N_W == pytest.approx(-2.5, abs=1e-15)
        assert polys.N_Z == pytest.approx(1.5, abs=1e-15)
        assert polys.D_W == pytest.approx(1.5, abs=1e-15)
        assert polys.D_Z == pytest.approx(0.5, abs=1e-15)

    def test_origin_values(self):
        params = ProfileParams(r=1.7)
        polys = eval_polys(PhasePoint(0.0, 0.0), params)
        assert polys == (0.0, 0.0, 1.0, 1.0)

    @given(W=coord, Z=coord)
    def test_dw_minus_dz_identity(self, W, Z):
        # D_W - D_Z = (W - Z)/2 for all (W, Z)
        assert pp.d_w(W, Z) - pp.d_z(W, Z) == pytest.approx(0.5 * (W - Z), abs=1e-12)

    @given(W=coord, Z=coord, r=r_interior)
    def test_swap_symmetry(self, W, Z, r):
        # the system is symmetric under (W, Z) -> (Z, W)
        assert pp.n_w(W, Z, r) == pytest.approx(pp.n_z(Z, W, r), abs=1e-12)
        assert pp.d_w(W, Z) == pytest.approx(pp.d_z(Z, W), abs=1e-12)


class TestSpecialPoints:
    def test_frozen_values_r2(self):
        pts = special_points(ProfileParams(r=2.0))
        assert pts.R1 == pytest.approx(2.8284271247461901, abs=1e-14)
        assert pts.R2 == pytest.approx(1744.8512859527636, rel=1e-14)
        assert pts.P_s.W == pytest.approx(0.8918058124456122, abs=1e-14)
        assert pts.P_s.Z == pytest.approx(-1.6306019374818707, abs=1e-14)
        assert pts.P_bar_s.W == pytest.approx(-0.3203772410170407, abs=1e-14)
        assert pts.P_bar_s.Z == pytest.approx(-1.2265409196609864, abs=1e-14)
        assert pts.P_star.W == pytest.approx(0.7313708498984760, abs=1e-14)
        assert pts.P_star.Z == pytest.approx(-1.5313708498984760, abs=1e-14)
        assert pts.P_i.W == pytest.approx(0.7747113291900222, abs=1e-14)
        assert pts.P_i.Z == pytest.approx(-1.5915704430633407, abs=1e-14)
        assert pts.W1 == pytest.approx(-0.3060193748187072, abs=1e-14)
        assert pts.Z1 == pytest.approx(0.2006097202505147, abs=1e-14)

    def test_frozen_values_r201(self):
        pts = special_points(ProfileParams(r=2.01))
        assert pts.P_s.W == pytest.approx(0.8743202615567078, abs=1e-13)
        assert pts.P_s.Z == pytest.approx(-1.6247734205189026, abs=1e-13)
        assert pts.W1 == pytest.approx(-0.2677342051890262, abs=1e-13)
        assert pts.Z1 == pytest.approx(0.1734491442097632, abs=1e-13)

    def test_bits_frozen_r201(self):
        # IEEE double arithmetic with a correctly rounded sqrt: the same bits
        # on every conforming machine, so a rewrite of the closed forms that
        # reorders an operation shows up here
        pts = special_points(ProfileParams(r=2.01))
        got = [pts.P_s.W, pts.P_s.Z, pts.P_bar_s.W, pts.P_bar_s.Z,
               pts.P_star.W, pts.P_star.Z, pts.P_i.W, pts.P_i.Z,
               pts.R1, pts.R2, pts.W1, pts.Z1]
        assert [x.hex() for x in got] == [
            "0x1.bfa6e7c33b825p-1", "-0x1.9ff126a089eb1p+0",
            "-0x1.3a8cb6a81c520p-2", "-0x1.3b1ef0c752f92p+0",
            "0x1.78558d1df060bp-1", "-0x1.89fdb838f417cp+0",
            "0x1.8b62e4e415c65p-1", "-0x1.973b262603a11p+0",
            "0x1.60dfbc78404e9p+1", "0x1.b12e4bdf8dae1p+10",
            "-0x1.1228ea5d3acd8p-2", "0x1.63394e0f3373dp-3"]

    @pytest.mark.parametrize("r", np.linspace(1.9, R_STAR - 1e-6, 100))
    def test_root_residuals(self, r):
        params = ProfileParams(r=float(r))
        pts = special_points(params)
        for point in (pts.P_s, pts.P_bar_s):
            polys = eval_polys(point, params)
            assert abs(polys.N_Z) < 1e-12
            assert abs(polys.D_Z) < 1e-13
        star = eval_polys(pts.P_star, params)
        assert abs(star.N_W) < 1e-12
        assert abs(star.N_Z) < 1e-12
        # P_i lies on both D_Z = 0 and the hyperbola branch
        pi = eval_polys(pts.P_i, params)
        assert abs(pi.D_Z) < 1e-13
        assert abs(pi.N_W) < 1e-12
        assert pts.P_i.W == pytest.approx(float(pp.p_w_branch(pts.P_i.Z, r)), abs=1e-12)

    def test_u_ps_limit_at_r_star(self):
        # U(P_s) -> 1 - sqrt(2) as r -> r*
        pts = special_points(ProfileParams(r=R_STAR - 1e-9))
        assert pts.P_s.U == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-7)

    def test_p_s_ordering(self):
        # P_s is the rightmost of the two sonic roots, and W > Z on both
        for r in (1.6, 2.0, 2.05):
            pts = special_points(ProfileParams(r=r))
            assert pts.P_s.W > pts.P_bar_s.W
            assert pts.P_s.W > pts.P_s.Z
            assert pts.P_bar_s.W > pts.P_bar_s.Z


class TestSonicSlope:
    def test_w1_equals_regular_quotient(self):
        # the W equation is regular at P_s, so W1 = N_W(P_s)/D_W(P_s)
        for r in (1.7, 2.0, 2.05):
            params = ProfileParams(r=r)
            pts = special_points(params)
            polys = eval_polys(pts.P_s, params)
            assert pts.W1 == pytest.approx(polys.N_W / polys.D_W, abs=1e-12)

    def test_z1_solves_lhopital_quadratic(self):
        for r in (1.7, 2.0, 2.05):
            params = ProfileParams(r=r)
            roots = sonic_slope_quadratic_roots(params)
            Z1 = special_points(params).Z1
            assert min(abs(roots[0] - Z1), abs(roots[1] - Z1)) < 1e-10

    def test_w1_limit_at_r_one(self):
        # closed form gives W1 -> -2 as r -> 1 (computed independently)
        W1 = special_points(ProfileParams(r=1.0 + 1e-9)).W1
        assert W1 == pytest.approx(-2.0, abs=1e-6)


class TestAuxiliarySigns:
    @pytest.mark.parametrize("r", np.linspace(R_STAR - 0.05, R_STAR - 0.001, 25))
    def test_signs_near_r_star(self, r):
        report = auxiliary_signs(ProfileParams(r=float(r)))
        assert report.all_passed
        assert report["W1_plus_Z1_negative"].margin > 0
        assert report["N_W_Ps_negative"].margin > 0

    def test_signs_midrange(self):
        report = auxiliary_signs(ProfileParams(r=2.0))
        assert report.all_passed

    def test_b_c_vanish_at_r_star(self):
        # B and C carry the factor r^2 + 10 r - 25 which vanishes at r*
        report = auxiliary_signs(ProfileParams(r=R_STAR - 1e-12))
        assert abs(report["B_positive"].margin) < 1e-5
        assert abs(report["C_positive"].margin) < 1e-7

    def test_sign_disagreement_raises(self):
        with pytest.raises(ConsistencyError):
            pp._require_sign_agreement("probe", 1.0, -1.0, 0.0)


class TestOriginCoeffs:
    def test_frozen_values(self):
        w1, w3 = origin_coeffs(1.0, ProfileParams(r=2.0))
        assert w1 == pytest.approx(-0.25, abs=1e-15)
        assert w3 == pytest.approx(-0.13125, abs=1e-15)

    @given(w0=st.floats(min_value=0.1, max_value=10.0), r=r_interior)
    def test_w0_scaling(self, w0, r):
        params = ProfileParams(r=r)
        w1a, w3a = origin_coeffs(w0, params)
        w1b, w3b = origin_coeffs(1.0, params)
        assert w1a == w1b
        assert w3a == pytest.approx(w3b / w0 ** 2, rel=1e-12)

    def test_w3_negative_on_range(self):
        # (r-5)(r-1)(3r+1) < 0 for r in (1, r*): origin curvature pushes inward
        for r in np.linspace(1.01, R_STAR - 0.001, 50):
            _, w3 = origin_coeffs(1.0, ProfileParams(r=float(r)))
            assert w3 < 0

    def test_zero_w0_rejected(self):
        with pytest.raises(DomainError):
            origin_coeffs(0.0, ProfileParams(r=2.0))


class TestBarrierIdentities:
    @given(W=coord, Z=coord, r=r_interior)
    @settings(max_examples=200)
    def test_xi1_two_forms_agree(self, W, Z, r):
        U, S = 0.5 * (W + Z), 0.5 * (W - Z)
        assert xi1_poly(W, Z, r) == pytest.approx(pp.xi1_us(U, S, r), abs=1e-10)

    @given(W=coord, Z=coord, r=r_interior)
    @settings(max_examples=200)
    def test_xi2_two_forms_agree(self, W, Z, r):
        direct = pp.n_z(W, Z, r) * pp.d_w(W, Z) - pp.n_w(W, Z, r) * pp.d_z(W, Z)
        U, S = 0.5 * (W + Z), 0.5 * (W - Z)
        assert direct == pytest.approx(pp.xi2_us(U, S, r), abs=1e-10)

    @given(W=coord, Z=coord, r=r_interior)
    @settings(max_examples=200)
    def test_normal_identity_part_one(self, W, Z, r):
        assert pp.grad_b_normal_partI(W, Z, r) == pytest.approx(
            grad_b_normal_partI_expanded(W, Z, r), abs=1e-10)

    @given(W=coord, Z=coord, r=r_interior)
    @settings(max_examples=200)
    def test_normal_identity_part_two(self, W, Z, r):
        assert pp.grad_b_normal_partII(W, Z, r) == pytest.approx(
            grad_b_normal_partII_expanded(W, Z, r), abs=1e-10)

    def test_xi3_constants_at_r_star(self):
        # endpoint values of Xi_3's parenthesis at the critical exponent
        assert -984.0 + 764.0 * math.sqrt(2.0) == pytest.approx(
            96.45916165304462, abs=1e-10)
        assert -492.0 + 382.0 * math.sqrt(2.0) == pytest.approx(
            48.22958082652231, abs=1e-10)

    def test_n_w_limit_at_pbar_s(self):
        # N_W(Pbar_s) -> (60/49)(13 sqrt(2) - 17) as r -> r*
        params = ProfileParams(r=R_STAR - 1e-10)
        pts = special_points(params)
        limit = (60.0 / 49.0) * (13.0 * math.sqrt(2.0) - 17.0)
        assert limit == pytest.approx(1.6956444622655947, abs=1e-12)
        assert eval_polys(pts.P_bar_s, params).N_W == pytest.approx(limit, abs=1e-7)


@pytest.fixture(scope="module")
def curves():
    return barrier_curves(ProfileParams(r=2.01), n_samples=512)


class TestBarrierCurves:
    def test_all_curves_present(self, curves):
        assert set(curves) == {"b_partI", "p_W", "Xi1_zero_branch", "Xi2_zero_branch"}
        for curve in curves.values():
            assert curve.W.shape == (512,)
            assert np.all(np.isfinite(curve.W)) and np.all(np.isfinite(curve.Z))

    def test_b_curve_stays_inside_open_interval(self, curves):
        params = ProfileParams(r=2.01)
        pts = special_points(params)
        b = curves["b_partI"]
        upper = -(params.r - 1.0) / 4.0
        assert np.all(b.param > pts.P_s.U)
        assert np.all(b.param < upper)
        # the curve lives in the quadrant W > Z (S > 0)
        assert np.all(b.W > b.Z)

    def test_p_w_endpoints(self, curves):
        params = ProfileParams(r=2.01)
        pts = special_points(params)
        c = curves["p_W"]
        assert c.W[0] == pytest.approx(pts.P_i.W, abs=1e-12)
        assert c.Z[0] == pytest.approx(pts.P_i.Z, abs=1e-12)
        assert c.W[-1] == pytest.approx(0.0, abs=1e-12)
        # the branch lies on N_W = 0 throughout
        residual = pp.n_w(c.W, c.Z, params.r)
        assert np.max(np.abs(residual)) < 1e-10

    def test_xi_zero_branches_vanish(self, curves):
        r = 2.01
        c1 = curves["Xi1_zero_branch"]
        mask = np.isfinite(c1.W)
        assert np.max(np.abs(xi1_poly(c1.W[mask], c1.Z[mask], r))) < 1e-9
        c2 = curves["Xi2_zero_branch"]
        U, S = 0.5 * (c2.W + c2.Z), 0.5 * (c2.W - c2.Z)
        assert np.max(np.abs(pp.xi2_us(U, S, r))) < 1e-9

    def test_xi2_branch_endpoints(self, curves):
        pts = special_points(ProfileParams(r=2.01))
        c2 = curves["Xi2_zero_branch"]
        assert c2.W[0] == pytest.approx(pts.P_star.W, abs=1e-10)
        assert c2.Z[0] == pytest.approx(pts.P_star.Z, abs=1e-10)
        assert c2.W[-1] == pytest.approx(pts.P_s.W, abs=1e-10)
        assert c2.Z[-1] == pytest.approx(pts.P_s.Z, abs=1e-10)
