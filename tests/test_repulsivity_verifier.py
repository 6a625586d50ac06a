"""Tests for the repulsivity and barrier inequality checks.

Closed-form expected values (the origin coefficient at r = 2, the affine
parenthesis endpoints near r*) come straight from the formulas.  Margins of
the solved r = 2.01 profile are frozen as regression guards: they describe
the outgoing member named by outgoing_anchor, read once from the solver at
its defaults.  Over the xi_switch and tol values of
TestSettingsIndependence they move by less than 1e-8, so the 1e-6
tolerance is a margin for platform round-off, not for the solver's knobs.
"""

import math

import numpy as np
import pytest

from nls_implosion import repulsivity_verifier
from nls_implosion.errors import ConsistencyError, DomainError, WindowError
from nls_implosion.phase_portrait import (
    R_STAR,
    ProfileParams,
    n_w,
    special_points,
    xi1_us,
)
from nls_implosion.profile_solver import ProfileTable, solve_profile, to_physical
from nls_implosion.repulsivity_verifier import (
    DELTA_C,
    R_WINDOW_MIN,
    certify,
    check_angular_repulsivity,
    check_integrated,
    check_partI,
    check_partII,
    check_radial_repulsivity,
    verify_all,
)
from oracles import xi1_poly


def make_table(r=2.01, n=257, xi_min=-4.0, xi_max=4.0, w0=float("nan"), **cols):
    """Synthetic table, zero (W, Z) state unless a state column is given."""
    xi = np.linspace(xi_min, xi_max, n)
    data = {name: cols.get(name, np.zeros(n))
            for name in ("W", "Z", "dR_Ubar", "dR_Sbar")}
    return ProfileTable(params=ProfileParams(r=r), xi_grid=xi, w0=w0, **data)


class TestRadial:
    def test_converged_profile_positive(self, profile_r201):
        margin = check_radial_repulsivity(profile_r201)
        assert margin > 0
        # read at the defaults; stable to 1e-8 across xi_switch and tol
        assert margin == pytest.approx(0.0473138, abs=1e-6)

    def test_zero_fields_margin_one(self):
        assert check_radial_repulsivity(make_table()) == 1.0

    def test_unit_slope_margin_minus_one(self):
        # dR S_p = 1/alpha means dR Sbar = 2/alpha; the margin drops to -1
        alpha = 0.5
        n = 257
        table = make_table(dR_Sbar=np.full(n, 2.0 / alpha))
        assert check_radial_repulsivity(table) == -1.0


class TestAngular:
    def test_converged_profile_positive(self, profile_r201):
        margins = check_angular_repulsivity(profile_r201)
        assert margins.appendix > 0
        assert margins.nls > 0
        # the two conventions are algebraically the same quantity
        assert margins.appendix == pytest.approx(margins.nls, rel=1e-12)
        # read at the defaults; stable to 1e-8 across xi_switch and tol
        assert margins.appendix == pytest.approx(0.0764879, abs=1e-6)

    def test_zero_fields_margin_one(self):
        margins = check_angular_repulsivity(make_table())
        assert margins.appendix == 1.0
        assert margins.nls == 1.0

    def test_no_blowup_near_origin(self):
        # Ubar_R/R is the velocity itself; a table reaching R ~ 1e-9 must
        # evaluate finitely
        table = make_table(xi_min=-20.0, xi_max=1.0)
        margins = check_angular_repulsivity(table)
        assert np.isfinite(margins.appendix)


def _margins(table):
    return (check_radial_repulsivity(table),
            check_angular_repulsivity(table).appendix,
            check_integrated(table))


class TestSettingsIndependence:
    """The margins belong to the profile, not to the solver's knobs."""

    @pytest.mark.parametrize("tol", [1e-11, 3e-12, 1e-12])
    @pytest.mark.parametrize("xi_switch", [0.1, 0.15, 0.2])
    def test_margins_independent_of_settings(self, params_r201, profile_r201,
                                             xi_switch, tol):
        table = to_physical(solve_profile(params_r201, xi_switch=xi_switch,
                                          tol=tol))
        for got, want in zip(_margins(table), _margins(profile_r201)):
            assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("xi_switch, tol", [(0.2, 1e-13), (0.25, 1e-12)])
    def test_tight_tolerance_and_wide_seam_solve(self, params_r201,
                                                 profile_r201, xi_switch, tol):
        table = to_physical(solve_profile(params_r201, xi_switch=xi_switch,
                                          tol=tol))
        for got, want in zip(_margins(table), _margins(profile_r201)):
            assert got == pytest.approx(want, abs=1e-6)


class TestPartI:
    def test_origin_coefficient_r2_closed_form(self):
        # (r-5)(r-1)(3r+1)/40 at r = 2, w0 = 1 is -0.525; the margin is its
        # negation
        table = make_table(r=2.0, w0=1.0)
        report = check_partI(ProfileParams(r=2.0), table)
        assert report["partI_origin_coefficient"].margin == pytest.approx(0.525)

    def test_b_curve_constant_sign(self, params_r201, profile_r201):
        report = check_partI(params_r201, profile_r201, n_samples=200)
        check = report["partI_b_constant_sign"]
        assert check.passed
        assert "200" in check.samples

    def test_trajectory_combo_positive(self, params_r201, profile_r201):
        check = check_partI(params_r201, profile_r201)["partI_trajectory_combo"]
        assert check.passed
        # the margin shrinks toward the sonic point where the combination
        # vanishes (the excluded boundary case), so it is small but positive
        assert 0 < check.margin < 1e-3

    def test_missing_w0_rejected(self, params_r201, profile_r201):
        with pytest.raises(DomainError):
            check_partI(params_r201, make_table(w0=float("nan")))


class TestPartII:
    def test_all_pass_at_reference_r(self, params_r201, profile_r201):
        report = check_partII(params_r201, profile_r201)
        assert report.all_passed

    def test_xi3_endpoints_near_r_star(self, profile_r201):
        # limiting constants at r = r*: -984 + 764 sqrt(2) and -492 + 382 sqrt(2)
        params = ProfileParams(r=R_STAR - 1e-9)
        report = check_partII(params, profile_r201)
        a = report["partII_xi3_parenthesis_t=0"].margin
        b = report["partII_xi3_parenthesis_t=(Wbar0-Zbar0)/2"].margin
        assert a == pytest.approx(-984.0 + 764.0 * math.sqrt(2.0), abs=1e-4)
        assert b == pytest.approx(-492.0 + 382.0 * math.sqrt(2.0), abs=1e-4)

    @pytest.mark.parametrize("r", [2.01, 2.068])
    def test_vertical_segment_margin_is_n_w_at_p_s(self, r):
        # -N_W is concave in t and smallest at t = 0, the sonic point, which
        # the samples include: the margin does not depend on their number,
        # so the refinement gate of certify passes at the top of the window
        params = ProfileParams(r=r)
        table = to_physical(solve_profile(params, n_points=1024))
        P_s = special_points(params).P_s
        for n_samples in (128, 512):
            report = certify(params, table, n_samples=n_samples)
            check = report["partII_vertical_segment_nw"]
            assert check.margin == -n_w(P_s.W, P_s.Z, r)
            assert check.worst_location == "t=0"
            assert report.all_passed

    def test_xi1_trivial_point(self):
        # at U = S = 0 the (U,S)-form collapses to (U+1)^3 = 1
        assert xi1_us(0.0, 0.0, 2.01) == 1.0

    def test_window_error_below_near_rstar_range(self, profile_r201):
        with pytest.raises(WindowError):
            check_partII(ProfileParams(r=1.5), profile_r201)


class TestIntegrated:
    def test_converged_profile_positive(self, profile_r201):
        margin = check_integrated(profile_r201)
        assert margin > 0
        # read at the defaults; stable to 1e-8 across xi_switch and tol
        assert margin == pytest.approx(0.0535165, abs=1e-6)

    def test_critical_point_vanishes(self, profile_r201):
        # R + Ubar_R - alpha Sbar vanishes at R = 1 to well inside the
        # tolerance check_integrated holds it to
        t = profile_r201
        i1 = int(np.argmin(np.abs(t.R - 1.0)))
        assert t.R[i1] == 1.0
        assert abs(t.R[i1] + t.Ubar_R[i1] - t.params.alpha * t.Sbar[i1]) \
            <= 1e-10
        check_integrated(t)

    def test_synthetic_zero_fields_ratio(self):
        # with Ubar = Sbar = 0 the ratio is R/(R-1) > 1 for all R > 1, but
        # the critical point condition fails, which must be flagged
        table = make_table(n=513)
        with pytest.raises(ConsistencyError, match="at R = 1"):
            check_integrated(table)

    def test_collar_excluded(self, profile_r201):
        # the reported min is the ratio's over R > 1 + DELTA_C, and
        # widening the collar can only weaken (increase) it
        t = profile_r201
        numer = t.R + t.Ubar_R - t.params.alpha * t.Sbar
        ratio = numer / np.where(t.R == 1.0, np.nan, t.R - 1.0)
        tight = check_integrated(t)
        assert tight == np.min(ratio[t.R > 1.0 + DELTA_C])
        assert np.min(ratio[t.R > 1.5]) >= tight


def _counted(monkeypatch, name, calls):
    """Patch repulsivity_verifier.<name> to log (name, n_samples) per call."""
    fn = getattr(repulsivity_verifier, name)

    def counted(params, table, n_samples):
        calls.append((name, n_samples))
        return fn(params, table, n_samples=n_samples)

    monkeypatch.setattr(repulsivity_verifier, name, counted)


class TestCertify:
    @pytest.mark.parametrize("r, resampled", [
        (2.01, [("check_partII", 128)]), (1.85, [])], ids=["2.01", "1.85"])
    def test_gate_resamples_part_two_alone(self, monkeypatch, r, resampled):
        # one verify_all pass at n; the refinement gate reads only the Part
        # II margins, so only check_partII runs again, at 2n, and below the
        # near-r* window, where the report holds none, nothing does
        params = ProfileParams(r=r)
        table = to_physical(solve_profile(params, n_points=1024))
        calls = []
        _counted(monkeypatch, "verify_all", calls)
        _counted(monkeypatch, "check_partII", calls)
        report = certify(params, table, n_samples=64)
        assert report.all_passed
        assert calls == [("verify_all", 64), ("check_partII", 64),
                         *resampled]


class TestInvariantsAndReport:
    def test_xi1_two_forms_sign_agree_on_trajectory(self, profile_r201):
        t = profile_r201
        U, S = 0.5 * (t.W + t.Z), 0.5 * (t.W - t.Z)
        a = xi1_poly(t.W, t.Z, 2.01)
        b = xi1_us(U, S, 2.01)
        off = np.abs(t.xi_grid) > 1e-12   # both vanish at the sonic point
        assert np.all(np.sign(a[off]) == np.sign(b[off]))

    def test_report_deterministic(self, params_r201, profile_r201):
        a = verify_all(params_r201, profile_r201)
        b = verify_all(params_r201, profile_r201)
        assert a.payload() == b.payload()
        assert a.to_text() == b.to_text()

    def test_refinement_stability(self, params_r201, profile_r201):
        # re-running the sampled checks at 10x resolution moves any
        # well-separated margin by less than 5 percent
        coarse = check_partII(params_r201, profile_r201, n_samples=512)
        fine = check_partII(params_r201, profile_r201, n_samples=5120)
        for c, f in zip(coarse.checks, fine.checks):
            if abs(c.margin) > 1e-10:
                assert abs(f.margin - c.margin) <= 0.05 * abs(c.margin)
        # across the near-r* window each curve's minimum sits at a sample
        # both counts hold, so doubling the samples, as certify's gate
        # does, leaves every well-separated margin unchanged
        for r in np.linspace(R_WINDOW_MIN, R_STAR, 21)[:-1]:
            params = ProfileParams(r=float(r))
            table = to_physical(solve_profile(params, n_points=1024))
            coarse = check_partII(params, table, n_samples=512)
            fine = check_partII(params, table, n_samples=1024)
            assert [c.name for c in coarse.checks] == [
                f.name for f in fine.checks]
            for c, f in zip(coarse.checks, fine.checks):
                if abs(c.margin) > 1e-10:
                    assert f.margin == c.margin, (r, c.name)

    def test_verify_all_passes_and_serializes(self, params_r201, profile_r201):
        report = verify_all(params_r201, profile_r201)
        assert report.all_passed
        text = report.to_text()
        assert "ALL PASS" in text
        assert "radial_repulsivity" in [c["name"] for c in
                                        report.payload()["checks"]]

    def test_verify_all_skips_partII_outside_window(self, profile_r201):
        # below the near-r* window the outgoing-side checks are skipped,
        # not failed
        report = verify_all(ProfileParams(r=1.5), profile_r201)
        names = [c.name for c in report.checks]
        assert not any(name.startswith("partII") for name in names)
        assert any(name.startswith("partI_") for name in names)
