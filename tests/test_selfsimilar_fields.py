"""Tests for polar variables, frame maps, cut-offs and damped profiles.

Plateau values of the cut-offs and the frame-change powers are pinned by
closed forms; roundtrip identities are property-tested with randomized
smooth fields; the damped-profile error fields are checked against the
converged profile (zero on the inner plateau, finite weighted bounds, and
an e^-s decay of the differentiated weighted norms).  The windowed
cut-offs are checked bit for bit against the dense ones in oracles.py,
point by point and through every caller, and the closed-form cut-off
derivatives against 50-digit mpmath ones.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nls_implosion import dynamics_lab, selfsimilar_fields
from nls_implosion.errors import DomainError, RangeError, VacuumError
from nls_implosion.phase_portrait import ProfileParams
from nls_implosion.selfsimilar_fields import (
    CUT_WINDOWS,
    FieldSet,
    RadialGrid,
    _smooth_step,
    cutoff,
    cutoff_derivative,
    damped_profile,
    error_terms,
    from_selfsimilar,
    inverse_madelung,
    madelung,
    radial_laplacian,
    to_selfsimilar,
)
from oracles import nls_rhs_complex, nls_rhs_polar


@pytest.fixture(scope="module")
def dp6(profile_r201):
    return damped_profile(profile_r201, 6.0)


class TestCutoffs:
    def test_hat_plateaus(self):
        assert cutoff("hat", 0.4) == 1.0
        assert cutoff("hat", 0.7) == 0.0

    def test_tilde_plateaus(self):
        assert cutoff("tilde", 0.1) == 0.0
        assert cutoff("tilde", 0.3) == 1.0

    def test_poly_closed_form(self):
        # <2> = sqrt(5), so poly(2, 20) = 5^-10
        assert cutoff("poly", 2.0, n_d=20) == pytest.approx(5.0 ** -10,
                                                            rel=1e-12)
        assert cutoff("poly", 0.3) == 1.0

    def test_partition_and_monotone(self):
        x = np.linspace(0.0, 1.0, 1001)
        hat = cutoff("hat", x)
        assert np.all(hat + (1.0 - hat) == 1.0)
        assert np.all(np.diff(hat) <= 0)
        assert np.all(np.diff(cutoff("tilde", x)) >= 0)
        assert np.all(np.diff(cutoff("poly", x)) <= 0)
        for arr in (hat, cutoff("tilde", x)):
            assert np.all((arr >= 0) & (arr <= 1))
        assert np.all(cutoff("poly", x) > 0)

    def test_derivatives_vanish_on_plateaus(self):
        for x in (0.0, 0.25, 0.45, 0.8, 3.0):
            assert cutoff_derivative("hat", x) == 0.0
        for x in (0.0, 0.05, 0.5, 2.0):
            assert cutoff_derivative("tilde", x) == 0.0

    def test_derivative_matches_differencing(self):
        x = np.linspace(0.5, 2.0 / 3.0, 64)
        d = cutoff_derivative("hat", x)
        num = (cutoff("hat", x + 1e-6) - cutoff("hat", x - 1e-6)) / 2e-6
        assert np.max(np.abs(d - num)) < 1e-6

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            cutoff("hat", -0.1)
        with pytest.raises(DomainError):
            cutoff("fancy", 0.5)

    def test_nan_rejected(self):
        for kind in ("hat", "tilde", "poly"):
            for x in (float("nan"), np.array([0.3, np.nan, 0.6])):
                with pytest.raises(DomainError, match="not NaN"):
                    cutoff(kind, x)
                with pytest.raises(DomainError, match="not NaN"):
                    cutoff_derivative(kind, x)

    def test_smooth_step_keeps_nan(self):
        assert np.isnan(_smooth_step(float("nan")))
        out = _smooth_step(np.array([-1.0, np.nan, 0.5, 2.0]))
        assert np.array_equal(np.isnan(out), [False, True, False, False])
        assert out[0] == 0.0 and out[3] == 1.0


def _same_bits(got, want):
    """Same type, same shape, and the same bytes (so -0.0 and NaN count)."""
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _shaped(pts: np.ndarray, shape: str):
    """A Python float, the row itself, or a (2, 3, n) stack of its
    rotations, so every stack row holds the points in another order."""
    if shape == "scalar":
        return float(pts[0])
    if shape == "row":
        return pts
    return np.stack([np.roll(pts, k) for k in range(6)]).reshape(2, 3, -1)


class TestWindowedCutoffs:
    """The windowed cut-offs against the dense ones of oracles.py."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(("hat", "tilde", "poly")),
           shape=st.sampled_from(("scalar", "row", "stack")),
           data=st.data())
    def test_equal_to_dense_bit_for_bit(self, kind, shape, data):
        a, b = CUT_WINDOWS[kind]
        edges = [0.0, 1e6] + [e + k * step for e in (a, b)
                              for step in (1e-3, 1e-4)
                              for k in range(-6, 7)]
        point = st.one_of(st.sampled_from(edges),
                          st.floats(0.0, 1.0), st.floats(0.0, 1e6))
        x = _shaped(np.array(data.draw(st.lists(point, min_size=1,
                                                max_size=40))), shape)
        _same_bits(cutoff(kind, x), oracles.dense_cutoff(kind, x))

    @settings(max_examples=150, deadline=None)
    @given(t=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-3, 1.0 - 2.0 ** -53,
                         1.0 + 2.0 ** -52, -1e300, 1e300]),
        st.floats(-2.0, 3.0)))
    def test_smooth_step_equal_to_dense(self, t):
        # both overflow -1/t to -inf at a subnormal t, and exp maps it to
        # the exact 0
        with np.errstate(over="ignore"):
            _same_bits(_smooth_step(t), oracles.dense_smooth_step(t))

    @pytest.mark.parametrize("shape", ["row", "stack"])
    @pytest.mark.parametrize("kind", ["hat", "tilde", "poly"])
    def test_long_grids_equal_to_dense(self, kind, shape):
        # hundreds of points in each window, in every position of a stack
        x = _shaped(np.linspace(0.0, 1.0, 4097), shape)
        _same_bits(cutoff(kind, x), oracles.dense_cutoff(kind, x))


def _ulps_from(edge: float, k: int) -> float:
    """The double k steps of np.nextafter from edge (toward 0 for k < 0)."""
    toward = np.inf if k > 0 else 0.0
    for _ in range(abs(k)):
        edge = np.nextafter(edge, toward)
    return float(edge)


@functools.cache
def _sup_derivative(kind: str, order: int) -> float:
    """sup over the window of |cut-off derivative|, from the oracle."""
    a, b = CUT_WINDOWS[kind]
    return float(np.max(np.abs(oracles.mp_cutoff_derivative(
        kind, np.linspace(a, b, 401), order))))


#: closed form against the 50-digit derivative, in units of its sup
DERIVATIVE_TOL = {1: 1e-13, 2: 1e-11}


def _assert_near_mp(kind: str, order: int, x) -> None:
    got = cutoff_derivative(kind, x, order=order)
    want = oracles.mp_cutoff_derivative(kind, x, order)
    err = np.max(np.abs(got - want)) / _sup_derivative(kind, order)
    assert err <= DERIVATIVE_TOL[order]


class TestCutoffDerivatives:
    """The closed-form derivatives against the mpmath ones of oracles.py."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind", ["hat", "tilde"])
    def test_matches_mpmath(self, kind, order):
        a, b = CUT_WINDOWS[kind]
        edges = [_ulps_from(e, k) for e in (a, b) for k in range(-8, 9)]
        near = [e + sign * d for e in (a, b) for sign in (-1.0, 1.0)
                for d in (1e-6, 1e-4, 1e-3, 1e-2)]
        x = np.concatenate([np.linspace(a, b, 201), edges, near,
                            [0.0, 0.3, 1.0, 1e6]])
        assert len(x) >= 200
        _assert_near_mp(kind, order, x)

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(("hat", "tilde")),
           order=st.sampled_from((1, 2)), data=st.data())
    def test_edges_match_mpmath(self, kind, order, data):
        a, b = CUT_WINDOWS[kind]
        at_edge = st.builds(_ulps_from, st.sampled_from((a, b)),
                            st.integers(-64, 64))
        point = st.one_of(at_edge, st.floats(a, b), st.floats(0.0, 1.0))
        x = np.array(data.draw(st.lists(point, min_size=1, max_size=8)))
        _assert_near_mp(kind, order, x)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind", ["hat", "tilde"])
    def test_same_bits_in_any_layout(self, kind, order):
        pts = np.linspace(0.0, 0.8, 1001)
        row = cutoff_derivative(kind, pts, order=order)
        for i in range(0, 1001, 50):
            _same_bits(cutoff_derivative(kind, float(pts[i]), order=order),
                       row[i])
        for part in (slice(3, 500), slice(1, None, 7), slice(998, 0, -3)):
            _same_bits(cutoff_derivative(kind, pts[part], order=order),
                       row[part])
        stack = cutoff_derivative(kind, _shaped(pts, "stack"), order=order)
        _same_bits(stack, _shaped(row, "stack"))

    def test_poly_and_other_orders_refused(self):
        with pytest.raises(DomainError, match="'poly'"):
            cutoff_derivative("poly", 0.6)
        for order in (0, 3):
            with pytest.raises(DomainError, match=f"at {order}"):
                cutoff_derivative("hat", 0.6, order=order)


def test_windowed_cutoffs_identical_through_callers(profile_r201,
                                                   profile_r201_wide,
                                                   monkeypatch):
    def run():
        terms = []
        for s in (10.0, 11.0, 12.0):
            dp = damped_profile(profile_r201_wide, s)
            terms.append((dp.S_d, dp.Psi_d, dp.constants,
                          *error_terms(dp, profile_r201_wide)))
        probe = dynamics_lab.dissipativity_probe(profile_r201)
        rep = dynamics_lab.simulate(profile_r201, s_span=0.1, n=256,
                                    n_samples=3)
        manifest = rep.payload()
        manifest.pop("wall_time", None)
        return terms, probe, rep.to_csv(), json.dumps(manifest)

    windowed = run()
    for module in (selfsimilar_fields, dynamics_lab):
        monkeypatch.setattr(module, "_smooth_step",
                            oracles.dense_smooth_step)
        monkeypatch.setattr(module, "cutoff", oracles.dense_cutoff)
    dense = run()

    for got, want in zip(windowed[0], dense[0]):
        for g, w in zip(got, want):
            if isinstance(g, np.ndarray):
                _same_bits(g, w)
            else:
                assert g == w
    assert windowed[1:] == dense[1:]


class TestMadelung:
    def test_unit_field(self):
        rho, psi = madelung(np.ones(8, dtype=complex))
        assert np.all(rho == 1.0)
        assert np.all(psi == 0.0)

    def test_constant_readoff(self):
        v = np.full(8, np.sqrt(2.0) * np.exp(1j * 0.3))
        rho, psi = madelung(v)
        assert rho == pytest.approx(np.full(8, 2.0))
        assert psi == pytest.approx(np.full(8, 0.3))

    def test_vacuum_rejected(self):
        v = np.ones(8, dtype=complex)
        v[3] = 1e-14
        with pytest.raises(VacuumError):
            madelung(v)

    def test_unwrap_no_branch_jumps(self):
        # a phase winding several times through pi must come out continuous
        R = np.linspace(0.0, 5.0, 400)
        v = np.exp(1j * 3.0 * R)
        _, psi = madelung(v)
        assert np.max(np.abs(np.diff(psi) - 3.0 * np.diff(R))) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_roundtrip_random_smooth(self, seed):
        rng = np.random.default_rng(seed)
        R = np.linspace(0.0, 4.0, 257)
        amp = 1.0 + 0.5 * np.tanh(rng.normal() * np.cos(R + rng.normal()))
        phase = rng.normal(scale=2.0) * np.sin(R) + rng.normal() * R
        v = amp * np.exp(1j * phase)
        rho, psi = madelung(v)
        assert np.max(np.abs(inverse_madelung(rho, psi) - v)) < 1e-12


class TestFrameMaps:
    def make_physical(self, n=200):
        x = np.linspace(0.0, 2.0, n)
        psi = np.exp(-x * x)
        rho = 1.0 + 0.5 * np.cos(x)
        return psi, rho, x

    def test_frame_time_value(self):
        psi, rho, x = self.make_physical()
        params = ProfileParams(r=2.01)
        T = 1.0
        t = T - np.exp(-params.r)
        fs = to_selfsimilar(psi, rho, x, T, t, params)
        assert fs.s == pytest.approx(1.0)
        assert fs.R == pytest.approx(x * np.e)

    def test_s0_at_t_zero(self):
        psi, rho, x = self.make_physical()
        params = ProfileParams(r=2.01)
        fs = to_selfsimilar(psi, rho, x, T=0.25, t=0.0, params=params)
        assert fs.s == pytest.approx(-np.log(0.25) / params.r)

    @settings(max_examples=25, deadline=None)
    @given(t=st.floats(0.0, 0.9), r=st.floats(1.8, 2.05))
    def test_roundtrip_identity(self, t, r):
        psi, rho, x = self.make_physical()
        params = ProfileParams(r=r)
        fs = to_selfsimilar(psi, rho, x, 1.0, t, params)
        psi2, rho2, x2 = from_selfsimilar(fs, 1.0, t)
        assert np.max(np.abs(psi2 - psi)) < 1e-12
        assert np.max(np.abs(rho2 - rho)) < 1e-12 * np.max(rho)
        assert np.max(np.abs(x2 - x)) < 1e-12 * x[-1]

    def test_t_at_or_past_T_rejected(self):
        psi, rho, x = self.make_physical()
        with pytest.raises(DomainError):
            to_selfsimilar(psi, rho, x, 1.0, 1.0, ProfileParams(r=2.01))

    @pytest.mark.parametrize("bad", [-1e-3, np.nan])
    def test_negative_or_nan_rho_rejected_by_name(self, bad):
        # refused before the density power, so no sqrt RuntimeWarning
        # (an error in this suite) comes first, and the message names rho
        psi, rho, x = self.make_physical()
        rho[3] = bad
        with pytest.raises(DomainError, match="rho must be nonnegative"):
            to_selfsimilar(psi, rho, x, 1.0, 0.0, ProfileParams(r=2.01))

    @pytest.mark.parametrize("bad", [-1e-12, np.nan])
    def test_fieldset_rejects_negative_or_nan_S(self, bad):
        params = ProfileParams(r=2.01)
        grid = RadialGrid.uniform(64, 3.0)
        R = grid.R
        S = 1.0 + 0.1 * R
        S[5] = bad
        with pytest.raises(DomainError):
            FieldSet.from_Psi_S(params, grid, 1.0, np.exp(-R), S)
        payload = FieldSet.from_Psi_S(params, grid, 1.0, np.exp(-R),
                                      1.0 + 0.1 * R).payload()
        payload["columns"]["S"][5] = bad
        with pytest.raises(DomainError):
            FieldSet.from_payload(payload)

    def test_json_roundtrip(self):
        params = ProfileParams(r=2.01)
        grid = RadialGrid.uniform(64, 3.0)
        R = grid.R
        fs = FieldSet.from_Psi_S(params, grid, 1.5, np.exp(-R), 1.0 + 0.1 * R)
        payload = fs.payload()
        assert set(payload["frame"]) == {"s", "grid"}
        fs2 = FieldSet.from_payload(json.loads(json.dumps(payload)))
        assert fs2.s == fs.s
        assert np.array_equal(fs2.Psi, fs.Psi)
        assert np.max(np.abs(fs2.P - fs.P)) < 1e-15

    def test_snapshot_with_domain_label_loads(self):
        # snapshots written while FieldSet carried a domain label have a
        # frame "mode" key; it is ignored
        params = ProfileParams(r=2.01)
        grid = RadialGrid.uniform(64, 3.0)
        R = grid.R
        fs = FieldSet.from_Psi_S(params, grid, 1.5, np.exp(-R), 1.0 + 0.1 * R)
        payload = fs.payload()
        payload["frame"]["mode"] = "periodic"
        fs2 = FieldSet.from_payload(json.loads(json.dumps(payload)))
        assert fs2.s == fs.s
        assert np.array_equal(fs2.Psi, fs.Psi)
        assert np.array_equal(fs2.S, fs.S)


class TestDampedProfile:
    def test_inner_plateau_identities(self, profile_r201, dp6):
        r = profile_r201.params.r
        x = profile_r201.R * np.exp(-6.0)
        plateau = x <= 0.5
        # Psi is exactly the profile there; S carries the additive floor
        assert np.array_equal(dp6.Psi_d[plateau],
                              profile_r201.Psi_nls[plateau])
        expected = (profile_r201.S_nls[plateau]
                    + np.exp(-(r - 1.0) * 6.0) * cutoff("tilde", x[plateau]))
        assert np.max(np.abs(dp6.S_d[plateau] - expected)) == 0.0

    def test_outer_plateau_exact_floor(self, profile_r201, dp6):
        r = profile_r201.params.r
        outer = profile_r201.R * np.exp(-6.0) >= 2.0 / 3.0
        assert np.any(outer)
        assert dp6.S_d[outer] == pytest.approx(
            np.full(outer.sum(), np.exp(-(r - 1.0) * 6.0)), rel=1e-14)
        assert np.all(dp6.Psi_d[outer] == 0.0)

    def test_euclidean_far_field(self, profile_r201):
        dp = damped_profile(profile_r201, 6.0, mode="euclidean", n_d=12)
        x = profile_r201.R * np.exp(-6.0)
        outer = x >= 2.0 / 3.0
        expected = profile_r201.S_nls[outer] * (1 + x[outer] ** 2) ** -6.0
        assert dp.S_d[outer] == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(dp.Psi_d, profile_r201.Psi_nls)

    def test_comparability_constants(self, dp6):
        c = dp6.constants
        assert 0 < c["c1"] <= c["c2"] < np.inf
        assert c["c3"] >= 1.0 - 1e-12   # floor is attained on the far plateau

    def test_coverage_guard(self, profile_r201):
        with pytest.raises(RangeError):
            damped_profile(profile_r201, 12.0)


class TestErrorTerms:
    def test_zero_on_inner_plateau(self, profile_r201, dp6):
        et = error_terms(dp6, profile_r201)
        x = profile_r201.R * np.exp(-6.0)
        inner = x <= 1.0 / 8.0
        # below every transition the expansion is the hat-weighted profile
        # bracket, which vanishes to the profile's accuracy
        assert np.max(np.abs(et.E_Psi[inner])) < 1e-6
        assert np.max(np.abs(et.E_S[inner])) < 1e-6

    def test_brackets_vanish(self, profile_r201, dp6):
        et = error_terms(dp6, profile_r201)
        assert np.max(np.abs(et.bracket_Psi)) < 1e-6
        assert np.max(np.abs(et.bracket_S)) < 1e-6

    def test_psi_expansion_matches_defining_brace(self, profile_r201, dp6):
        # the displayed E_Psi drops only the vanishing bracket, so the two
        # routes agree to the profile's accuracy
        et = error_terms(dp6, profile_r201)
        assert et.mismatch_Psi < 1e-6

    @pytest.mark.parametrize("s", [10.0, 11.0, 12.0])
    def test_psi_mismatch_is_round_off(self, profile_r201_wide, s):
        # the defining E_Psi is N_Psi_d - d_s Psi_d, two fields of size
        # about 29 that cancel to a sup far below them, so the two routes
        # can agree only to round-off of that size
        table = profile_r201_wide
        et = error_terms(damped_profile(table, s), table)
        x = table.R * np.exp(-s)
        ds_Psi_d = -table.Psi_nls * cutoff_derivative("hat", x, 1) * x
        N_Psi_d = et.E_Psi_defining + ds_Psi_d
        scale = max(np.max(np.abs(N_Psi_d)), np.max(np.abs(ds_Psi_d)))
        assert scale > 1e6 * np.max(np.abs(et.E_Psi_defining))
        assert et.mismatch_Psi <= 16.0 * np.finfo(float).eps * scale

    def test_s_mismatch_reported(self, profile_r201, dp6):
        # the displayed E_S contains a cut-off derivative whose argument
        # does not match the product-rule expansion; the discrepancy is
        # localized where that derivative is active and is reported
        et = error_terms(dp6, profile_r201)
        diff = np.abs(et.E_S - et.E_S_defining)
        assert et.mismatch_S == pytest.approx(np.max(diff))
        x = profile_r201.R * np.exp(-6.0)
        active = (x > 1.0 / 8.0 - 0.02) & (x < 2.0 / 3.0 + 0.02)
        assert np.max(diff[~active]) < 1e-6

    def test_weighted_sup_bounds_finite(self, profile_r201, dp6):
        et = error_terms(dp6, profile_r201)
        r = profile_r201.params.r
        y = profile_r201.R
        b_psi = np.max(np.abs(et.E_Psi) * (1 + y * y) ** (r - 1.0))
        b_s = np.max(np.abs(et.E_S) / (dp6.S_d * (1 + y * y)
                                       ** (-(r - 1.0) / 2.0)))
        assert np.isfinite(b_psi)
        assert np.isfinite(b_s)

    def test_support_flagged_inside_half(self, profile_r201, dp6):
        et = error_terms(dp6, profile_r201)
        assert et.support_inner_x < 0.5
        assert et.support_inner_x > 0.05
        assert "support" in et.support_note

    def test_weighted_norm_decay_in_s(self, profile_r201):
        # differentiated weighted norms of both error fields shrink at
        # least like e^-s between consecutive frame times
        m_prime, R0 = 3, 20.0
        h_xi = profile_r201.xi_grid[1] - profile_r201.xi_grid[0]
        from nls_implosion._fd import derivative

        def weighted_norms(s):
            dp = damped_profile(profile_r201, s)
            et = error_terms(dp, profile_r201)
            R = profile_r201.R
            beta = np.maximum(1.0, R / R0) ** 0.1
            out = []
            for f, extra in ((et.E_Psi, 1), (et.E_S, 0)):
                g = f.copy()
                for _ in range(m_prime + extra):
                    g = derivative(g, h_xi, 1) / R
                out.append(np.sqrt(np.trapezoid(
                    g * g * beta ** (2 * m_prime) * R ** 8, profile_r201.xi_grid)))
            return out

        lo, hi = weighted_norms(5.0), weighted_norms(6.0)
        for a, b in zip(lo, hi):
            assert b <= a * np.exp(-1.0) * 1.2


class TestPolarConsistency:
    def test_manufactured_solution_matches_complex_form(self):
        # real/imaginary split of the complex equation against the polar
        # system, on smooth synthetic data: agreement within O(h^2)
        errs = []
        for n in (101, 401):
            grid = RadialGrid.uniform(n, 4.0)
            R = grid.R
            rho = 1.0 + 0.5 * np.exp(-R * R)
            psi = 0.3 * np.cos(R * R / 4.0)
            v = inverse_madelung(rho, psi)
            dv = nls_rhs_complex(v, grid)
            dt_rho_c = 2.0 * np.real(np.conj(v) * dv)
            dt_psi_c = np.imag(np.conj(v) * dv) / rho
            dt_psi, dt_rho = nls_rhs_polar(rho, psi, grid)
            interior = slice(5, -5)
            errs.append(max(np.max(np.abs(dt_psi - dt_psi_c)[interior]),
                            np.max(np.abs(dt_rho - dt_rho_c)[interior])))
        assert errs[0] < 1e-4
        # well below the O(h^2) envelope already at the coarse grid, and
        # refinement does not make it worse beyond roundoff
        assert errs[1] < max(errs[0], 1e-9)

    def test_laplacian_center_regularization(self):
        grid = RadialGrid.uniform(101, 1.0, d=8)
        f = grid.R * grid.R
        lap = radial_laplacian(f, grid)
        # Lap R^2 = 2d in d dimensions
        assert lap == pytest.approx(np.full(101, 16.0), abs=1e-8)
