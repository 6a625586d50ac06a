"""Tests for the radial evolution, energies, probe and rate diagnostic.

Closed-form targets (polynomial energies, the exponent formula, quadratic
scaling) are checked exactly or at quadrature accuracy; dynamical bounds
(profile drift, perturbation control) are calibrated from the measured
stationarity residual of the interpolated profile, since at desk
resolution (simulate's default of 2,048 nodes of R = 4 sinh(x/4) on
[0, 30], spaced about 0.0055 near R = 1) the corner region is only a few
grid cells wide.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

import nls_implosion.dynamics_lab as dl
from nls_implosion.dynamics_lab import (
    EnergyConfig,
    blowup_exponent,
    build_weights,
    critical_sobolev_index,
    dissipativity_probe,
    energy_high,
    energy_low,
    energy_w,
    exponent_formula,
    profile_fieldset,
    residual_stationary,
    simulate,
    step,
)
from nls_implosion.errors import (
    CFLError,
    ConsistencyError,
    DomainError,
    PositivityError,
    RangeError,
    ResolutionError,
    VacuumError,
)
from nls_implosion.phase_portrait import ProfileParams
from nls_implosion.profile_solver import profile_operator
from nls_implosion.selfsimilar_fields import (
    FieldSet,
    RadialGrid,
    _even_d1,
    _smooth_step,
    _StageWorkspace,
    cutoff,
    from_selfsimilar,
    radial_laplacian,
)
import oracles
from oracles import nls_rhs_polar


class TestEnergyConfig:
    def test_defaults_validate(self):
        cfg = EnergyConfig()
        assert cfg.m_prime == 3 and cfg.k == 6 and cfg.l == 0

    def test_low_order_floor(self):
        with pytest.raises(ConsistencyError, match="m_prime"):
            EnergyConfig(m_prime=2)

    def test_weight_index_window(self):
        with pytest.raises(ConsistencyError, match="k/10"):
            EnergyConfig(l=1)    # needs k >= 10 l

    def test_scale_hierarchy_s0(self):
        # 1/s0 must sit below delta_low by the configured ratio
        with pytest.raises(ConsistencyError, match="s0"):
            EnergyConfig(s0=100.0)

    def test_scale_hierarchy_global_bound(self):
        with pytest.raises(ConsistencyError, match="E_global"):
            EnergyConfig(delta_low=0.1, s0=1e4)

    def test_ladder_length(self):
        with pytest.raises(ConsistencyError, match="ladder"):
            EnergyConfig(k=60, l=3, E_l0=(10.0,))

    @pytest.mark.parametrize("cfl", [0.0, -0.5, float("nan")])
    def test_cfl_positive(self, cfl):
        # a zero step bound would divide by zero when simulate picks ds
        with pytest.raises(ConsistencyError, match="cfl"):
            EnergyConfig(cfl=cfl)

    def test_no_eps_field(self):
        # eps was never read; passing it is an error, not a silent no-op
        with pytest.raises(TypeError):
            EnergyConfig(eps=0.05)

    def test_frozen(self):
        cfg = EnergyConfig()
        with pytest.raises(Exception):
            cfg.k = 7


class TestWeights:
    def test_plateau_exact_and_monotone(self):
        cfg = EnergyConfig()
        R = np.linspace(0.0, 8.0 * cfg.R0, 4001)
        w = build_weights(RadialGrid.uniform(4001, 8.0 * cfg.R0), cfg)
        plateau = R <= cfg.R0
        assert np.all(w.beta[plateau] == 1.0)
        assert np.all(w.phi[plateau] == 1.0)
        assert np.all(np.diff(w.beta) >= 0.0)
        assert np.all(np.diff(w.phi) >= 0.0)

    def test_gradient_contract(self):
        cfg = EnergyConfig()
        w = build_weights(RadialGrid.uniform(4001, 8.0 * cfg.R0), cfg)
        assert w.max_grad_ratio_phi <= 2.0

    def test_gradient_ratio_in_closed_form(self):
        # |phi'|/phi agrees with differencing on a fine grid, and a coarse
        # grid reads its value at its own nodes: on [0, 1.5 R0] the ratio
        # peaks at the end, a node of either grid
        cfg = EnergyConfig()
        R = np.linspace(0.0, 8.0 * cfg.R0, 40001)
        w = build_weights(RadialGrid.uniform(40001, 8.0 * cfg.R0), cfg)
        differenced = np.max(np.abs(np.gradient(w.phi, R)) / w.phi)
        assert w.max_grad_ratio_phi == pytest.approx(differenced, rel=1e-6)
        fine, coarse = (build_weights(RadialGrid.uniform(n, 1.5 * cfg.R0),
                                      cfg) for n in (4096, 9))
        assert coarse.max_grad_ratio_phi == fine.max_grad_ratio_phi

    def test_tail_powers(self):
        # from 4 R0 on the weights follow the stated powers, so doubling
        # the radius multiplies them by 2^q
        cfg = EnergyConfig()
        w = build_weights(RadialGrid.uniform(3, 8.0 * cfg.R0), cfg)
        assert w.phi[2] / w.phi[1] == pytest.approx(2.0 ** 2, rel=1e-10)
        assert w.beta[2] / w.beta[1] == pytest.approx(2.0 ** 0.1, rel=1e-10)


class TestProfileFieldset:
    def test_coverage_guard(self, profile_r201):
        beyond = 2.0 * profile_r201.R[-1]
        with pytest.raises(RangeError):
            profile_fieldset(profile_r201, RadialGrid.uniform(65, beyond),
                             1e4)

    def test_table_without_orbit_refused(self, profile_r201):
        columns = replace(profile_r201, orbit=None)
        with pytest.raises(DomainError, match="needs the table's orbit"):
            profile_fieldset(columns, RadialGrid.uniform(65, 4.0), 1e4)

    def test_center_regularity(self, profile_r201):
        fs = profile_fieldset(profile_r201, RadialGrid.uniform(2049, 4.0), 1e4)
        assert np.all(fs.S > 0.0)
        # even fields: first derivative vanishes at the center
        assert abs(fs.S[1] - fs.S[0]) < 1e-5 * fs.S[0]

    def test_consistent_gradients_residual(self, profile_r201):
        # the stationary operator on the evaluated fields, with
        # derivatives from the orbit's dW/dxi and dZ/dxi at the same
        # nodes, mapped to R as the table maps its columns: the fields
        # are the orbit itself, so the operator vanishes to round-off
        # (2e-15 measured)
        t = profile_r201
        fs = profile_fieldset(t, RadialGrid.uniform(4096, 30.0), 1e4)
        inside = fs.R >= t.R[0]
        R = fs.R[inside]
        W, Z, dW, dZ = t.orbit(np.log(R))
        U, S = 0.5 * (W + Z), 0.5 * (W - Z)
        dPsi = 0.5 * (R * U)                      # U_nls
        dS = 0.5 * (S + 0.5 * (dW - dZ))          # dR_S_nls
        lapPsi = 0.5 * (U + 0.5 * (dW + dZ)) + (t.params.d - 1) / R * dPsi
        N_Psi, N_S = profile_operator(t.params, R, fs.Psi[inside], dPsi,
                                      fs.S[inside], dS, lapPsi)
        assert np.max(np.abs(N_Psi)) < 1e-12
        assert np.max(np.abs(N_S)) < 1e-12


class TestStep:
    def test_zero_data_fixed_point(self):
        params = ProfileParams(r=2.01)
        grid = RadialGrid.uniform(257, 10.0)
        zero = np.zeros_like(grid.R)
        state = FieldSet.from_Psi_S(params, grid, 1e4, zero, zero)
        out = step(state, 1e-4)
        assert np.all(out.Psi == 0.0)
        assert np.all(out.S == 0.0)
        assert out.s == pytest.approx(1e4 + 1e-4)

    def test_cfl_guard(self):
        params = ProfileParams(r=2.01)
        grid = RadialGrid.uniform(257, 10.0)
        R = grid.R
        state = FieldSet.from_Psi_S(params, grid, 1e4, np.zeros_like(R),
                                    np.exp(-R * R))
        with pytest.raises(CFLError):
            step(state, 1.0)

    def test_overflowing_quantum_prefactor_below_r2(self):
        # at r = 1.9 and s = 1e4, exp((4 - 2r) s) overflows: a domain error
        # before the step, not an overflow warning and a CFL bound of 0
        params = ProfileParams(r=1.9)
        grid = RadialGrid.uniform(257, 10.0)
        R = grid.R
        state = FieldSet.from_Psi_S(params, grid, 1e4, np.zeros_like(R),
                                    np.exp(-R * R))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows at r = 1.9"):
                step(state, 1e-4)

    def test_quantum_off_skips_the_prefactor_below_r2(self):
        # with the term off the overflowing prefactor is never evaluated:
        # no overflow warning, and the step goes through
        params = ProfileParams(r=1.9)
        grid = RadialGrid.uniform(257, 10.0)
        R = grid.R
        state = FieldSet.from_Psi_S(params, grid, 1e4, np.zeros_like(R),
                                    np.exp(-R * R))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = step(state, 1e-4, quantum_pressure=False)
        assert out.s == 1e4 + 1e-4

    def test_positivity_abort(self):
        # a vacuum band against a rising ramp: at band nodes the density
        # equation reduces to -R dS < 0 and the step must flag the sign
        params = ProfileParams(r=2.01)
        grid = RadialGrid.uniform(257, 10.0)
        R = grid.R
        S = np.maximum(0.0, R - 5.0)
        state = FieldSet.from_Psi_S(params, grid, 1e4, np.zeros_like(R), S)
        with pytest.raises(PositivityError):
            step(state, 1e-3)

    def test_profile_drift_within_residual_bound(self, profile_r201):
        # the interpolated profile is stationary up to its discrete
        # residual; over one frame-time unit the accumulated drift stays
        # within 10x residual x e^2 (measured local growth is ~ e^1.6)
        grid = RadialGrid.uniform(1025, 30.0)
        R = grid.R
        fs = profile_fieldset(profile_r201, grid, 1e4)
        res0 = residual_stationary(fs)
        floor = max(np.max(np.abs(res0.Psi)), np.max(np.abs(res0.P)))
        ds = 0.8 * fs.grid.h / float(np.max(R + 2.0 * fs.U))
        n_steps = int(np.ceil(1.0 / ds))
        ds = 1.0 / n_steps
        state = fs
        for _ in range(n_steps):
            state = step(state, ds, quantum_pressure=False)
        drift = max(np.max(np.abs(state.S - fs.S)),
                    np.max(np.abs(state.Psi - fs.Psi)))
        assert drift <= 10.0 * floor * math.e ** 2


class TestResidual:
    def test_zero_fields(self):
        params = ProfileParams(r=2.01)
        grid = RadialGrid.uniform(129, 5.0)
        zero = np.zeros_like(grid.R)
        state = FieldSet.from_Psi_S(params, grid, 1e4, zero, zero)
        res = residual_stationary(state)
        assert np.all(res.Psi == 0.0)
        assert np.all(res.P == 0.0)
        assert res.quantum_sup == 0.0

    @pytest.mark.parametrize("kind", ["uniform", "sinh"])
    def test_rows_are_the_steppers_stationary_part(self, profile_r201, kind):
        grid = (RadialGrid.uniform(513, 30.0) if kind == "uniform"
                else RadialGrid.sinh(513, 30.0, 4.0))
        fs = profile_fieldset(profile_r201, grid, 1.0)
        params = fs.params
        res = residual_stationary(fs)
        X = np.stack((fs.Psi, fs.S))
        # a workspace per call, so no call overwrites an earlier result
        ws = [_StageWorkspace(grid, X.shape) for _ in range(3)]
        N_Psi, N_S = dl._stationary_rhs(X, ws[0].d1(X), ws[0], params)
        # bit for bit the Psi row, and the stepper's right side with the
        # quantum term off
        np.testing.assert_array_equal(res.Psi, N_Psi)
        np.testing.assert_array_equal(
            res.Psi, dl._rhs(X, ws[1].d1(X), grid, params, 1.0, False,
                             ws[1])[0])
        # the density row is N_S through N_P = P/(alpha S) N_S
        np.testing.assert_allclose(res.P, fs.P / (params.alpha * fs.S) * N_S,
                                   rtol=1e-12, atol=0)
        # the quantum term _rhs adds, at its prefactor
        term = (dl._rhs(X, ws[2].d1(X), grid, params, 1.0, True, ws[2])[0]
                - N_Psi)
        assert res.quantum_sup == pytest.approx(np.max(np.abs(term)),
                                                rel=1e-12)

    def test_density_row_finite_at_vacuum(self, profile_r201):
        grid = RadialGrid.uniform(257, 10.0)
        fs = profile_fieldset(profile_r201, grid, 1e4)
        S = np.where(grid.R > 5.0, 0.0, fs.S)
        res = residual_stationary(replace(fs, S=S))
        assert np.all(np.isfinite(res.P)) and np.all(res.P[grid.R > 5.0] == 0)

    def test_quantum_term_reported_and_scales(self, profile_r201):
        fs = profile_fieldset(profile_r201, RadialGrid.uniform(1025, 10.0),
                              1e4)
        r = fs.params.r
        a = residual_stationary(replace(fs, s=5.0))
        b = residual_stationary(replace(fs, s=6.0))
        assert a.quantum_sup > 0.0
        assert b.quantum_sup / a.quantum_sup == pytest.approx(
            math.exp(4.0 - 2.0 * r), rel=1e-9)


class TestEnergies:
    def test_zero_perturbation(self):
        cfg = EnergyConfig()
        grid = RadialGrid.uniform(513, 30.0)
        weights = build_weights(grid, cfg)
        z = np.zeros_like(grid.R)
        assert energy_low(z, z, grid, cfg, weights) == 0.0

    def test_polynomial_low_energy_on_plateau(self):
        # S~ = c R^3 on [0, R0] where beta = 1: grad^3 S~ = 6c exactly
        # (the stencil is exact on cubics), so
        # E_low = (1/2)(6c)^2 R0^8/8
        cfg = EnergyConfig()
        grid = RadialGrid.uniform(2001, cfg.R0)
        weights = build_weights(grid, cfg)
        R = grid.R
        c = 0.37
        expected = 0.5 * (6.0 * c) ** 2 * cfg.R0 ** 8 / 8.0
        got = energy_low(np.zeros_like(R), c * R ** 3, grid, cfg, weights)
        assert got == pytest.approx(expected, rel=1e-2)

    def test_low_energy_quadratic_scaling(self):
        cfg = EnergyConfig()
        grid = RadialGrid.uniform(513, 50.0)
        weights = build_weights(grid, cfg)
        R = grid.R
        rng = np.random.default_rng(3)
        U = np.cos(R) * np.exp(-0.1 * R) + 0.01 * rng.standard_normal(len(R))
        S = np.sin(0.5 * R)
        e1 = energy_low(U, S, grid, cfg, weights)
        e3 = energy_low(3.0 * U, 3.0 * S, grid, cfg, weights)
        assert e3 == pytest.approx(9.0 * e1, rel=1e-12)

    def test_under_resolved_grid(self):
        cfg = EnergyConfig()
        grid = RadialGrid.uniform(5, 1.0)
        weights = build_weights(grid, cfg)
        R = grid.R
        with pytest.raises(ResolutionError):
            energy_low(R, R, grid, cfg, weights)

    def test_energy_w_vacuum_and_value(self):
        cfg = EnergyConfig()
        grid = RadialGrid.uniform(2001, cfg.R0)
        weights = build_weights(grid, cfg)
        R = grid.R
        with pytest.raises(VacuumError):
            energy_w(np.full_like(R, -np.inf), grid, cfg, weights)
        # w = R^2 on the plateau: grad^{m'-1} w = 2, E_w = 4 R0^8/8
        got = energy_w(R ** 2, grid, cfg, weights)
        assert got == pytest.approx(4.0 * cfg.R0 ** 8 / 8.0, rel=1e-2)

    def test_high_energy_zero_and_polynomial(self):
        # P == 1 (w = 0), Psi polynomial of degree k - l: only the Psi
        # term survives and grad^{k-l} Psi is the constant leading
        # coefficient times (k-l)!  The grid is deliberately coarse: the
        # k-th derivative amplifies roundoff by eps/h^k
        cfg = EnergyConfig()
        params = ProfileParams(r=2.01)
        L = 10.0
        grid = RadialGrid.uniform(101, L)
        weights = build_weights(grid, cfg)
        R = grid.R
        n = cfg.k - cfg.l
        c = 1e-4
        S_flat = np.full_like(R, params.r ** (1.0 - params.alpha)
                              / math.sqrt(params.alpha))   # P = 1
        zero_state = FieldSet.from_Psi_S(params, grid, 1e4, np.zeros_like(R),
                                         np.zeros_like(R))
        assert energy_high(zero_state, cfg, weights) == 0.0
        state = FieldSet.from_Psi_S(params, grid, 1e4, c * R ** n, S_flat)
        lead = c * math.factorial(n)
        expected = lead ** 2 * L ** 8 / 8.0
        assert energy_high(state, cfg, weights) == pytest.approx(expected,
                                                                 rel=1e-2)

    def test_high_energy_quadratic_in_psi(self):
        # scaling Psi with S (hence P) fixed scales the Psi term by c^2
        cfg = EnergyConfig()
        params = ProfileParams(r=2.01)
        grid = RadialGrid.uniform(513, 10.0)
        weights = build_weights(grid, cfg)
        R = grid.R
        S = 1.0 + 0.3 * np.exp(-0.5 * R ** 2)
        Psi = 0.1 * np.exp(-0.25 * R ** 2)
        e0 = energy_high(FieldSet.from_Psi_S(params, grid, 1e4,
                                             np.zeros_like(R), S),
                         cfg, weights)
        e1 = energy_high(FieldSet.from_Psi_S(params, grid, 1e4, Psi, S),
                         cfg, weights)
        e2 = energy_high(FieldSet.from_Psi_S(params, grid, 1e4, 2.0 * Psi, S),
                         cfg, weights)
        assert e2 - e0 == pytest.approx(4.0 * (e1 - e0), rel=1e-9)

    def test_threshold_ladder_short_run(self):
        # initialized within E_l0 / 2, a short run stays below E_l0
        cfg = EnergyConfig()
        params = ProfileParams(r=2.01)
        grid = RadialGrid.uniform(513, 10.0)
        weights = build_weights(grid, cfg)
        R = grid.R
        S = 0.05 * (1.0 + np.exp(-0.5 * R ** 2))
        Psi = 0.02 * np.exp(-0.25 * R ** 2)
        state = FieldSet.from_Psi_S(params, grid, 1e4, Psi, S)
        e0 = energy_high(state, cfg, weights)
        assert e0 <= cfg.E_l0[cfg.l] / 2.0
        ds = 0.5 * state.grid.h / float(np.max(R + 2.0 * state.U))
        for _ in range(50):
            state = step(state, ds)
            assert energy_high(state, cfg, weights) <= cfg.E_l0[cfg.l]


@pytest.fixture(scope="module")
def small_report(profile_r201):
    return simulate(profile_r201, s_span=0.5, n=512, n_samples=6)


class TestSimulate:
    def test_entries_nonnegative(self, small_report):
        rep = small_report
        for series in (rep.E_low, rep.E_w, rep.E_high,
                       rep.boundary_flux, rep.drift_Linf_S):
            assert all(v >= 0.0 for v in series)
        assert len(rep.s) == 6

    def test_perturbation_controlled(self, small_report):
        rep = small_report
        assert rep.max_rel_Stilde <= 2.0 * rep.config.delta_low
        # the outflow-supported perturbation advects out: its low energy
        # never rises above the initial value
        assert max(rep.E_low) == rep.E_low[0]

    def test_drift_at_residual_floor(self, small_report):
        rep = small_report
        floor = max(rep.sup_residual_S)
        assert rep.drift_Linf_S[-1] <= 10.0 * 0.5 * floor

    def test_csv_and_manifest(self, small_report):
        rep = small_report
        lines = rep.to_csv().strip().split("\n")
        assert lines[0].startswith("s,E_low,E_w")
        assert len(lines) == 1 + len(rep.s)
        man = rep.payload()
        assert man["input_hash"] == rep.input_hash
        assert man["orders"]["m_prime"] == rep.config.m_prime

    def test_input_hash_deterministic(self, profile_r201, small_report):
        again = simulate(profile_r201, s_span=0.5, n=512, n_samples=6)
        assert again.input_hash == small_report.input_hash
        assert again.E_low == small_report.E_low

    def test_stepper_record(self, small_report):
        # the manifest carries the step count, ds, the smallest CFL
        # headroom of the steps taken and the grid
        man = small_report.payload()
        assert {"n_steps", "ds", "cfl_headroom", "grid"} <= set(man)
        assert man["n_steps"] * man["ds"] == pytest.approx(0.5, rel=1e-12)
        assert man["cfl_headroom"] >= 1.0
        grid = man["grid"]
        assert set(grid) == {"kind", "n", "R_max", "c", "dR_min", "dR_max"}
        assert grid["kind"] == "sinh" and grid["c"] == dl.SIMULATE_GRID_C
        assert grid["n"] == 512 and grid["R_max"] == 30.0
        assert 0.0 < grid["dR_min"] < grid["dR_max"]

    @pytest.mark.parametrize("s_span, n_samples, n_steps", [
        (0.1, 1, 13), (0.1, 0, 13), (0.002, 11, 1), (0.1, 15, 13)])
    def test_sample_count_out_of_range_refused(self, profile_r201,
                                               monkeypatch, s_span,
                                               n_samples, n_steps):
        # the samples are distinct steps with both ends among them, so at
        # least 2 and at most n_steps + 1; refused before the first step
        steps = []
        monkeypatch.setattr(dl, "_advance", lambda *a: steps.append(a))
        with pytest.raises(DomainError, match=(
                f"n_samples = {n_samples} .*n_steps = {n_steps}:")):
            simulate(profile_r201, s_span=s_span, n=256, n_samples=n_samples)
        assert steps == []

    @pytest.mark.parametrize("s_span, ds, name", [
        (math.inf, None, "s_span = inf"), (math.nan, None, "s_span = nan"),
        (-1.0, None, "s_span = -1.0"), (0.0, None, "s_span = 0.0"),
        (0.1, 0.0, "ds = 0.0"), (0.1, math.nan, "ds = nan"),
        (0.1, math.inf, "ds = inf"), (0.1, -0.01, "ds = -0.01")])
    def test_span_and_step_must_be_finite_and_positive(
            self, profile_r201, monkeypatch, s_span, ds, name):
        # one rule for both, refused before the profile is sampled
        sampled = []
        monkeypatch.setattr(dl, "profile_fieldset",
                            lambda *a: sampled.append(a))
        with pytest.raises(DomainError,
                           match=f"^{name}; need finite and > 0$"):
            simulate(profile_r201, s_span=s_span, n=256, ds=ds)
        assert sampled == []

    @pytest.mark.parametrize("s_span, n_samples", [(0.002, 2), (0.1, 14)])
    def test_every_sample_taken(self, profile_r201, s_span, n_samples):
        rep = simulate(profile_r201, s_span=s_span, n=256,
                       n_samples=n_samples)
        assert rep.n_steps == n_samples - 1
        assert len(rep.s) == n_samples
        assert rep.s[-1] == pytest.approx(rep.config.s0 + s_span, abs=1e-9)


def test_mapped_default_short_span_convergence(profile_r201, monkeypatch):
    # over s_span = 0.05 the default stretched grid must be at least as
    # close to the uniform n = 8192 run as the uniform n = 4096 run is, on
    # the columns that converge with the grid: the reference drift, both
    # residual sups and max_rel_Stilde.  (The Linf maxima hop with where
    # nodes fall on the bump; CHANGES.md holds the full comparison.)
    kwargs = dict(s_span=0.05, n_samples=3)
    finals = []
    advance = dl._advance

    def recording(*args):
        out = advance(*args)
        finals[:] = [args[1], out[0]]
        return out

    monkeypatch.setattr(dl, "_advance", recording)
    mapped = simulate(profile_r201, **kwargs)
    grid, X = finals
    monkeypatch.setattr(dl, "SIMULATE_GRID_C", None)
    coarse = simulate(profile_r201, n=4096, **kwargs)
    fine = simulate(profile_r201, n=8192, **kwargs)
    assert grid.kind == "sinh" and mapped.grid["n"] == 2048
    for col in ("drift_Linf_S", "sup_residual_Psi", "sup_residual_S"):
        ours = np.abs(np.subtract(getattr(mapped, col), getattr(fine, col)))
        today = np.abs(np.subtract(getattr(coarse, col), getattr(fine, col)))
        assert np.all(ours <= today), col
    assert (abs(mapped.max_rel_Stilde - fine.max_rel_Stilde)
            <= abs(coarse.max_rel_Stilde - fine.max_rel_Stilde))
    # the reference run's drift peaks in the sonic band, not at R = 0
    base = profile_fieldset(profile_r201, grid, mapped.config.s0)
    drift = np.abs(X[1, 1] - base.S)
    assert np.max(drift) == mapped.drift_Linf_S[-1]
    assert 1.0 <= grid.R[np.argmax(drift)] <= 2.0


def _reference_probe_values(table, m=2, J=2000.0, C0=2.0, K=8, trials=200,
                            seed=0, n=1025, n_modes=16):
    """The probe before its form was assembled: the linearization applied
    to each trial's normalised pair on its own.  Returns each trial's
    (lhs, X-norm^2), NaN for a trial with a zero norm."""
    derivative = dl.derivative

    def _quad(f, R, d):
        return float(np.trapezoid(f * R ** (d - 1), R))

    r = table.params.r
    alpha = table.params.alpha
    d = table.params.d
    grid = RadialGrid.uniform(n, 3.0 * C0, d)
    R, h = grid.R, grid.h
    base = profile_fieldset(table, grid, 20.0)
    S_p = base.S
    dPsi_p = _even_d1(base.Psi, h)
    dS_p = _even_d1(S_p, h)
    lapPsi_p = radial_laplacian(base.Psi, grid)

    chi1 = _smooth_step((1.4 * C0 - R) / (0.2 * C0))
    chi2 = _smooth_step((1.8 * C0 - R) / (0.2 * C0))
    env = cutoff("hat", R / (3.0 * C0))
    modes = np.arange(K + 1, K + 1 + n_modes)
    basis = np.cos(np.outer(modes, np.pi * R / (3.0 * C0)))

    rng = np.random.default_rng(seed)
    values = np.full((trials, 2), np.nan)
    for i in range(trials):
        Psi_t = env * (rng.standard_normal(n_modes) @ basis)
        S_t = env * (rng.standard_normal(n_modes) @ basis)
        nP = np.sqrt(_quad(derivative(Psi_t, h, m + 1, even=True) ** 2, R, d))
        nS = np.sqrt(_quad(derivative(S_t, h, m, even=True) ** 2, R, d))
        if nP == 0.0 or nS == 0.0:
            continue
        Psi_t, S_t = Psi_t / nP, S_t / nS
        dPsi_t = _even_d1(Psi_t, h)
        dS_t = _even_d1(S_t, h)
        lapPsi_t = radial_laplacian(Psi_t, grid)
        L_psi = (-(r - 2.0) * Psi_t - R * dPsi_t - 2.0 * dPsi_p * dPsi_t
                 - 2.0 * alpha * S_p * S_t)
        L_s = (-(r - 1.0) * S_t - R * dS_t - 2.0 * dS_p * dPsi_t
               - 2.0 * dS_t * dPsi_p - 2.0 * alpha * S_p * lapPsi_t
               - 2.0 * alpha * S_t * lapPsi_p)
        L_psi_t = chi2 * L_psi - J * (1.0 - chi1) * Psi_t
        L_s_t = chi2 * L_s - J * (1.0 - chi1) * S_t
        gPsi = derivative(Psi_t, h, m, even=True)
        gS = derivative(S_t, h, m, even=True)
        lhs = (_quad(derivative(L_psi_t, h, m, even=True) * gPsi, R, d)
               + _quad(derivative(L_s_t, h, m, even=True) * gS, R, d))
        xnorm2 = (_quad(derivative(Psi_t, h, m + 1, even=True) ** 2, R, d)
                  + _quad(gS ** 2, R, d)
                  + _quad(Psi_t ** 2, R, d) + _quad(S_t ** 2, R, d))
        values[i] = lhs, xnorm2
    return values


#: the probe's defaults, then the settings the tests compare against the
#: reference loop: undamped, criterion 10, and a smaller off-default form
PROBE_DEFAULTS = dict(m=2, J=2000.0, C0=2.0, K=8, n=1025, n_modes=16)
PROBE_SETTINGS = {"default": {}, "undamped": dict(J=0.0, K=0),
                  "criterion_10": dict(m=2, C0=2.0),
                  "off_default": dict(m=3, C0=1.5, K=4, n=513, n_modes=8)}


class TestDissipativityProbe:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("setting", sorted(PROBE_SETTINGS))
    def test_form_matches_reference_loop(self, profile_r201, setting, seed):
        kw = PROBE_DEFAULTS | PROBE_SETTINGS[setting]
        ref = _reference_probe_values(profile_r201, seed=seed, **kw)
        form = dl._dissipativity_form(profile_r201, **kw)
        coeffs = np.random.default_rng(seed).standard_normal(
            (200, 2, kw["n_modes"]))
        margins = dl._trial_margins(form, coeffs)
        expected = ref[:, 0] + ref[:, 1]
        assert np.all(np.abs(margins - expected) <= 1e-10 * np.abs(expected))
        ref_fraction = np.count_nonzero(ref[:, 0] <= -ref[:, 1]) / 200
        assert dissipativity_probe(profile_r201, seed=seed,
                                   **PROBE_SETTINGS[setting]
                                   ) == ref_fraction

    @pytest.mark.parametrize("setting", sorted(PROBE_SETTINGS))
    def test_form_is_the_fresh_array_composition(self, profile_r201,
                                                 setting):
        # the forms from the kept arrays have the bits of the same
        # arithmetic in fresh arrays, on the first call at a setting's
        # grid and on the next
        kw = PROBE_DEFAULTS | PROBE_SETTINGS[setting]
        want = oracles.dissipativity_form(profile_r201, **kw)
        for _ in range(2):
            got = dl._dissipativity_form(profile_r201, **kw)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g.view(np.uint64),
                                              w.view(np.uint64))

    @pytest.mark.parametrize("setting", ["default", "undamped"])
    def test_form_symmetric_grams_positive_definite(self, profile_r201,
                                                    setting):
        form = dl._dissipativity_form(
            profile_r201, **(PROBE_DEFAULTS | PROBE_SETTINGS[setting]))
        assert form.Q.shape == (32, 32)
        np.testing.assert_array_equal(form.Q, form.Q.T)
        for G in (form.G_Psi, form.G_S):
            assert G.shape == (16, 16)
            np.testing.assert_array_equal(G, G.T)
            assert np.linalg.eigvalsh(G)[0] > 0.0

    def test_zero_norm_trial_fails(self, profile_r201):
        form = dl._dissipativity_form(profile_r201, **PROBE_DEFAULTS)
        coeffs = np.random.default_rng(0).standard_normal((3, 2, 16))
        coeffs[1, 0] = 0.0
        margins = dl._trial_margins(form, coeffs)
        assert margins[1] == np.inf
        assert np.all(margins[[0, 2]] < 0.0)

    def test_derivative_calls_do_not_scale_with_trials(self, profile_r201,
                                                       monkeypatch):
        import nls_implosion.selfsimilar_fields as fields
        derivative, calls = dl.derivative, []

        def counted(*args, **kwargs):
            calls.append(args)
            return derivative(*args, **kwargs)

        for module in (dl, fields):
            monkeypatch.setattr(module, "derivative", counted)
        counts = []
        for trials in (10, 200):
            calls.clear()
            dissipativity_probe(profile_r201, trials=trials)
            counts.append(len(calls))
        assert counts[0] == counts[1] < 10

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_refused_before_any_work(self, profile_r201,
                                               monkeypatch, trials):
        def no_work(*args):
            raise AssertionError("the probe built its grid")

        monkeypatch.setattr(dl, "profile_fieldset", no_work)
        with pytest.raises(DomainError,
                           match=f"trials = {trials}; need >= 1"):
            dissipativity_probe(profile_r201, trials=trials)

    @pytest.mark.parametrize("n_modes", [0, -1])
    def test_no_modes_refused_before_the_store(self, profile_r201, n_modes):
        # refused by name before the one-slot store is touched, so the
        # default probe's kept grid and arrays survive the refused call
        dissipativity_probe(profile_r201, trials=5)
        store = dl._probe_workspace
        kept = store(1025, 2.0, profile_r201.params.d, 16)
        with pytest.raises(DomainError,
                           match=f"n_modes = {n_modes}; need >= 1"):
            dissipativity_probe(profile_r201, trials=5, n_modes=n_modes)
        hits = store.cache_info().hits
        assert store(1025, 2.0, profile_r201.params.d, 16) is kept
        assert store.cache_info().hits == hits + 1

    def test_defaults_pass_fraction(self, profile_r201):
        frac = dissipativity_probe(profile_r201, trials=100)
        assert frac >= 0.95

    def test_no_damping_no_cut_fails_honestly(self, profile_r201):
        frac = dissipativity_probe(profile_r201, J=0.0, K=0, trials=50)
        assert frac < 0.5

    def test_deterministic_in_seed(self, profile_r201):
        a = dissipativity_probe(profile_r201, trials=30, seed=7)
        b = dissipativity_probe(profile_r201, trials=30, seed=7)
        assert a == b


class TestBlowupRate:
    def test_formula_zero_at_critical_index(self):
        params = ProfileParams(r=2.01)
        s_c = critical_sobolev_index(params)
        assert exponent_formula(s_c, params) == pytest.approx(0.0, abs=1e-12)
        assert s_c == pytest.approx(
            params.d / (2.0 * (params.r - 1.0)) - 2.0 / (params.p - 1.0))

    def test_supercritical_exponent_negative(self):
        params = ProfileParams(r=2.01)
        assert exponent_formula(4.0, params) < 0.0

    def test_fit_matches_formula(self, profile_r201):
        fitted = blowup_exponent(profile_r201, 4, n_grid=257)
        formula = exponent_formula(4.0, profile_r201.params)
        assert abs(fitted - formula) <= 0.05 * abs(formula)

    def test_subcritical_rejected(self, profile_r201):
        with pytest.raises(DomainError):
            blowup_exponent(profile_r201, 2)

    def test_non_integer_rejected(self, profile_r201):
        with pytest.raises(DomainError):
            blowup_exponent(profile_r201, 3.5)


def _frame_gap(state0, T, ds, quantum, quantum_factor):
    """Relative gap between one frame step and an Euler physical update.

    Maps both snapshots to physical variables and compares the later one
    (splined onto the earlier grid) against psi0 + dt * rhs; the physical
    quantum-pressure term is scaled by `quantum_factor` before use.
    """
    params = state0.params
    t0 = T - math.exp(-params.r * state0.s)
    psi0, rho0, x0 = from_selfsimilar(state0, T, t0)
    xgrid = RadialGrid.uniform(len(x0), x0[-1], params.d)
    dt_psi, dt_rho = nls_rhs_polar(rho0, psi0, xgrid, p=params.p)
    drho = _even_d1(rho0, xgrid.h)
    q_phys = (radial_laplacian(rho0, xgrid) / (2.0 * rho0)
              - drho * drho / (4.0 * rho0 * rho0))
    dt_psi = dt_psi - q_phys + quantum_factor * q_phys

    state1 = step(state0, ds, quantum_pressure=quantum)
    t1 = T - math.exp(-params.r * state1.s)
    psi1, rho1, x1 = from_selfsimilar(state1, T, t1)
    dt = t1 - t0
    keep = slice(4, len(x0) - 21)   # inside both grids, away from edges
    xs = x0[keep]
    psi1_at = make_interp_spline(x1, psi1, k=5)(xs)
    rho1_at = make_interp_spline(x1, rho1, k=5)(xs)
    e_psi = np.max(np.abs(psi1_at - (psi0 + dt * dt_psi)[keep]))
    e_rho = np.max(np.abs(rho1_at - (rho0 + dt * dt_rho)[keep]))
    scale = dt * max(np.max(np.abs(dt_psi[keep])),
                     np.max(np.abs(dt_rho[keep])))
    return max(e_psi, e_rho) / scale


class TestFrameConsistency:
    @staticmethod
    def _state():
        params = ProfileParams(r=2.01)
        grid = RadialGrid.uniform(301, 6.0)
        R = grid.R
        Psi = 0.2 * np.exp(-R * R / 4.0)
        S = 0.6 + 0.2 * np.exp(-R * R / 3.0)
        return FieldSet.from_Psi_S(params, grid, 1.0, Psi, S)

    def test_step_matches_physical_evolution(self):
        # with quantum pressure off on both sides the frame step and the
        # mapped physical evolution agree to the time-discretization
        # error; halving ds must shrink the gap
        state0 = self._state()
        g1 = _frame_gap(state0, 1.0, 2e-4, quantum=False, quantum_factor=0.0)
        g2 = _frame_gap(state0, 1.0, 1e-4, quantum=False, quantum_factor=0.0)
        assert g1 < 0.05
        assert g2 < g1

    def test_quantum_coefficient_convention(self):
        # the e^{(4-2r)s} coefficient is kept exactly as the implemented
        # system states it; composing with the frame map shows it sits a
        # factor r^2 below the lab-frame quantum term, so the physical
        # comparison closes only after scaling that term by 1/r^2 (the
        # term itself is dead at the default s0, where the coefficient
        # is ~ e^{-200})
        state0 = self._state()
        r2 = state0.params.r ** 2
        # at s = 1 the quantum stiffness bound ~ h^2/(2d) binds the step
        matched = _frame_gap(state0, 1.0, 1e-5, quantum=True,
                             quantum_factor=1.0 / r2)
        verbatim = _frame_gap(state0, 1.0, 1e-5, quantum=True,
                              quantum_factor=1.0)
        assert matched < 0.05
        assert verbatim > 10.0 * matched
