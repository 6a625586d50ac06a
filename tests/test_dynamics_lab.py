"""Tests for the radial evolution, energies, probe and rate diagnostic.

Closed-form targets (polynomial energies, the exponent formula, quadratic
scaling) are checked exactly or at quadrature accuracy; dynamical bounds
(profile drift, perturbation control) are calibrated from the measured
stationarity residual of the interpolated profile, since at 4096-node
desk resolution the corner region is only a few grid cells wide.
"""

import json
import math

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
from nls_implosion.profile_solver import solve_profile
from nls_implosion.selfsimilar_fields import (
    FieldSet,
    _even_d1,
    from_selfsimilar,
    nls_rhs_polar,
    radial_laplacian,
)


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

    def test_frozen(self):
        cfg = EnergyConfig()
        with pytest.raises(Exception):
            cfg.k = 7


class TestWeights:
    def test_plateau_exact_and_monotone(self):
        cfg = EnergyConfig()
        R = np.linspace(0.0, 8.0 * cfg.R0, 4001)
        w = build_weights(R, cfg)
        plateau = R <= cfg.R0
        assert np.all(w.beta[plateau] == 1.0)
        assert np.all(w.phi[plateau] == 1.0)
        assert np.all(np.diff(w.beta) >= 0.0)
        assert np.all(np.diff(w.phi) >= 0.0)

    def test_gradient_contract(self):
        cfg = EnergyConfig()
        R = np.linspace(0.0, 8.0 * cfg.R0, 4001)
        w = build_weights(R, cfg)
        assert w.max_grad_ratio_phi <= 2.0

    def test_tail_powers(self):
        # from 4 R0 on the weights follow the stated powers, so doubling
        # the radius multiplies them by 2^q
        cfg = EnergyConfig()
        R = np.array([0.0, 4.0 * cfg.R0, 8.0 * cfg.R0])
        w = build_weights(R, cfg)
        assert w.phi[2] / w.phi[1] == pytest.approx(2.0 ** 2, rel=1e-10)
        assert w.beta[2] / w.beta[1] == pytest.approx(2.0 ** 0.1, rel=1e-10)


class TestProfileFieldset:
    def test_requires_physical_columns(self, params_r201):
        raw = solve_profile(params_r201, n_points=256)
        with pytest.raises(DomainError):
            profile_fieldset(raw, np.linspace(0.0, 4.0, 65), 1e4)

    def test_coverage_guard(self, profile_r201):
        beyond = 2.0 * profile_r201.R[-1]
        with pytest.raises(RangeError):
            profile_fieldset(profile_r201, np.linspace(0.0, beyond, 65), 1e4)

    def test_center_regularity(self, profile_r201):
        R = np.linspace(0.0, 4.0, 2049)
        fs = profile_fieldset(profile_r201, R, 1e4)
        assert np.all(fs.S > 0.0)
        # even fields: first derivative vanishes at the center
        assert abs(fs.S[1] - fs.S[0]) < 1e-5 * fs.S[0]

    def test_consistent_gradients_residual(self, profile_r201):
        R = np.linspace(0.0, 30.0, 4096)
        fs, grads = profile_fieldset(profile_r201, R, 1e4,
                                     with_gradients=True)
        res = residual_stationary(fs, gradients=grads)
        assert np.max(np.abs(res.Psi)) < 1e-6
        assert np.max(np.abs(res.P)) < 1e-6


class TestStep:
    def test_zero_data_fixed_point(self):
        params = ProfileParams(r=2.01)
        R = np.linspace(0.0, 10.0, 257)
        zero = np.zeros_like(R)
        state = FieldSet.from_Psi_S(params, R, 1e4, zero, zero)
        out = step(state, 1e-4)
        assert np.all(out.Psi == 0.0)
        assert np.all(out.S == 0.0)
        assert out.s == pytest.approx(1e4 + 1e-4)

    def test_cfl_guard(self):
        params = ProfileParams(r=2.01)
        R = np.linspace(0.0, 10.0, 257)
        state = FieldSet.from_Psi_S(params, R, 1e4, np.zeros_like(R),
                                    np.exp(-R * R))
        with pytest.raises(CFLError):
            step(state, 1.0)

    def test_positivity_abort(self):
        # a vacuum band against a rising ramp: at band nodes the density
        # equation reduces to -R dS < 0 and the step must flag the sign
        params = ProfileParams(r=2.01)
        R = np.linspace(0.0, 10.0, 257)
        S = np.maximum(0.0, R - 5.0)
        state = FieldSet.from_Psi_S(params, R, 1e4, np.zeros_like(R), S)
        with pytest.raises(PositivityError):
            step(state, 1e-3)

    def test_profile_drift_within_residual_bound(self, profile_r201):
        # the interpolated profile is stationary up to its discrete
        # residual; over one frame-time unit the accumulated drift stays
        # within 10x residual x e^2 (measured local growth is ~ e^1.6)
        R = np.linspace(0.0, 30.0, 1025)
        fs = profile_fieldset(profile_r201, R, 1e4)
        res0 = residual_stationary(fs, acc=4)
        floor = max(np.max(np.abs(res0.Psi)), np.max(np.abs(res0.P)))
        ds = 0.8 * fs.h / float(np.max(R + 2.0 * fs.U))
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
        R = np.linspace(0.0, 5.0, 129)
        zero = np.zeros_like(R)
        state = FieldSet.from_Psi_S(params, R, 1e4, zero, zero)
        res = residual_stationary(state)
        assert np.all(res.Psi == 0.0)
        assert np.all(res.P == 0.0)
        assert res.quantum_sup == 0.0

    def test_quantum_term_reported_and_scales(self, profile_r201):
        R = np.linspace(0.0, 10.0, 1025)
        fs = profile_fieldset(profile_r201, R, 1e4)
        r = fs.params.r
        a = residual_stationary(fs, s=5.0)
        b = residual_stationary(fs, s=6.0)
        assert a.quantum_sup > 0.0
        assert b.quantum_sup / a.quantum_sup == pytest.approx(
            math.exp(4.0 - 2.0 * r), rel=1e-9)

    def test_include_quantum_shifts_psi_residual(self, profile_r201):
        R = np.linspace(0.0, 10.0, 1025)
        fs = profile_fieldset(profile_r201, R, 1e4)
        base = residual_stationary(fs, s=5.0)
        with_q = residual_stationary(fs, s=5.0, include_quantum=True)
        shift = np.max(np.abs(with_q.Psi - base.Psi))
        assert 0.0 < shift <= with_q.quantum_sup * (1.0 + 1e-12)
        assert np.array_equal(with_q.P, base.P)


class TestEnergies:
    def test_zero_perturbation(self):
        cfg = EnergyConfig()
        R = np.linspace(0.0, 30.0, 513)
        z = np.zeros_like(R)
        assert energy_low(z, z, R, cfg) == 0.0

    def test_polynomial_low_energy_on_plateau(self):
        # S~ = c R^3 on [0, R0] where beta = 1: grad^3 S~ = 6c exactly
        # (the stencil is exact on cubics), so
        # E_low = (1/2)(6c)^2 R0^8/8
        cfg = EnergyConfig()
        R = np.linspace(0.0, cfg.R0, 2001)
        c = 0.37
        expected = 0.5 * (6.0 * c) ** 2 * cfg.R0 ** 8 / 8.0
        got = energy_low(np.zeros_like(R), c * R ** 3, R, cfg)
        assert got == pytest.approx(expected, rel=1e-2)

    def test_low_energy_quadratic_scaling(self):
        cfg = EnergyConfig()
        R = np.linspace(0.0, 50.0, 513)
        rng = np.random.default_rng(3)
        U = np.cos(R) * np.exp(-0.1 * R) + 0.01 * rng.standard_normal(len(R))
        S = np.sin(0.5 * R)
        e1 = energy_low(U, S, R, cfg)
        e3 = energy_low(3.0 * U, 3.0 * S, R, cfg)
        assert e3 == pytest.approx(9.0 * e1, rel=1e-12)

    def test_under_resolved_grid(self):
        cfg = EnergyConfig()
        R = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ResolutionError):
            energy_low(R, R, R, cfg)

    def test_energy_w_vacuum_and_value(self):
        cfg = EnergyConfig()
        R = np.linspace(0.0, cfg.R0, 2001)
        with pytest.raises(VacuumError):
            energy_w(np.full_like(R, -np.inf), R, cfg)
        # w = R^2 on the plateau: grad^{m'-1} w = 2, E_w = 4 R0^8/8
        got = energy_w(R ** 2, R, cfg)
        assert got == pytest.approx(4.0 * cfg.R0 ** 8 / 8.0, rel=1e-2)

    def test_high_energy_zero_and_polynomial(self):
        # P == 1 (w = 0), Psi polynomial of degree k - l: only the Psi
        # term survives and grad^{k-l} Psi is the constant leading
        # coefficient times (k-l)!  The grid is deliberately coarse: the
        # k-th derivative amplifies roundoff by eps/h^k
        cfg = EnergyConfig()
        params = ProfileParams(r=2.01)
        L = 10.0
        R = np.linspace(0.0, L, 101)
        n = cfg.k - cfg.l
        c = 1e-4
        S_flat = np.full_like(R, params.r ** (1.0 - params.alpha)
                              / math.sqrt(params.alpha))   # P = 1
        zero_state = FieldSet.from_Psi_S(params, R, 1e4, np.zeros_like(R),
                                         np.zeros_like(R))
        assert energy_high(zero_state, cfg) == 0.0
        state = FieldSet.from_Psi_S(params, R, 1e4, c * R ** n, S_flat)
        lead = c * math.factorial(n)
        expected = lead ** 2 * L ** 8 / 8.0
        assert energy_high(state, cfg) == pytest.approx(expected, rel=1e-2)

    def test_high_energy_quadratic_in_psi(self):
        # scaling Psi with S (hence P) fixed scales the Psi term by c^2
        cfg = EnergyConfig()
        params = ProfileParams(r=2.01)
        R = np.linspace(0.0, 10.0, 513)
        S = 1.0 + 0.3 * np.exp(-0.5 * R ** 2)
        Psi = 0.1 * np.exp(-0.25 * R ** 2)
        e0 = energy_high(FieldSet.from_Psi_S(params, R, 1e4,
                                             np.zeros_like(R), S), cfg)
        e1 = energy_high(FieldSet.from_Psi_S(params, R, 1e4, Psi, S), cfg)
        e2 = energy_high(FieldSet.from_Psi_S(params, R, 1e4, 2.0 * Psi, S),
                         cfg)
        assert e2 - e0 == pytest.approx(4.0 * (e1 - e0), rel=1e-9)

    def test_threshold_ladder_short_run(self):
        # initialized within E_l0 / 2, a short run stays below E_l0
        cfg = EnergyConfig()
        params = ProfileParams(r=2.01)
        R = np.linspace(0.0, 10.0, 513)
        S = 0.05 * (1.0 + np.exp(-0.5 * R ** 2))
        Psi = 0.02 * np.exp(-0.25 * R ** 2)
        state = FieldSet.from_Psi_S(params, R, 1e4, Psi, S)
        e0 = energy_high(state, cfg)
        assert e0 <= cfg.E_l0[cfg.l] / 2.0
        ds = 0.5 * state.h / float(np.max(R + 2.0 * state.U))
        for _ in range(50):
            state = step(state, ds)
            assert energy_high(state, cfg) <= cfg.E_l0[cfg.l]


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
        man = json.loads(rep.manifest())
        assert man["input_hash"] == rep.input_hash
        assert man["orders"]["m_prime"] == rep.config.m_prime

    def test_input_hash_deterministic(self, profile_r201, small_report):
        again = simulate(profile_r201, s_span=0.5, n=512, n_samples=6)
        assert again.input_hash == small_report.input_hash
        assert again.E_low == small_report.E_low


class TestDissipativityProbe:
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
    hx = float(x0[1] - x0[0])
    dt_psi, dt_rho = nls_rhs_polar(rho0, psi0, x0, hx, p=params.p,
                                   d=params.d)
    drho = _even_d1(rho0, hx)
    q_phys = (radial_laplacian(rho0, x0, hx, d=params.d) / (2.0 * rho0)
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
        R = np.linspace(0.0, 6.0, 301)
        Psi = 0.2 * np.exp(-R * R / 4.0)
        S = 0.6 + 0.2 * np.exp(-R * R / 3.0)
        return FieldSet.from_Psi_S(params, R, 1.0, Psi, S)

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
