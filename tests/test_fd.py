"""Tests for the finite-difference operator, its stencil cache and the
array-level stepper built on it.

Neither the cache, the even-reflection mode, stacking rows along a leading
axis nor the lean stepper may change a single bit: every reference below
rebuilds the Fornberg weights for each row on each call, reflects even
fields by hand, differentiates one row at a time, and steps each run alone
through a validated FieldSet per step, which is what the code did before.
The stepper's references run on simulate's stretched grid and on the
uniform one.
"""

import numpy as np
import pytest

from nls_implosion import _fd, dynamics_lab, selfsimilar_fields
from nls_implosion._fd import derivative, fd_weights
from nls_implosion.dynamics_lab import (EnergyConfig, profile_fieldset,
                                        simulate, step)
from nls_implosion.errors import (
    CFLError,
    DomainError,
    PositivityError,
    ResolutionError,
)
from nls_implosion.selfsimilar_fields import FieldSet, RadialGrid, cutoff


def uncached_derivative(f, h, m, acc=4, even=False):
    if np.ndim(f) > 1:
        # a stack: each row on its own, along the last axis
        return np.array([uncached_derivative(row, h, m, acc, even)
                         for row in f])
    if even:
        # reflect by more nodes than any stencil reaches, then drop them,
        # as the hand-padded even-field copies did
        k = m + acc
        ext = np.concatenate([f[k:0:-1], f])
        return uncached_derivative(ext, h, m, acc)[k:]
    f = np.asarray(f, dtype=float)
    if m == 0:
        return f.copy()
    n = len(f)
    half = (m + acc - 1) // 2 + (1 if (m % 2 == 0) else 0)
    half = max(half, (m + 1) // 2 + acc // 2)
    n_side = m + acc
    out = np.empty(n)
    offsets = np.arange(-half, half + 1, dtype=float)
    out[half:n - half] = np.convolve(f, fd_weights(offsets * h, 0.0, m)[::-1],
                                     mode="valid")
    side = np.arange(n_side, dtype=float)
    for i in range(half):
        out[i] = fd_weights(side * h, i * h, m) @ f[:n_side]
        out[n - 1 - i] = fd_weights(-side[::-1] * h, -i * h, m) @ f[n - n_side:]
    return out


@pytest.mark.parametrize("m, acc", [(1, 4), (1, 14), (2, 4), (3, 4), (6, 8)])
@pytest.mark.parametrize("n, h", [(33, 0.1), (4096, 13.0 / 4095)])
def test_cached_stencils_bit_identical(m, acc, n, h):
    f = np.random.default_rng(m * 100 + acc).standard_normal(n)
    for _ in range(2):   # the second call is served from the cache
        np.testing.assert_array_equal(derivative(f, h, m, acc=acc),
                                      uncached_derivative(f, h, m, acc))


def test_cached_weights_read_only():
    derivative(np.zeros(64), 0.5, 2, acc=4)
    _, _, center, lo, hi = _fd._stencils(0.5, 2, 4)
    for weights in (center, *lo, *hi):
        with pytest.raises(ValueError):
            weights[0] = 1.0


def test_short_grid_rejected():
    with pytest.raises(ResolutionError):
        derivative(np.zeros(10), 0.1, 1, acc=14)
    with pytest.raises(ResolutionError):
        derivative(np.zeros(3), 0.1, 1, even=True)   # 3 + 3 reflected < 7
    # a stack is judged by the length of its last axis
    with pytest.raises(ResolutionError):
        derivative(np.zeros((20, 10)), 0.1, 1, acc=14)
    with pytest.raises(ResolutionError):
        derivative(np.zeros((2, 20, 3)), 0.1, 1, even=True)


@pytest.mark.parametrize("m, acc", [(1, 4), (2, 4), (1, 8), (3, 4), (6, 8),
                                    (1, 14)])
@pytest.mark.parametrize("n", [33, 257, 4096])
@pytest.mark.parametrize("even", [False, True])
@pytest.mark.parametrize("lead", [(3,), (2, 3)])
def test_stacked_rows_match_1d_calls(m, acc, n, even, lead):
    rng = np.random.default_rng(n + 10 * m + acc)
    f = rng.standard_normal(lead + (n,)) * np.exp(rng.standard_normal(n))
    h = 13.0 / (n - 1)
    stacked = derivative(f, h, m, acc=acc, even=even)
    rows = [derivative(row, h, m, acc=acc, even=even)
            for row in f.reshape(-1, n)]
    assert stacked.shape == f.shape
    np.testing.assert_array_equal(stacked.reshape(-1, n), rows)


@pytest.mark.parametrize("even", [False, True])
def test_stacked_non_contiguous_input(even):
    f = np.random.default_rng(7).standard_normal((257, 4)).T   # rows strided
    assert not f.flags.c_contiguous
    stacked = derivative(f, 0.05, 2, acc=4, even=even)
    np.testing.assert_array_equal(
        stacked, [uncached_derivative(row, 0.05, 2, 4, even) for row in f])


def hand_padded(f, h, m, acc, k):
    ext = np.concatenate([f[k:0:-1], f])
    return derivative(ext, h, m, acc=acc)[k:]


# (m, acc, k) of the hand-padded copies: _even_d1/_even_d2, the residual's
# first derivative at acc = 8, the probe's orders 2 and 3, the blow-up fit
@pytest.mark.parametrize("m, acc, k", [(1, 4, 3), (2, 4, 3), (1, 8, 5),
                                       (2, 4, 6), (3, 4, 7), (4, 4, 8),
                                       (6, 4, 10)])
@pytest.mark.parametrize("n", [257, 513, 1025, 4096])
def test_even_reflection_matches_hand_padding(m, acc, k, n):
    R = np.linspace(0.0, 7.0, n)
    rng = np.random.default_rng(n)
    f = np.exp(-R) * np.cos(3.0 * R) + rng.standard_normal(n)
    h = R[1] - R[0]
    np.testing.assert_array_equal(derivative(f, h, m, acc=acc, even=True),
                                  hand_padded(f, h, m, acc, k))


def test_energy_report_identical_without_cache(profile_r201, monkeypatch):
    cached = simulate(profile_r201, s_span=0.1, n=256, n_samples=3)
    shapes = []

    def counting(f, *args, **kwargs):
        shapes.append(np.shape(f))
        return uncached_derivative(f, *args, **kwargs)

    # the stepper and the samples differentiate through the grid, which
    # looks the operator up in selfsimilar_fields; the probe and the
    # blow-up fit also call dynamics_lab's
    for module in (dynamics_lab, selfsimilar_fields):
        monkeypatch.setattr(module, "derivative", counting)
    uncached = simulate(profile_r201, s_span=0.1, n=256, n_samples=3)
    assert (2, 2, 256) in shapes   # both runs' (Psi, S) in one call
    assert (2, 256) in shapes      # the two Psi rows' second derivative
    assert cached.to_csv() == uncached.to_csv()
    assert cached.max_rel_Stilde == uncached.max_rel_Stilde
    assert cached.input_hash == uncached.input_hash


def _reference_rhs(Psi, S, grid, params, s, quantum):
    """The right side before it shared dPsi with the Laplacian."""
    r, alpha = params.r, params.alpha
    dPsi = grid.d1(Psi)
    dS = grid.d1(S)
    lapPsi = grid.laplacian(Psi, grid.d1(Psi))
    qp = 0.0
    coef = np.exp((4.0 - 2.0 * r) * s)
    if quantum and coef > dynamics_lab.QP_COEF_FLOOR and np.any(S > 1e-300):
        Sf = np.maximum(S, 1e-300)
        w = np.log(Sf * np.sqrt(alpha) / r ** (1.0 - alpha)) / (2.0 * alpha)
        dw = grid.d1(w)
        qp = coef * (grid.laplacian(w, grid.d1(w)) + dw * dw)
        qp = np.where(S > 1e-300, qp, 0.0)
    rhs_Psi = -(r - 2.0) * Psi - grid.R * dPsi - dPsi * dPsi - alpha * S * S + qp
    rhs_S = (-(r - 1.0) * S - grid.R * dS - 2.0 * dS * dPsi
             - 2.0 * alpha * S * lapPsi)
    return rhs_Psi, rhs_S


def _reference_advance(Psi, S, grid, params, s, ds, quantum, cfl):
    """The stepper before it ran on arrays: a validated FieldSet in and out
    of every step, the CFL bound read off its U.  Returns the new (Psi, S)
    and the step's bound."""
    state = FieldSet.from_Psi_S(params, grid, s, Psi, S)
    amax = float(np.max(grid.speed(state.U)))
    bound = cfl * grid.h / max(amax, 1e-30)
    coef = np.exp((4.0 - 2.0 * params.r) * s)
    if quantum and coef > dynamics_lab.QP_COEF_FLOOR:
        bound = min(bound, cfl * grid.h ** 2 / (2.0 * params.d * coef))
    if ds > bound:
        raise CFLError("reference bound")

    def F(P_, S_, s_):
        return _reference_rhs(P_, S_, grid, params, s_, quantum)

    f1 = F(Psi, S, s)
    P1 = Psi + ds * f1[0]
    S1 = S + ds * f1[1]
    f2 = F(P1, S1, s + ds)
    P2 = 0.75 * Psi + 0.25 * (P1 + ds * f2[0])
    S2 = 0.75 * S + 0.25 * (S1 + ds * f2[1])
    f3 = F(P2, S2, s + 0.5 * ds)
    Pn = Psi / 3.0 + 2.0 / 3.0 * (P2 + ds * f3[0])
    Sn = S / 3.0 + 2.0 / 3.0 * (S2 + ds * f3[1])
    if np.min(Sn) < 0.0 or (np.min(Sn) == 0.0 and np.min(S) > 0.0):
        raise PositivityError("reference positivity")
    out = FieldSet.from_Psi_S(params, grid, s + ds, Pn, Sn)
    return out.Psi, out.S, bound


def _reference_advance_rows(X, grid, params, s, ds, quantum, cfl):
    """The stacked stepper's contract through the reference: each run,
    row by row, stepped alone on 1-D arrays."""
    rows = [_reference_advance(Psi, S, grid, params, s, ds, quantum, cfl)
            for Psi, S in zip(X[0], X[1])]
    return (np.array([[Psi for Psi, _, _ in rows], [S for _, S, _ in rows]]),
            min(bound for _, _, bound in rows))


def _assert_identical_to_fieldset_stepper(table, monkeypatch, quantum):
    kwargs = dict(s_span=0.1, n=256, n_samples=3, quantum_pressure=quantum)
    lean = simulate(table, **kwargs)
    monkeypatch.setattr(dynamics_lab, "_advance", _reference_advance_rows)
    for module in (dynamics_lab, selfsimilar_fields):
        monkeypatch.setattr(module, "derivative", uncached_derivative)
    reference = simulate(table, **kwargs)
    assert lean.to_csv() == reference.to_csv()
    assert lean.max_rel_Stilde == reference.max_rel_Stilde
    assert lean.input_hash == reference.input_hash
    assert lean.cfl_headroom == reference.cfl_headroom


@pytest.mark.parametrize("quantum", [True, False])
def test_energy_report_identical_to_fieldset_stepper(profile_r201,
                                                     monkeypatch, quantum):
    _assert_identical_to_fieldset_stepper(profile_r201, monkeypatch, quantum)


@pytest.mark.parametrize("quantum", [True, False])
def test_energy_report_identical_to_fieldset_stepper_uniform(profile_r201,
                                                             monkeypatch,
                                                             quantum):
    monkeypatch.setattr(dynamics_lab, "SIMULATE_GRID_C", None)
    _assert_identical_to_fieldset_stepper(profile_r201, monkeypatch, quantum)


@pytest.mark.parametrize("kind", ["uniform", "sinh"])
def test_quantum_step_identical_to_fieldset_stepper(profile_r201, kind):
    # at s = 1 the prefactor e^{(4-2r)s} is about 1, so the quantum term
    # is live (at simulate's s0 it sits below QP_COEF_FLOOR)
    grid = (RadialGrid.uniform(256, 30.0) if kind ==
            "uniform" else RadialGrid.sinh(256, 30.0, 4.0))
    params = profile_r201.params
    state = profile_fieldset(profile_r201, grid, 1.0)
    assert np.exp((4.0 - 2.0 * params.r)) > dynamics_lab.QP_COEF_FLOOR
    out = step(state, 1e-5, quantum_pressure=True)
    Psi, S, _ = _reference_advance(state.Psi, state.S, grid, params, 1.0,
                                   1e-5, True, 0.9)
    np.testing.assert_array_equal(out.Psi, Psi)
    np.testing.assert_array_equal(out.S, S)
    assert not np.array_equal(step(state, 1e-5, quantum_pressure=False).Psi,
                              Psi)
    # at this ds a last-bit change of the right side leaves the step's
    # bits alone, so the right side is compared on its own too
    X = np.stack((state.Psi, state.S))[:, None]
    rhs = dynamics_lab._rhs(X, grid.d1(X), grid, params, 1.0, True)
    np.testing.assert_array_equal(
        rhs[:, 0], _reference_rhs(state.Psi, state.S, grid, params, 1.0,
                                  True))


@pytest.mark.parametrize("runs", [1, 2])
def test_advance_result_aliases_nothing(profile_r201, monkeypatch, runs):
    # the stages are formed in place; the step must leave its input alone
    # and hand back memory of its own, not X, not the last step's result
    # and not an array _rhs returned
    grid = RadialGrid.sinh(256, 30.0, dynamics_lab.SIMULATE_GRID_C)
    base = profile_fieldset(profile_r201, grid, 1e4)
    bump = np.exp(-(base.R - 8.0) ** 2)
    X = np.array([[base.Psi + 1e-3 * bump, base.Psi][:runs],
                  [base.S, base.S * (1.0 + 1e-3 * bump)][:runs]])
    rhs = dynamics_lab._rhs
    returned = []

    def spy(*args):
        returned.append(rhs(*args))
        return returned[-1]

    monkeypatch.setattr(dynamics_lab, "_rhs", spy)
    ds, results = 1e-3, [X]
    for i in range(2):
        X = results[-1]
        before = X.copy()
        Xn, _ = dynamics_lab._advance(X, grid, profile_r201.params,
                                      1e4 + i * ds, ds, True, 0.9)
        np.testing.assert_array_equal(X, before)
        assert Xn.shape == X.shape
        assert len(returned) == 3 * (i + 1)
        for other in (*results, *returned):
            assert not np.shares_memory(Xn, other)
        results.append(Xn)


def test_nan_density_raises_at_its_step(profile_r201, monkeypatch):
    rhs = dynamics_lab._rhs
    calls = []

    def poisoned(*args):
        calls.append(args)
        out = rhs(*args)
        if len(calls) == 7:      # stage 1 of the third step
            out = out.copy()
            out[1, 0, 100] = np.nan    # S of the perturbed run
        return out

    monkeypatch.setattr(dynamics_lab, "_rhs", poisoned)
    with pytest.raises(DomainError, match="NaN"):
        simulate(profile_r201, s_span=0.1, n=256, n_samples=3)
    assert len(calls) == 9       # that step's three stages, nothing after


def test_last_good_is_state_before_failing_step(profile_r201, monkeypatch):
    advance = dynamics_lab._advance
    inputs = []

    def advance_until_third(X, grid, params, s, ds, quantum, cfl):
        inputs.append((s, X))
        if len(inputs) == 3:     # the third step
            ds = 1e3 * ds        # far beyond the stability bound
        return advance(X, grid, params, s, ds, quantum, cfl)

    monkeypatch.setattr(dynamics_lab, "_advance", advance_until_third)
    with pytest.raises(CFLError) as info:
        simulate(profile_r201, s_span=0.1, n=256, n_samples=3)
    good = info.value.last_good
    s, X = inputs[2]
    assert isinstance(good, FieldSet)
    assert good.grid.kind == "sinh"
    assert good.s == s > inputs[0][0]
    np.testing.assert_array_equal(good.Psi, X[0, 0])   # the perturbed run
    np.testing.assert_array_equal(good.S, X[1, 0])
    np.testing.assert_array_equal(good.U, good.grid.d1(X[0, 0]))
    assert len(info.value.partial_report.s) == 1


# Aborts of one run in a step.  A step fails as a whole: a CFL break is
# refused before its first stage and a lost density is found after every
# row stepped, so last_good is the perturbed run at the failing step's
# start, the last state where both runs, and so the perturbation, are
# valid.  The tests reach the runs through names simulate looks up in
# dynamics_lab (profile_fieldset, profile_operator) rather than through
# the stepper's own signature, so they do not depend on how the stepper
# stacks the runs.  Row 0 is the perturbed run, row 1 the reference.

N_ABORT = 256


def _abort_grid():
    """simulate's grid at n = N_ABORT, R_max = 30."""
    return RadialGrid.sinh(N_ABORT, 30.0, dynamics_lab.SIMULATE_GRID_C)


def _perturbed_start(table, cfg, base):
    """The perturbed run's initial state, built as simulate builds it."""
    R = base.R
    bump = cutoff("tilde", R / R[-1]) * cutoff("hat", R / (1.2 * R[-1]))
    return FieldSet.from_Psi_S(table.params, base.grid, cfg.s0,
                               base.Psi + cfg.delta_low * bump,
                               base.S * (1.0 + cfg.delta_low * bump))


def _assert_last_good_is_perturbed_start(err, start):
    good = err.last_good
    assert good.s == start.s
    np.testing.assert_array_equal(good.Psi, start.Psi)
    np.testing.assert_array_equal(good.S, start.S)
    assert err.partial_report.s == [start.s]


def _steep(table, grid, s, height=30.0):
    """The profile's fields with a steep phase ramp of the given height
    inside the bump's falling flank, where the bump lowers U.  At height
    30 the x-speed |y+2U|/R' of a reference run started on them exceeds
    the perturbed run's; at height -100 R + 2U is negative on the ramp, so
    the perturbed run's speed exceeds the reference's."""
    base = profile_fieldset(table, grid, s)
    ramp = np.clip((base.R / base.R[-1] - 0.65) / 0.1, 0.0, 1.0)
    return FieldSet.from_Psi_S(base.params, base.grid, s,
                               base.Psi + height * ramp, base.S)


def _ds_between_cfl_bounds(table, cfg, height):
    """simulate's start on the _steep fields of that height, a ds between
    the two runs' CFL bounds, and the row of the run whose bound it
    breaks."""
    grid = _abort_grid()
    base = _steep(table, grid, cfg.s0, height)
    start = _perturbed_start(table, cfg, base)
    bounds = [cfg.cfl * grid.h / np.max(grid.speed(run.U))
              for run in (start, base)]
    ds = 0.5 * sum(bounds)
    assert min(bounds) < ds < max(bounds)
    return base, start, ds, int(np.argmin(bounds))


def _draining(S0):
    """profile_operator, with S drained in stage 1 of the run that starts
    on the density S0."""
    operator = dynamics_lab.profile_operator

    def draining(params, R_, Psi, dPsi, S, dS, lapPsi):
        out = operator(params, R_, Psi, dPsi, S, dS, lapPsi)
        out[1] -= np.where(np.all(S == S0, axis=-1, keepdims=True), 1e3, 0.0)
        return out

    return draining


def _rhs_calls(monkeypatch):
    """The list that records every _rhs call from now on."""
    rhs, calls = dynamics_lab._rhs, []

    def spy(*args):
        calls.append(args)
        return rhs(*args)

    monkeypatch.setattr(dynamics_lab, "_rhs", spy)
    return calls


@pytest.mark.parametrize("row", [0, 1])
@pytest.mark.parametrize("cause", ["cfl", "positivity"])
def test_one_run_aborts_the_step(profile_r201, monkeypatch, cause, row):
    cfg = EnergyConfig()
    if cause == "cfl":
        height = {0: -100.0, 1: 30.0}[row]
        _, start, ds, failing = _ds_between_cfl_bounds(profile_r201, cfg,
                                                       height)
        assert failing == row
        monkeypatch.setattr(dynamics_lab, "profile_fieldset",
                            lambda table, grid, s: _steep(table, grid, s,
                                                          height))
        error = CFLError
        match = rf"^ds = .* exceeds the stability bound .* of row {row} \("
    else:
        base = profile_fieldset(profile_r201, _abort_grid(), cfg.s0)
        start = _perturbed_start(profile_r201, cfg, base)
        ds = 1e-3
        monkeypatch.setattr(dynamics_lab, "profile_operator",
                            _draining((start, base)[row].S))
        error = PositivityError
        match = rf"^density of row {row} lost positivity: min S = -"
    calls = _rhs_calls(monkeypatch)
    with pytest.raises(error, match=match) as info:
        simulate(profile_r201, cfg, s_span=ds, n=N_ABORT, n_samples=2,
                 ds=ds)
    _assert_last_good_is_perturbed_start(info.value, start)
    # a CFL break is refused before the step's first stage
    assert len(calls) == {"cfl": 0, "positivity": 3}[cause]


def test_cfl_abort_comes_before_a_lost_density(profile_r201, monkeypatch):
    # in the same step the reference breaks its CFL bound (the steep ramp)
    # and the drained perturbed run would lose positivity: the step is
    # refused before it runs, so the error is the reference's CFLError
    cfg = EnergyConfig()
    base, start, ds, _ = _ds_between_cfl_bounds(profile_r201, cfg, 30.0)
    monkeypatch.setattr(dynamics_lab, "profile_fieldset", _steep)
    monkeypatch.setattr(dynamics_lab, "profile_operator",
                        _draining(start.S))
    X = np.array([[start.Psi, base.Psi], [start.S, base.S]])
    with pytest.raises(PositivityError, match="density of row 0 lost"):
        dynamics_lab._advance(X, start.grid, start.params, start.s, ds,
                              True, 1e9)     # no bound: the step runs
    calls = _rhs_calls(monkeypatch)
    with pytest.raises(CFLError, match=r"of row 1 \(") as info:
        simulate(profile_r201, cfg, s_span=ds, n=N_ABORT, n_samples=2,
                 ds=ds)
    _assert_last_good_is_perturbed_start(info.value, start)
    assert calls == []
