"""Tests for the finite-difference operator, its stencil cache and the
array-level stepper built on it.

Neither the cache, the even-reflection mode nor the lean stepper may change
a single bit: every reference below rebuilds the Fornberg weights for each
row on each call, reflects even fields by hand, and steps through a
validated FieldSet per step, which is what the code did before.
"""

import numpy as np
import pytest

from nls_implosion import _fd, dynamics_lab, selfsimilar_fields
from nls_implosion._fd import derivative, fd_weights
from nls_implosion.dynamics_lab import simulate
from nls_implosion.errors import (
    CFLError,
    DomainError,
    PositivityError,
    ResolutionError,
)
from nls_implosion.selfsimilar_fields import (
    FieldSet,
    _even_d1,
    radial_laplacian,
)


def uncached_derivative(f, h, m, acc=4, even=False):
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
    monkeypatch.setattr(dynamics_lab, "derivative", uncached_derivative)
    uncached = simulate(profile_r201, s_span=0.1, n=256, n_samples=3)
    assert cached.to_csv() == uncached.to_csv()
    assert cached.max_rel_Stilde == uncached.max_rel_Stilde
    assert cached.input_hash == uncached.input_hash


def _reference_rhs(Psi, S, R, h, params, s, quantum):
    """The right side before it shared dPsi with the Laplacian."""
    r, alpha, d = params.r, params.alpha, params.d
    dPsi = _even_d1(Psi, h)
    dS = _even_d1(S, h)
    lapPsi = radial_laplacian(Psi, R, h, d=d)
    qp = 0.0
    coef = np.exp((4.0 - 2.0 * r) * s)
    if quantum and coef > dynamics_lab.QP_COEF_FLOOR and np.any(S > 1e-300):
        w = dynamics_lab._log_density(np.maximum(S, 1e-300), params)
        dw = _even_d1(w, h)
        qp = coef * (radial_laplacian(w, R, h, d=d) + dw * dw)
        qp = np.where(S > 1e-300, qp, 0.0)
    rhs_Psi = -(r - 2.0) * Psi - R * dPsi - dPsi * dPsi - alpha * S * S + qp
    rhs_S = (-(r - 1.0) * S - R * dS - 2.0 * dS * dPsi
             - 2.0 * alpha * S * lapPsi)
    return rhs_Psi, rhs_S


def _reference_advance(Psi, S, R, h, params, s, ds, quantum, cfl):
    """The stepper before it ran on arrays: a validated FieldSet in and out
    of every step, the CFL bound read off its U."""
    state = FieldSet.from_Psi_S(params, R, s, Psi, S)
    amax = float(np.max(np.abs(R + 2.0 * state.U)))
    bound = cfl * h / max(amax, 1e-30)
    coef = np.exp((4.0 - 2.0 * params.r) * s)
    if quantum and coef > dynamics_lab.QP_COEF_FLOOR:
        bound = min(bound, cfl * h * h / (2.0 * params.d * coef))
    if ds > bound:
        raise CFLError("reference bound")

    def F(P_, S_, s_):
        return _reference_rhs(P_, S_, R, h, params, s_, quantum)

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
    out = FieldSet.from_Psi_S(params, R, s + ds, Pn, Sn)
    return out.Psi, out.S


@pytest.mark.parametrize("quantum", [True, False])
def test_energy_report_identical_to_fieldset_stepper(profile_r201,
                                                     monkeypatch, quantum):
    kwargs = dict(s_span=0.1, n=256, n_samples=3, quantum_pressure=quantum)
    lean = simulate(profile_r201, **kwargs)
    monkeypatch.setattr(dynamics_lab, "_advance", _reference_advance)
    for module in (dynamics_lab, selfsimilar_fields):
        monkeypatch.setattr(module, "derivative", uncached_derivative)
    reference = simulate(profile_r201, **kwargs)
    assert lean.to_csv() == reference.to_csv()
    assert lean.max_rel_Stilde == reference.max_rel_Stilde
    assert lean.input_hash == reference.input_hash


def test_nan_density_raises_at_its_step(profile_r201, monkeypatch):
    rhs = dynamics_lab._rhs
    calls = []

    def poisoned(*args):
        calls.append(args)
        out_Psi, out_S = rhs(*args)
        if len(calls) == 13:     # stage 1 of the perturbed run's third step
            out_S = out_S.copy()
            out_S[100] = np.nan
        return out_Psi, out_S

    monkeypatch.setattr(dynamics_lab, "_rhs", poisoned)
    with pytest.raises(DomainError, match="NaN"):
        simulate(profile_r201, s_span=0.1, n=256, n_samples=3)
    assert len(calls) == 15      # that step's three stages, nothing after


def test_last_good_is_state_before_failing_step(profile_r201, monkeypatch):
    advance = dynamics_lab._advance
    inputs = []

    def advance_until_third(Psi, S, R, h, params, s, ds, quantum, cfl):
        inputs.append((s, Psi, S))
        if len(inputs) == 5:     # the perturbed run's third step
            ds = 1e3 * ds        # far beyond the stability bound
        return advance(Psi, S, R, h, params, s, ds, quantum, cfl)

    monkeypatch.setattr(dynamics_lab, "_advance", advance_until_third)
    with pytest.raises(CFLError) as info:
        simulate(profile_r201, s_span=0.1, n=256, n_samples=3)
    good = info.value.last_good
    s, Psi, S = inputs[4]
    assert isinstance(good, FieldSet)
    assert good.s == s > inputs[0][0]
    np.testing.assert_array_equal(good.Psi, Psi)
    np.testing.assert_array_equal(good.S, S)
    np.testing.assert_array_equal(good.U, _even_d1(Psi, good.h))
    assert len(info.value.partial_report.s) == 1
