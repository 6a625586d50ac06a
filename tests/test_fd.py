"""Tests for the finite-difference operator, its stencil cache and the
array-level stepper built on it.

Neither the cache, the even-reflection mode, stacking rows along a leading
axis, the lean stepper nor its stage workspace of kept arrays may change a
single bit: every reference below rebuilds the Fornberg weights for each
row on each call, reflects even fields by hand, differentiates one row at
a time, and steps each run alone through a validated FieldSet per step,
which is what the code did before.
The stepper's references run on simulate's stretched grid and on the
uniform one.  A simulate that reads its reference run back from an
earlier call reports the bits of one that steps it.  The dissipativity
probe's kept arrays, and the kept scratch of the damped profile's error
terms, are held to the allocations they save.
"""

import gc
import sys
import tracemalloc
import weakref

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

import oracles


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
@pytest.mark.parametrize("n", [33, 257, 4096, 1025])
@pytest.mark.parametrize("even", [False, True])
@pytest.mark.parametrize("lead", [(3,), (2, 3), (2, 32)])
def test_stacked_rows_match_1d_calls(m, acc, n, even, lead):
    # (2, 32) rows of 1025 points is the probe's stacked state, whose
    # 64 rows span several of _fd's row blocks
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


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("even", [False, True])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3), (2, 32)])
def test_complex_is_its_real_and_imaginary_parts(m, even, lead):
    # a complex array is differentiated as its two parts, bit for bit,
    # signed zeros included; (2, 32) rows of 1025 points is the probe's
    # complex step, whose parts are strided rows over several blocks
    rng = np.random.default_rng(31 * m + len(lead))
    n = 1025 if lead == (2, 32) else 257
    f = (rng.standard_normal(lead + (n,))
         + 1j * rng.standard_normal(lead + (n,)))
    f.real[..., 40] = -0.0
    out = derivative(f, 0.05, m, even=even)
    assert out.dtype == complex and out.shape == f.shape
    for part, got in ((f.real, out.real), (f.imag, out.imag)):
        np.testing.assert_array_equal(
            _bits(got), _bits(derivative(part.copy(), 0.05, m, even=even)))


@pytest.mark.parametrize("m", [1, 2])
def test_complex_reflected_is_the_even_derivative(m):
    # the probe's complex step in its stage workspace: a (2, 32, 1025)
    # stack, reflected at the workspace's width, whose parts span several
    # of _fd's row blocks, gives derivative(even=True)'s bits, signed
    # zeros included
    rng = np.random.default_rng(5 + m)
    shape = (2, 32, 1025)
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f.imag[..., 40] = -0.0
    width = max(_fd.half_width(k, 4) for k in (1, 2))
    padded = _fd.reflect(f, width, np.empty((2, 32, width + 1025), complex))
    out = np.empty_like(f)
    got = _fd.reflected_derivative(padded, width, 0.05, m, 4, out=out)
    assert got is out
    np.testing.assert_array_equal(
        _bits(got), _bits(derivative(f, 0.05, m, acc=4, even=True)))


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

    def counting_reflected(padded, width, h, m, acc, out):
        out[...] = counting(padded[..., width:], h, m, acc, even=True)
        return out

    # the energies differentiate through the grid, which looks the
    # operator up in selfsimilar_fields; the probe and the blow-up fit
    # also call dynamics_lab's.  The grid's stage workspace calls the
    # even pass on its kept reflection, which it looks up in
    # selfsimilar_fields
    for module in (dynamics_lab, selfsimilar_fields):
        monkeypatch.setattr(module, "derivative", counting)
    monkeypatch.setattr(selfsimilar_fields, "reflected_derivative",
                        counting_reflected)
    dynamics_lab._reference_run = None    # step the reference run too
    uncached = simulate(profile_r201, s_span=0.1, n=256, n_samples=3)
    assert (2, 2, 256) in shapes   # both runs' (Psi, S) in one call
    assert (2, 256) in shapes      # the two Psi rows' second derivative
    assert cached.to_csv() == uncached.to_csv()
    assert cached.max_rel_Stilde == uncached.max_rel_Stilde
    assert cached.input_hash == uncached.input_hash


def _reference_rhs(Psi, S, grid, params, s, quantum):
    """The right side before it shared dPsi with the Laplacian."""
    r, alpha = params.r, params.alpha
    dPsi = oracles.plain_d1(Psi, grid)
    dS = oracles.plain_d1(S, grid)
    lapPsi = oracles.plain_laplacian(Psi, grid)
    qp = 0.0
    coef = np.exp((4.0 - 2.0 * r) * s)
    if quantum and coef > dynamics_lab.QP_COEF_FLOOR and np.any(S > 1e-300):
        Sf = np.maximum(S, 1e-300)
        w = np.log(Sf * np.sqrt(alpha) / r ** (1.0 - alpha)) / (2.0 * alpha)
        dw = oracles.plain_d1(w, grid)
        qp = coef * (oracles.plain_laplacian(w, grid) + dw * dw)
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
    amax = float(np.max(oracles.plain_speed(oracles.plain_d1(state.Psi,
                                                             grid), grid)))
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
    row by row, stepped alone on 1-D arrays, with its own bound."""
    rows = [_reference_advance(Psi, S, grid, params, s, ds, quantum, cfl)
            for Psi, S in zip(X[0], X[1])]
    return (np.array([[Psi for Psi, _, _ in rows], [S for _, S, _ in rows]]),
            np.array([bound for _, _, bound in rows]))


def _assert_identical_to_fieldset_stepper(table, monkeypatch, quantum):
    kwargs = dict(s_span=0.1, n=256, n_samples=3, quantum_pressure=quantum)
    lean = simulate(table, **kwargs)
    monkeypatch.setattr(dynamics_lab, "_advance", _reference_advance_rows)
    for module in (dynamics_lab, selfsimilar_fields, oracles):
        monkeypatch.setattr(module, "derivative", uncached_derivative)
    dynamics_lab._reference_run = None    # step the reference run too
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
    ws = grid.workspace(X.shape)
    rhs = dynamics_lab._rhs(X, ws.d1(X), grid, params, 1.0, True, ws)
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


def _stepper_case(table, grid, runs, s):
    """A (2, runs, n) state of the profile with a bump on the first run's
    fields, and half the smallest stability bound of its runs at s with
    the quantum term on."""
    base = profile_fieldset(table, grid, s)
    bump = np.exp(-(base.R - 8.0) ** 2)
    X = np.array([[base.Psi + 1e-3 * bump, base.Psi][:runs],
                  [base.S * (1.0 + 1e-3 * bump), base.S][:runs]])
    ws = grid.workspace(X.shape)
    bound = dynamics_lab._stability_bound(ws.d1(X)[0], ws, table.params, s,
                                          True, 0.9)
    return X, 0.5 * float(np.min(bound))


def _assert_advance_is_reference(X, grid, params, s, ds, quantum):
    got = dynamics_lab._advance(X, grid, params, s, ds, quantum, 0.9)
    want = _reference_advance_rows(X, grid, params, s, ds, quantum, 0.9)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(_bits(g), _bits(w))
    return got[0]


def test_stage_workspace_is_never_stale(profile_r201):
    # the stepper keeps its arrays per grid and state shape: steps that
    # alternate between grids of one n, between one and two runs and
    # between the quantum term on and off each equal the reference.  At
    # s = 1 the quantum prefactor is about 1, so the term is live
    params, s = profile_r201.params, 1.0
    grids = (RadialGrid.uniform(N_ABORT, 30.0),
             RadialGrid.sinh(N_ABORT, 30.0, dynamics_lab.SIMULATE_GRID_C))
    cases = [(grid, *_stepper_case(profile_r201, grid, runs, s), quantum)
             for runs in (1, 2) for quantum in (True, False)
             for grid in grids]
    for i in range(2):
        for j, (grid, X, ds, quantum) in enumerate(cases):
            cases[j] = (grid, _assert_advance_is_reference(
                X, grid, params, s + i * ds, ds, quantum), ds, quantum)
    # a grid that is dropped takes its workspaces with it: a grid of
    # another R_max built right after the drop, which CPython mostly puts
    # at the dropped grid's id, steps as the reference does
    c = dynamics_lab.SIMULATE_GRID_C
    for R_max in (20.0, 25.0, 35.0):
        grid = RadialGrid.sinh(N_ABORT, 30.0, c)
        X, ds = _stepper_case(profile_r201, grid, 1, s)
        _assert_advance_is_reference(X, grid, params, s, ds, True)
        other = RadialGrid.sinh(N_ABORT, R_max, c)
        X, ds = _stepper_case(profile_r201, other, 1, s)
        del grid
        grid = RadialGrid(x=other.x, R=other.R, h=other.h, c=other.c)
        _assert_advance_is_reference(X, grid, params, s, ds, True)


def test_dropped_grid_frees_its_workspaces(profile_r201):
    # no stage workspace refers to its grid, and no grid is cached, so with
    # the cycle collector off a dropped grid goes at once, with every
    # workspace it kept: those of one and two runs, with the quantum term
    # live (s = 1) and not
    params, s = profile_r201.params, 1.0
    grid = RadialGrid.sinh(N_ABORT, 30.0, dynamics_lab.SIMULATE_GRID_C)
    gc.disable()
    try:
        kept = [weakref.ref(grid)]
        for runs in (1, 2):
            X, ds = _stepper_case(profile_r201, grid, runs, s)
            for quantum in (True, False):
                dynamics_lab._advance(X, grid, params, s, ds, quantum, 0.9)
            kept.append(weakref.ref(grid.workspace(X.shape)))
        del grid, X
        assert [ref() for ref in kept] == [None] * len(kept)
    finally:
        gc.enable()


# the dissipativity probe's kept arrays

#: two probe settings of one grid and one n_modes (so one workspace) and
#: one of another n; the forms of each must equal the fresh-array oracle
PROBE_A = dict(m=2, J=2000.0, C0=2.0, K=8, n=1025, n_modes=16)
PROBE_B = dict(m=3, J=0.0, C0=2.0, K=0, n=1025, n_modes=16)
PROBE_C = dict(m=2, J=2000.0, C0=2.0, K=8, n=513, n_modes=16)


def _assert_form_is_oracle(table, kw):
    got = dynamics_lab._dissipativity_form(table, **kw)
    for g, w in zip(got, oracles.dissipativity_form(table, **kw)):
        np.testing.assert_array_equal(_bits(g), _bits(w))


def test_probe_workspace_is_never_stale(profile_r201):
    # settings A, B, A on one kept workspace, then another grid and back:
    # each call gives the oracle's bits, so nothing a call leaves in the
    # kept arrays reaches the next
    for kw in (PROBE_A, PROBE_B, PROBE_A, PROBE_C, PROBE_A):
        _assert_form_is_oracle(profile_r201, kw)


def test_probe_store_holds_one_grid(profile_r201):
    # the store keeps the last probe's grid alone, and no workspace refers
    # to its grid: with the cycle collector off, a probe at another n
    # frees the first grid at once, with its workspaces.  The grid keeps
    # only stage workspaces; the probe's own arrays sit beside it
    dynamics_lab.dissipativity_probe(profile_r201, trials=5)
    store = dynamics_lab._probe_workspace
    hits = store.cache_info().hits
    grid, probe_ws = store(1025, 2.0, profile_r201.params.d, 16)
    assert store.cache_info().hits == hits + 1
    assert store.cache_info().currsize == 1
    assert grid.workspaces
    assert all(isinstance(ws, selfsimilar_fields._StageWorkspace)
               for ws in grid.workspaces.values())
    gc.disable()
    try:
        kept = [weakref.ref(grid), weakref.ref(probe_ws),
                *map(weakref.ref, grid.workspaces.values())]
        del grid, probe_ws
        dynamics_lab.dissipativity_probe(profile_r201, trials=5, n=513)
        assert [ref() for ref in kept] == [None] * len(kept)
    finally:
        gc.enable()


def _opcodes_with_large_allocations(fn, nbytes):
    """fn() and the number of bytecodes, run by fn and by what it calls,
    during which the memory tracemalloc traces (numpy's buffers included)
    rose by nbytes or more above its level at the bytecode's start."""
    count, level = 0, 0

    def trace(frame, event, arg):
        nonlocal count, level
        frame.f_trace_opcodes = True
        current, peak = tracemalloc.get_traced_memory()
        count += peak - level >= nbytes
        tracemalloc.reset_peak()
        level = current
        return trace

    outer = sys.gettrace()
    tracemalloc.start()
    try:
        level = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sys.settrace(trace)
        try:
            result = fn()
        finally:
            sys.settrace(outer)
        count += tracemalloc.get_traced_memory()[1] - level >= nbytes
    finally:
        tracemalloc.stop()
    return result, count


@pytest.mark.parametrize("kind", ["uniform", "sinh"])
@pytest.mark.parametrize("runs, s, most", [(1, 1e4, 1 + 3 * 2),
                                           (2, 1e4, 1 + 3 * 2),
                                           (1, 1.0, 1 + 3 * 2 + 3 * 6)],
                         ids=["1", "2", "1-quantum"])
def test_warm_step_allocates_only_its_result_and_correlations(profile_r201,
                                                              kind, runs, s,
                                                              most):
    # a warm step of simulate's settings makes no allocation of 8n bytes
    # or more but its result and the six np.correlate outputs, two per
    # stage; every other array of size n is kept in the stage workspace.
    # At s = 1 the quantum term is live: its derivatives come from a
    # workspace too, and each stage adds six allocations of the term's
    # own (max(S, S_FLOOR), the half log-density, written in place into
    # one array, two correlate outputs, |grad w|^2 and the masked result)
    n = 2048
    grid = (RadialGrid.uniform(n, 30.0) if kind == "uniform" else
            RadialGrid.sinh(n, 30.0, dynamics_lab.SIMULATE_GRID_C))
    params = profile_r201.params
    X, ds = _stepper_case(profile_r201, grid, runs, s)
    X, _ = dynamics_lab._advance(X, grid, params, s, ds, True, 0.9)
    (Xn, _), large = _opcodes_with_large_allocations(
        lambda: dynamics_lab._advance(X, grid, params, s + ds, ds, True,
                                      0.9), 8 * n)
    assert Xn.shape == (2, runs, n)
    assert large <= most


def test_warm_probe_makes_no_large_allocation(profile_r201):
    # a probe after the first at its (n, C0, d, n_modes) runs in kept
    # arrays: no allocation reaches glibc's 128 KiB mmap threshold, where
    # each would take fresh pages
    dynamics_lab.dissipativity_probe(profile_r201)
    frac, large = _opcodes_with_large_allocations(
        lambda: dynamics_lab.dissipativity_probe(profile_r201, seed=3),
        128 * 1024)
    assert 0.0 <= frac <= 1.0
    assert large == 0


def test_warm_error_terms_allocate_only_their_results(profile_r201_wide):
    # warm error terms make no allocation of 8n bytes or more but the six
    # arrays of ErrorTerms they return; every other term is formed in kept
    # scratch
    table = profile_r201_wide
    selfsimilar_fields.error_terms(
        selfsimilar_fields.damped_profile(table, 10.0), table)
    dp = selfsimilar_fields.damped_profile(table, 11.0)
    et, large = _opcodes_with_large_allocations(
        lambda: selfsimilar_fields.error_terms(dp, table), 8 * len(table.R))
    assert et.E_S.shape == table.R.shape
    assert large <= 6


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
    bounds = [cfg.cfl * grid.h / np.max(oracles.plain_speed(run.U, grid))
              for run in (start, base)]
    ds = 0.5 * sum(bounds)
    assert min(bounds) < ds < max(bounds)
    return base, start, ds, int(np.argmin(bounds))


def _draining(S0):
    """profile_operator, with S drained in stage 1 of the run that starts
    on the density S0.  The stepper's kept output and scratch, when it
    passes them, are passed on."""
    operator = dynamics_lab.profile_operator

    def draining(params, R_, Psi, dPsi, S, dS, lapPsi, **kept):
        out = operator(params, R_, Psi, dPsi, S, dS, lapPsi, **kept)
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


@pytest.mark.parametrize("broken", ["quantum", "transport"])
def test_cfl_error_names_the_bound_it_breaks(profile_r201, broken):
    # at s = 1 the quantum prefactor e^{(4-2r)s} = 0.9802 is live.  On 256
    # nodes the quantum bound, which scales with h^2, is the tighter one;
    # on 33 nodes the transport bound is.  ds lies between the two, so only
    # the tighter one is broken, and the message names it with its own
    # quantity
    n = {"quantum": 256, "transport": 33}[broken]
    grid = RadialGrid.uniform(n, 30.0)
    params = profile_r201.params
    state = profile_fieldset(profile_r201, grid, 1.0)
    speed = np.max(oracles.plain_speed(state.U, grid))
    transport = 0.9 * grid.h / speed
    quantum = 0.9 * grid.h ** 2 / (2.0 * params.d
                                   * np.exp(4.0 - 2.0 * params.r))
    low, high = sorted((transport, quantum))
    assert (low == quantum) == (broken == "quantum")
    assert low == pytest.approx(dynamics_lab._stability_bound(
        state.U, grid.workspace((2, n)), params, 1.0,
        True, 0.9), rel=1e-14)
    ds = (low * high) ** 0.5
    why = {"quantum": "quantum: e^((4-2r)s) = 0.9802",
           "transport": f"transport: max|y+2U|/R' = {speed:.3g}"}[broken]
    X = np.stack((state.Psi, state.S))[:, None]
    with pytest.raises(CFLError) as info:
        dynamics_lab._advance(X, grid, params, 1.0, ds, True, 0.9)
    assert str(info.value) == (f"ds = {ds:.3e} exceeds the stability bound "
                               f"{low:.3e} of row 0 ({why})")



# The stored reference run.  simulate's unperturbed run depends on neither
# delta_low nor any other energy setting, so a run already stepped to its
# end under the same inputs is read back and only the perturbed run steps,
# in row 0 of a (2, 1, n) state.  A warm run's report is the cold run's,
# bit for bit.  The autouse fixture of conftest starts each test without
# stored runs.

SMALL = dict(s_span=0.1, n=N_ABORT, n_samples=3)


def _advance_inputs(monkeypatch):
    """The list that records every state _advance steps from now on."""
    advance, inputs = dynamics_lab._advance, []

    def spy(X, *args):
        inputs.append(X)
        return advance(X, *args)

    monkeypatch.setattr(dynamics_lab, "_advance", spy)
    return inputs


def _shapes(inputs):
    return [X.shape for X in inputs]


def _assert_same_report(warm, cold):
    assert warm.to_csv() == cold.to_csv()
    for name in ("max_rel_Stilde", "input_hash", "cfl_headroom", "n_steps",
                 "ds", "grid"):
        assert getattr(warm, name) == getattr(cold, name), name


@pytest.mark.parametrize("kind", ["uniform", "sinh"])
@pytest.mark.parametrize("quantum", [True, False])
@pytest.mark.parametrize("delta", [4e-4, 3e-3])
def test_warm_report_equals_cold(profile_r201, monkeypatch, kind, quantum,
                                 delta):
    if kind == "uniform":
        monkeypatch.setattr(dynamics_lab, "SIMULATE_GRID_C", None)
    kwargs = dict(SMALL, quantum_pressure=quantum)
    simulate(profile_r201, EnergyConfig(delta_low=1e-3), **kwargs)
    inputs = _advance_inputs(monkeypatch)
    warm = simulate(profile_r201, EnergyConfig(delta_low=delta), **kwargs)
    dynamics_lab._reference_run = None
    cold = simulate(profile_r201, EnergyConfig(delta_low=delta), **kwargs)
    n_steps = warm.n_steps
    assert _shapes(inputs) == ([(2, 1, N_ABORT)] * n_steps
                               + [(2, 2, N_ABORT)] * n_steps)
    assert warm.grid["kind"] == kind
    _assert_same_report(warm, cold)


def test_warm_headroom_reads_the_stored_bound(profile_r201, monkeypatch):
    # on the _steep fields of height 30 the reference's x-speed exceeds
    # the perturbed run's, so its stored bound is the step's headroom
    monkeypatch.setattr(dynamics_lab, "profile_fieldset", _steep)
    kwargs = dict(SMALL, s_span=0.02)
    simulate(profile_r201, EnergyConfig(delta_low=1e-3), **kwargs)
    warm = simulate(profile_r201, EnergyConfig(delta_low=2e-3), **kwargs)
    stored = dynamics_lab._reference_run
    dynamics_lab._reference_run = None
    cold = simulate(profile_r201, EnergyConfig(delta_low=2e-3), **kwargs)
    _assert_same_report(warm, cold)
    assert warm.cfl_headroom == min(stored.bounds) / warm.ds


@pytest.mark.parametrize("change", ["base", "s0", "n_samples", "quantum"])
def test_other_reference_inputs_miss(profile_r201, monkeypatch, change):
    # each changes the unperturbed run: its start, its time, the steps it
    # keeps, or its right side
    simulate(profile_r201, EnergyConfig(), **SMALL)
    first = dynamics_lab._reference_run
    cfg, kwargs = EnergyConfig(delta_low=2e-3), dict(SMALL)
    if change == "base":
        monkeypatch.setattr(dynamics_lab, "profile_fieldset",
                            lambda table, grid, s: _steep(table, grid, s,
                                                          1.0))
    elif change == "s0":
        cfg = EnergyConfig(delta_low=2e-3, s0=2.0e4)
    elif change == "n_samples":
        kwargs["n_samples"] = 4
    else:
        kwargs["quantum_pressure"] = False
    inputs = _advance_inputs(monkeypatch)
    rep = simulate(profile_r201, cfg, **kwargs)
    assert _shapes(inputs) == [(2, 2, N_ABORT)] * rep.n_steps
    assert dynamics_lab._reference_run.key != first.key


@pytest.mark.parametrize("cause", ["cfl", "positivity"])
def test_abort_on_a_hit_equals_a_cold_abort(profile_r201, monkeypatch,
                                            cause):
    # the run of delta_low = 1e-3 aborts in row 0 after the run of
    # delta_low = 2e-4 stored the reference.  On the _steep fields of
    # height -100 its CFL bound lies below a ds that the other two runs
    # keep.  The drained run loses its density in the third step, after
    # two samples and two recorded headrooms
    cfg = EnergyConfig()
    if cause == "cfl":
        _, _, ds, failing = _ds_between_cfl_bounds(profile_r201, cfg, -100.0)
        assert failing == 0
        monkeypatch.setattr(dynamics_lab, "profile_fieldset",
                            lambda table, grid, s: _steep(table, grid, s,
                                                          -100.0))
        kwargs = dict(s_span=ds, n=N_ABORT, n_samples=2, ds=ds)
        error, match = CFLError, r"^ds = .* of row 0 \("
    else:
        ds = 1e-3
        kwargs = dict(s_span=4 * ds, n=N_ABORT, n_samples=5, ds=ds)
        with monkeypatch.context() as m:
            inputs = _advance_inputs(m)
            simulate(profile_r201, cfg, **kwargs)
        dynamics_lab._reference_run = None
        monkeypatch.setattr(dynamics_lab, "profile_operator",
                            _draining(inputs[2][1, 0]))
        error, match = PositivityError, r"^density of row 0 lost positivity"
    other = simulate(profile_r201, EnergyConfig(delta_low=2e-4), **kwargs)
    stored = dynamics_lab._reference_run
    assert len(stored.bounds) == other.n_steps
    with pytest.raises(error, match=match) as warm:
        simulate(profile_r201, cfg, **kwargs)
    dynamics_lab._reference_run = None
    with pytest.raises(error, match=match) as cold:
        simulate(profile_r201, cfg, **kwargs)
    warm, cold = warm.value, cold.value
    assert str(warm) == str(cold)
    assert warm.last_good.s == cold.last_good.s
    np.testing.assert_array_equal(warm.last_good.Psi, cold.last_good.Psi)
    np.testing.assert_array_equal(warm.last_good.S, cold.last_good.S)
    _assert_same_report(warm.partial_report, cold.partial_report)
    n_taken = {"cfl": 0, "positivity": 2}[cause]
    assert len(warm.partial_report.s) == n_taken + 1
    assert (warm.partial_report.cfl_headroom is None) == (n_taken == 0)


def test_stored_reference_is_read_only_and_replaced(profile_r201,
                                                    monkeypatch):
    # one run is kept: a miss replaces it, so the first inputs miss again
    simulate(profile_r201, **SMALL)
    stored = dynamics_lab._reference_run
    assert isinstance(stored.bounds, tuple)
    assert len(stored.states) == SMALL["n_samples"] - 1
    for state in stored.states.values():
        assert state.shape == (2, N_ABORT)
        assert not state.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            state[1, 0] = 0.0
    simulate(profile_r201, **dict(SMALL, n_samples=4))
    assert len(dynamics_lab._reference_run.states) == 3
    inputs = _advance_inputs(monkeypatch)
    rep = simulate(profile_r201, **SMALL)
    assert _shapes(inputs) == [(2, 2, N_ABORT)] * rep.n_steps
