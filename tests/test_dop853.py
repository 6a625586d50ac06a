"""The in-house DOP853 against a flow with a closed-form solution, and
its tableau and root finder against scipy's.

y' = M y with M = [[-a, 1], [-1, -a]] has y(t) = e^{-a t} (cos t, -sin t)
from y(0) = (1, 0), in either direction of t, and its first component
crosses zero at t = +-pi/2.  The method, step control and event rule are
scipy's, so scipy's DOP853 takes the same steps on it.  The tableau and
_brentq are ports of scipy's, so scipy stays their reference: the same
entries, and the same roots bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau
from scipy.optimize import brentq as scipy_brentq

from nls_implosion import _dop853
from nls_implosion._dop853 import EPS, MESSAGES, _brentq, solve_ivp
from nls_implosion.phase_portrait import R_STAR, ProfileParams
from nls_implosion.profile_solver import solve_profile

A = 0.1
RTOL, ATOL = 1e-10, 1e-12


def flow(t, y):
    W, Z = y
    return (-A * W + Z, -W - A * Z)


def exact(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-A * t) * np.array([np.cos(t), -np.sin(t)])


def crossing(t, y):
    return y[0]


crossing.terminal = True


@pytest.mark.parametrize("end", [10.0, -3.0])
def test_dense_output_follows_the_solution(end):
    sol = solve_ivp(flow, (0.0, end), (1.0, 0.0), rtol=RTOL, atol=ATOL,
                    dense_output=True)
    assert sol.success and sol.message == MESSAGES[0]
    assert sol.t[0] == 0.0 and sol.t[-1] == end
    assert np.all(np.sign(end) * np.diff(sol.t) > 0)
    ts = np.linspace(0.0, end, 1001)
    grid = sol.sol(ts)
    assert grid.shape == (2, 1001)
    np.testing.assert_allclose(grid, exact(ts), rtol=0, atol=1e-9)
    # one point at a time gives the same bits as the grid
    for i in (0, 1, 500, 999, 1000):
        np.testing.assert_array_equal(sol.sol(ts[i]), grid[:, i])
    # on a breakpoint the interpolant of the step that ends there
    k = len(sol.t) // 2
    np.testing.assert_allclose(sol.sol(sol.t[k]), exact(sol.t[k]),
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("end", [10.0, -10.0])
def test_terminal_event_at_the_crossing(end):
    sol = solve_ivp(flow, (0.0, end), (1.0, 0.0), rtol=RTOL, atol=ATOL,
                    events=[crossing])
    root = math.copysign(math.pi / 2, end)
    assert sol.success and sol.message == MESSAGES[1]
    assert sol.t_events[0] == pytest.approx([root], abs=1e-9)
    assert sol.t[-1] == sol.t_events[0][0]
    assert sol.y_events[0].shape == (1, 2)
    np.testing.assert_allclose(sol.y_events[0][0], exact(root), atol=1e-9)
    assert sol.sol is None


def test_same_steps_as_scipy():
    # the error estimate cancels to about 1e-10 of the stages, so the order
    # of the sums moves it by about 1e-6 relative, and a step size, its
    # eighth root, by about 1e-7
    own = solve_ivp(flow, (0.0, 10.0), (1.0, 0.0), rtol=RTOL, atol=ATOL,
                    events=[crossing])
    ref = scipy_solve_ivp(flow, (0.0, 10.0), (1.0, 0.0), method="DOP853",
                          rtol=RTOL, atol=ATOL, events=[crossing])
    assert own.nfev == ref.nfev
    np.testing.assert_allclose(own.t, ref.t, rtol=1e-6, atol=0)
    np.testing.assert_allclose(own.t_events[0], ref.t_events[0], atol=1e-14)


def test_stops_short_where_the_flow_ends():
    # past t = 1 the flow is undefined: every step across it is rejected
    # until the step size falls below 10 ulp of t
    def walled(t, y):
        return flow(t, y) if t <= 1.0 else (math.nan, math.nan)

    sol = solve_ivp(walled, (0.0, 5.0), (1.0, 0.0), rtol=RTOL, atol=ATOL,
                    events=[crossing], dense_output=True)
    assert not sol.success
    assert sol.message == "the step size fell below 10 ulp of t"
    assert 1.0 - 1e-9 < sol.t[-1] <= 1.0
    assert len(sol.t_events[0]) == 0
    np.testing.assert_allclose(sol.sol(sol.t[-1]), exact(sol.t[-1]),
                               atol=1e-9)


def test_empty_span_refused():
    with pytest.raises(ValueError, match="empty span"):
        solve_ivp(flow, (1.0, 1.0), (1.0, 0.0))


def test_stop_rule_decides_at_each_root():
    # the first component crosses zero at pi/2 and 3 pi/2: the rule goes on
    # at the first root and stops at the second, and every step up to it
    # is the step of the march that no event stops
    seen = []

    def stop(t, sol):
        seen.append(sol(t))
        return len(seen) == 2

    def crossing_twice(t, y):
        return y[0]

    crossing_twice.stop = stop
    own = solve_ivp(flow, (0.0, 10.0), (1.0, 0.0), rtol=RTOL, atol=ATOL,
                    events=[crossing_twice], dense_output=True)
    full = solve_ivp(flow, (0.0, 10.0), (1.0, 0.0), rtol=RTOL, atol=ATOL,
                     dense_output=True)
    assert own.status == 1 and own.message == MESSAGES[1]
    assert own.t_events[0] == pytest.approx([math.pi / 2, 3 * math.pi / 2],
                                            abs=1e-9)
    assert own.t[-1] == own.t_events[0][1]
    n = len(own.t) - 1
    assert len(full.t) - 1 > n
    np.testing.assert_array_equal(own.t[:-1], full.t[:n])
    np.testing.assert_array_equal(own.sol._F, full.sol._F[:n])
    np.testing.assert_array_equal(own.sol._y_old, full.sol._y_old[:n])
    # the rule read the march so far at each root
    np.testing.assert_array_equal(seen, own.y_events[0])


def test_stop_rule_needs_dense_output():
    def crossing_stop(t, y):
        return y[0]

    crossing_stop.stop = lambda t, sol: True
    with pytest.raises(ValueError, match="needs dense output"):
        solve_ivp(flow, (0.0, 10.0), (1.0, 0.0), events=[crossing_stop])


# ---------------------------------------------------------------------------
# the ports of scipy's tableau and brentq
# ---------------------------------------------------------------------------

def _dense(pairs, n):
    row = np.zeros(n)
    for j, a in pairs:
        row[j] = a
    return row


def test_tableau_is_scipys():
    T = scipy_tableau
    assert (_dop853._N_STAGES, _dop853._N_STAGES_EXTENDED,
            _dop853.N_DENSE) == (T.N_STAGES, T.N_STAGES_EXTENDED,
                                 T.INTERPOLATOR_POWER)
    n = T.N_STAGES_EXTENDED
    np.testing.assert_array_equal(_dop853._C, T.C)
    A = np.array([_dense(row, n) for row in
                  ((),) + _dop853._A + (_dop853._B,) + _dop853._A_EXTRA])
    np.testing.assert_array_equal(A, T.A)
    np.testing.assert_array_equal(_dense(_dop853._B, T.N_STAGES), T.B)
    np.testing.assert_array_equal(_dense(_dop853._E5, T.N_STAGES + 1), T.E5)
    np.testing.assert_array_equal(_dense(_dop853._E3, T.N_STAGES + 1), T.E3)
    np.testing.assert_array_equal([_dense(row, n) for row in _dop853._D],
                                  T.D)
    # only non-zero entries are held
    rows = (_dop853._A + _dop853._A_EXTRA + _dop853._D
            + (_dop853._B, _dop853._E5, _dop853._E3))
    assert all(a != 0.0 for row in rows for _, a in row)


def _outcome(find, f, a, b, xtol):
    """The bits of the root (float.hex), or the type of the error."""
    try:
        return find(f, a, b, xtol).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _own(f, a, b, xtol):
    return _brentq(f, a, b, xtol, 4 * EPS)


def _scipy(f, a, b, xtol):
    return scipy_brentq(f, a, b, xtol=xtol, rtol=4 * EPS)


#: functions of (x, c, s) with a root at c, s a scale: smooth, flat at the
#: root, steep, and tiny enough that the secant denominators underflow
SHAPES = (
    lambda x, c, s: s * (x - c) + (x - c) ** 3,
    lambda x, c, s: math.tanh(s * (x - c)),
    lambda x, c, s: math.exp(x - c) - 1.0,
    lambda x, c, s: 1e-250 * (x - c) ** 3,
    lambda x, c, s: 1.0 if x > c else -1.0,
)

end = st.floats(min_value=-8.0, max_value=8.0)


@pytest.mark.parametrize("xtol", [4 * EPS, 2e-12])
@settings(max_examples=400, deadline=None)
@given(a=end, b=end, c=end, s=st.floats(min_value=1e-3, max_value=1e3),
       shape=st.sampled_from(range(len(SHAPES))))
def test_brentq_is_scipys_bit_for_bit(xtol, a, b, c, s, shape):
    def f(x):
        return SHAPES[shape](x, c, s)

    assert _outcome(_own, f, a, b, xtol) == _outcome(_scipy, f, a, b, xtol)


def _nan_inside(x):
    return math.nan if 0.2 < x < 0.8 else x - 0.5


@pytest.mark.parametrize("f, a, b, outcome", [
    pytest.param(lambda x: math.nan, 0.0, 1.0, ValueError, id="nan-at-end"),
    pytest.param(_nan_inside, 0.0, 1.0, ValueError, id="nan-inside"),
    pytest.param(lambda x: x * x + 1, -1.0, 1.0, ValueError, id="one-sign"),
    pytest.param(lambda x: x, 0.0, 1.0, (0.0).hex(), id="zero-at-a"),
    pytest.param(lambda x: x - 1, 0.0, 1.0, (1.0).hex(), id="zero-at-b"),
    pytest.param(lambda x: x * (x - 1), 0.0, 1.0, (0.0).hex(), id="zero-at-both"),
    # a jump across 600 decades of bracket needs about 2000 bisections
    pytest.param(lambda x: 1.0 if x > 1e-300 else -1.0, -1e300, 1e300,
                 RuntimeError, id="no-convergence-in-100"),
])
def test_brentq_contracts_are_scipys(f, a, b, outcome):
    assert _outcome(_own, f, a, b, 4 * EPS) == outcome
    assert _outcome(_scipy, f, a, b, 4 * EPS) == outcome


@pytest.mark.parametrize("r", [1.05, 1.5, 2.01, 2.068, R_STAR - 1e-4])
def test_every_event_root_of_a_solve_is_scipys(r, monkeypatch):
    roots = []

    def spy(f, a, b, xtol, rtol):
        root = _brentq(f, a, b, xtol, rtol)
        roots.append((root, scipy_brentq(f, a, b, xtol=xtol, rtol=rtol)))
        return root

    monkeypatch.setattr(_dop853, "_brentq", spy)
    solve_profile(ProfileParams(r=r))
    assert roots
    assert [root.hex() for root, _ in roots] == [ref.hex() for _, ref in roots]
