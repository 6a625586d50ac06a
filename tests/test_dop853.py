"""The in-house DOP853 against a flow with a closed-form solution.

y' = M y with M = [[-a, 1], [-1, -a]] has y(t) = e^{-a t} (cos t, -sin t)
from y(0) = (1, 0), in either direction of t, and its first component
crosses zero at t = +-pi/2.  The method, step control and event rule are
scipy's, so scipy's DOP853 takes the same steps on it.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from nls_implosion._dop853 import MESSAGES, solve_ivp

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
