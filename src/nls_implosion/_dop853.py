"""DOP853 on Python floats, for a system of two components.

scipy's DOP853 spends most of a step of a two-component system in numpy
calls sized for large states: two dot products per stage, a dense-output
object per step, event scans over arrays and a per-segment lookup when the
solution is evaluated.  This module runs the same method with the state as
a pair of Python floats:

  * the Butcher tableau is scipy's (scipy.integrate._ivp.dop853_coefficients),
    held here as float literals, each the repr of scipy's float64, as the
    (j, a_j) pairs of its non-zero entries, which alone are summed;
  * the step controller is scipy's: the error norm that blends the 5th- and
    3rd-order estimates, safety 0.9, a step factor between 0.2 and 10 with
    exponent -1/8 and no growth right after a rejection, scipy's
    initial-step rule, and failure once the step falls below 10 ulp of t;
  * an event fires where its value changes sign between two steps, zeros
    included; its root is brentq's at 4 eps on that step's interpolant, and
    the march stops at the first root of a terminal event.  An event may
    instead decide at each of its roots: its attribute `stop`, a function
    of the root and the march so far, stops the march there when it
    returns true, and otherwise the march goes on, every step as it would
    have been (scipy's solve_ivp ignores the attribute);
  * the 7-term dense output of a step (three extra stages) is built for
    every step when dense output is asked for, otherwise only for a step
    in which an event fires.

Sums run left to right over the tableau's non-zero entries, where scipy's
follow the BLAS dot order, so the two differ in the last bits.  The
interpolants of all steps are kept in flat arrays, and Solution.sol
evaluates any set of points with one searchsorted and one Horner pass;
DenseSolution.arrays and from_arrays store and rebuild it bit for bit.

The roots come from _brentq, a port to Python floats of scipy's brentq
(Brent 1973; scipy/optimize/Zeros/brentq.c), step for step, with the
contracts of scipy's wrapper.  So neither the march nor its events import
scipy.  The tests keep scipy as the reference: the tableau must equal
scipy's entry for entry, and _brentq must return scipy's brentq bit for bit.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import NamedTuple

import numpy as np

__all__ = ["solve_ivp", "Solution", "DenseSolution"]

EPS = sys.float_info.epsilon

#: step-size controller: safety factor, bounds on the factor, and the
#: exponent -1/(q + 1) of the order q = 7 error estimate
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0

#: stages of a step, stages with the three extra dense ones, and terms of
#: the dense-output polynomial of a step
_N_STAGES = 12
_N_STAGES_EXTENDED = 16
N_DENSE = 7

MESSAGES = {0: "reached the end of the span",
            1: "a terminal event occurred",
            -1: "the step size fell below 10 ulp of t"}

# The tableau, scipy's entry for entry: the nodes C, and each row of A, B,
# E5, E3 and D as the (j, a_j) pairs of its non-zero entries.
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
      0.7777777777777778)
#: rows of stages 1 .. 11 of a step
_A = (
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861),
     (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386),
     (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
     (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998),
     (4, 0.10726203044637328), (5, -0.015319437748624402),
     (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414),
     (4, -0.868219346841726), (5, 27.59209969944671),
     (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677),
     (4, -0.590290826836843), (5, 21.230051448181193),
     (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064),
     (4, 1.0914373489967295), (5, -8.149787010746927),
     (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725),
     (4, -2.0008720582248625), (5, -17.9589318631188),
     (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303),
     (10, 0.6433927460157636)),
)
#: rows of the three extra dense stages 13 .. 15
_A_EXTRA = (
    ((0, 0.056167502283047954), (6, 0.25350021021662483),
     (7, -0.2462390374708025), (8, -0.12419142326381637),
     (9, 0.15329179827876568), (10, 0.00820105229563469),
     (11, 0.007567897660545699), (12, -0.008298)),
    ((0, 0.03183464816350214), (5, 0.028300909672366776),
     (6, 0.053541988307438566), (7, -0.05492374857139099),
     (10, -0.00010834732869724932), (11, 0.0003825710908356584),
     (12, -0.00034046500868740456), (13, 0.1413124436746325)),
    ((0, -0.42889630158379194), (5, -4.697621415361164),
     (6, 7.683421196062599), (7, 4.06898981839711), (8, 0.3567271874552811),
     (12, -0.0013990241651590145), (13, 2.9475147891527724),
     (14, -9.15095847217987)),
)
_B = ((0, 0.054293734116568765), (5, 4.450312892752409),
      (6, 1.8915178993145003), (7, -5.801203960010585),
      (8, 0.3111643669578199), (9, -0.1521609496625161),
      (10, 0.20136540080403034), (11, 0.04471061572777259))
_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044),
       (6, -0.4957589496572502), (7, 1.6643771824549864),
       (8, -0.35032884874997366), (9, 0.3341791187130175),
       (10, 0.08192320648511571), (11, -0.022355307863886294))
_E3 = ((0, -0.18980075407240762), (5, 4.450312892752409),
       (6, 1.8915178993145003), (7, -5.801203960010585),
       (8, -0.4226823213237919), (9, -0.1521609496625161),
       (10, 0.20136540080403034), (11, 0.02265179219836082))
#: rows of the last four terms of the dense-output polynomial
_D = (
    ((0, -8.428938276109013), (5, 0.5667149535193777),
     (6, -3.0689499459498917), (7, 2.38466765651207), (8, 2.117034582445028),
     (9, -0.871391583777973), (10, 2.2404374302607883),
     (11, 0.6315787787694688), (12, -0.08899033645133331),
     (13, 18.148505520854727), (14, -9.194632392478356),
     (15, -4.436036387594894)),
    ((0, 10.427508642579134), (5, 242.28349177525817),
     (6, 165.20045171727028), (7, -374.5467547226902),
     (8, -22.113666853125306), (9, 7.733432668472264),
     (10, -30.674084731089398), (11, -9.332130526430229),
     (12, 15.697238121770845), (13, -31.139403219565178),
     (14, -9.35292435884448), (15, 35.81684148639408)),
    ((0, 19.985053242002433), (5, -387.0373087493518),
     (6, -189.17813819516758), (7, 527.8081592054236),
     (8, -11.57390253995963), (9, 6.8812326946963),
     (10, -1.0006050966910838), (11, 0.7777137798053443),
     (12, -2.778205752353508), (13, -60.19669523126412),
     (14, 84.32040550667716), (15, 11.99229113618279)),
    ((0, -25.69393346270375), (5, -154.18974869023643),
     (6, -231.5293791760455), (7, 357.6391179106141), (8, 93.40532418362432),
     (9, -37.45832313645163), (10, 104.0996495089623),
     (11, 29.8402934266605), (12, -43.53345659001114),
     (13, 96.32455395918828), (14, -39.17726167561544),
     (15, -149.72683625798564)),
)

#: iterations of _brentq before it gives up, as scipy's brentq
_BRENTQ_MAXITER = 100


def _brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of f in [a, b] to within xtol + rtol |root|: scipy's brentq
    (scipy/optimize/Zeros/brentq.c) on Python floats, step for step, so
    the two return the same bits.

    As scipy's wrapper: a NaN value of f is a ValueError, and so is a
    bracket whose ends have values of one sign; an end where f is exactly
    zero is returned at once; and no convergence in 100 iterations is a
    RuntimeError.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x = {x:.17g} is NaN")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError(f"f({a!r}) and f({b!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # where C divides by zero it gets an inf or a NaN, and
                # either fails the test below: bisect
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"no convergence after {_BRENTQ_MAXITER} iterations; "
                       f"the last iterate is {xcur!r}")


def _sums(row, K) -> tuple[float, float]:
    """sum_j a_j K_j of both components, left to right over the (j, a_j)
    pairs of `row`."""
    w = z = 0.0
    for j, a in row:
        kw, kz = K[j]
        w += a * kw
        z += a * kz
    return w, z


def _rms(u: float, v: float) -> float:
    return math.sqrt(u * u + v * v) / 2 ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol) -> float:
    """scipy's select_initial_step for an error estimate of order 7."""
    interval = abs(t_bound - t0)
    sw, sz = (atol + abs(v) * rtol for v in y0)
    d0 = _rms(y0[0] / sw, y0[1] / sz)
    d1 = _rms(f0[0] / sw, f0[1] / sz)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0 * direction, (y0[0] + h0 * direction * f0[0],
                                   y0[1] + h0 * direction * f0[1]))
    d2 = _rms((f1[0] - f0[0]) / sw, (f1[1] - f0[1]) / sz) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, interval)


def _rk_step(fun, t, y, h, K):
    """One DOP853 step of size h from (t, y), with K[0] = f(t, y): the
    stages 1 .. 12 go into K, and the new state is returned."""
    W, Z = y
    for s, row in enumerate(_A, start=1):
        w, z = _sums(row, K)
        K[s] = fun(t + _C[s] * h, (W + w * h, Z + z * h))
    w, z = _sums(_B, K)
    y_new = (W + h * w, Z + h * z)
    K[_N_STAGES] = fun(t + h, y_new)
    return y_new


def _error_norm(K, h_abs, y, y_new, rtol, atol) -> float:
    sw = atol + max(abs(y[0]), abs(y_new[0])) * rtol
    sz = atol + max(abs(y[1]), abs(y_new[1])) * rtol
    e5w, e5z = _sums(_E5, K)
    e3w, e3z = _sums(_E3, K)
    e5w, e5z, e3w, e3z = e5w / sw, e5z / sz, e3w / sw, e3z / sz
    err5 = e5w * e5w + e5z * e5z
    err3 = e3w * e3w + e3z * e3z
    if err5 == 0.0 and err3 == 0.0:
        return 0.0
    return h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 2)


def _dense(fun, t_old, h, y_old, y, K) -> list[float]:
    """Coefficients of the interpolant of the step of size h from
    (t_old, y_old) to y, after three extra stages into K: F_k of W and of
    Z at 2 k and 2 k + 1."""
    W, Z = y_old
    for s, row in enumerate(_A_EXTRA, start=_N_STAGES + 1):
        w, z = _sums(row, K)
        K[s] = fun(t_old + _C[s] * h, (W + w * h, Z + z * h))
    (fw_old, fz_old), (fw, fz) = K[0], K[_N_STAGES]
    dw, dz = y[0] - W, y[1] - Z
    F = [dw, dz, h * fw_old - dw, h * fz_old - dz,
         2 * dw - h * (fw + fw_old), 2 * dz - h * (fz + fz_old)]
    for row in _D:
        w, z = _sums(row, K)
        F += (h * w, h * z)
    return F


def _horner(F, y_old, x: float) -> tuple[float, float]:
    """The interpolant with coefficients F at the step fraction x."""
    x1 = 1 - x
    w = z = 0.0
    for k in range(N_DENSE - 1, -1, -1):
        c = x if k % 2 == 0 else x1
        w = (w + F[2 * k]) * c
        z = (z + F[2 * k + 1]) * c
    return w + y_old[0], z + y_old[1]


class DenseSolution:
    """The march as one piecewise polynomial: segment k, from ts[k] to
    ts[k + 1], is the interpolant of step k; a time on a breakpoint takes
    the earlier segment, and times outside the span the end segments."""

    def __init__(self, ts, direction: float, h, y_old, F):
        self.ts = np.asarray(ts, dtype=float)
        # the inner breakpoints in the march's direction: the segment of t
        # is the number of them before it
        self._inner = direction * self.ts[1:-1]
        self._direction = direction
        self._t_old = self.ts[:-1]     # each step's start
        self._h = np.frombuffer(h)
        self._y_old = np.frombuffer(y_old).reshape(-1, 2)
        self._F = np.frombuffer(F).reshape(-1, N_DENSE, 2)

    @staticmethod
    def shapes(m: int) -> dict[str, tuple[int, ...]]:
        """The shape of each of arrays() for a march of m steps."""
        return {"ts": (m + 1,), "h": (m,), "y_old": (m, 2),
                "F": (m, N_DENSE, 2)}

    def arrays(self) -> dict[str, np.ndarray]:
        """The arrays that define the march, by name: the breakpoints ts,
        each step's start but the last's end, and each step's size h,
        state y_old and interpolant coefficients F.  from_arrays rebuilds
        the march from them."""
        return {"ts": self.ts, "h": self._h, "y_old": self._y_old,
                "F": self._F}

    @classmethod
    def from_arrays(cls, ts, h, y_old, F) -> "DenseSolution":
        """The march whose arrays() these are, bit for bit; its direction
        is the sign of its steps."""
        flat = (np.ascontiguousarray(a, dtype=float).ravel()
                for a in (h, y_old, F))
        return cls(ts, 1.0 if h[0] > 0 else -1.0, *flat)

    def __call__(self, t) -> np.ndarray:
        """The state at t: shape (2,) for a scalar t, (2, m) for m times."""
        t = np.asarray(t, dtype=float)
        seg = np.searchsorted(self._inner, self._direction * t, side="left")
        x = ((t - self._t_old[seg]) / self._h[seg])[..., None]
        x1 = 1 - x
        F = self._F[seg]
        y = np.zeros(F.shape[:-2] + (2,))
        for k in range(N_DENSE - 1, -1, -1):
            y = (y + F[..., k, :]) * (x if k % 2 == 0 else x1)
        return (y + self._y_old[seg]).T


class Solution(NamedTuple):
    t: np.ndarray                  # the accepted step ends, t_span[0] first,
                                   # and the root where an event stopped it
    t_events: list[np.ndarray]     # roots of each event, in march order
    y_events: list[np.ndarray]     # the state at each root, shape (m, 2)
    sol: DenseSolution | None      # with dense_output, the whole march
    status: int                    # a key of MESSAGES, as scipy's status
    success: bool                  # False when the step size collapsed
    message: str
    nfev: int                      # right-hand-side evaluations


def solve_ivp(fun, t_span, y0, rtol: float = 1e-3, atol: float = 1e-6,
              events=(), dense_output: bool = False) -> Solution:
    """March y' = fun(t, y) of a two-component state from y(t_span[0]) = y0
    to t_span[1], by DOP853.

    fun takes t and the state as a pair of floats and returns a pair.  An
    event is a function of (t, y); one whose attribute `terminal` is true
    stops the march at its first root.  One whose attribute `stop` is set
    needs dense output: at each of its roots t, stop(t, sol) stops the
    march when it returns true, where sol is the DenseSolution of the march
    through the current step.  rtol is raised to 100 eps, as scipy does.
    """
    t0, t_bound = float(t_span[0]), float(t_span[1])
    if t0 == t_bound:
        raise ValueError(f"empty span [{t0}, {t_bound}]")
    W0, Z0 = y0
    y = (float(W0), float(Z0))
    rtol = max(float(rtol), 100 * EPS)
    atol = float(atol)
    direction = 1.0 if t_bound > t0 else -1.0
    events = list(events or ())
    terminal = [bool(getattr(ev, "terminal", False)) for ev in events]
    stops = [getattr(ev, "stop", None) for ev in events]
    if not dense_output and any(stops):
        raise ValueError("an event with a stop rule needs dense output")
    g = [ev(t0, y) for ev in events]
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    # per step of the dense output: h, y_old and the coefficients
    seg_h, seg_y, seg_F = (array("d") for _ in range(3))

    t = t0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, direction, rtol, atol)
    nfev = 2
    K = [None] * _N_STAGES_EXTENDED
    ts = [t0]
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            y_new = _rk_step(fun, t, y, h, K)
            nfev += _N_STAGES
            error = _error_norm(K, h_abs, y, y_new, rtol, atol)
            if error < 1:
                factor = (MAX_FACTOR if error == 0 else
                          min(MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break

        t_old, y_old = t, y
        t, y, f = t_new, y_new, K[_N_STAGES]
        if direction * (t - t_bound) >= 0:
            status = 0
        F = None
        if dense_output:
            F = _dense(fun, t_old, h, y_old, y, K)
            nfev += 3
            seg_h.append(h)
            seg_y.extend(y_old)
            seg_F.extend(F)

        if events:
            g_new = [ev(t, y) for ev in events]
            active = [k for k in range(len(events))
                      if (g[k] <= 0 <= g_new[k]) or (g[k] >= 0 >= g_new[k])]
            if active:
                if F is None:
                    F = _dense(fun, t_old, h, y_old, y, K)
                    nfev += 3

                def interp(s):
                    return _horner(F, y_old, (s - t_old) / h)

                roots = sorted(
                    (_brentq(lambda s: events[k](s, interp(s)), t_old, t,
                             4 * EPS, 4 * EPS), k)
                    for k in active)
                if direction < 0:
                    roots.reverse()
                for root, k in roots:
                    t_events[k].append(root)
                    y_events[k].append(interp(root))
                    if terminal[k] or (stops[k] is not None and stops[k](
                            root, DenseSolution(ts + [t], direction, seg_h[:],
                                                seg_y[:], seg_F[:]))):
                        status = 1
                        t, y = root, interp(root)
                        break
            g = g_new

        ts.append(t)

    sol = (DenseSolution(ts, direction, seg_h, seg_y, seg_F)
           if dense_output and seg_h else None)
    return Solution(
        t=np.array(ts), t_events=[np.asarray(te) for te in t_events],
        y_events=[np.asarray(ye) for ye in y_events], sol=sol,
        status=status, success=status >= 0, message=MESSAGES[status],
        nfev=nfev)
