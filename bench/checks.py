"""Reference values and output checks, computed apart from the program.

Nothing here imports `nls_implosion`: the closed forms are written out
from the paper's formulas, and the derivatives use exact centred
finite-difference weights built here, so a fault in the program's own
operators cannot hide in its check.  Each check returns a list of problem
strings; an empty list means the output passed.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction

import numpy as np

#: (d, p) = (8, 3): alpha = (p - 1)/4 and the dimension of the radial problem
ALPHA = 0.5
DIM = 8

#: acceptance criterion 4: both profile residual sups on this window
RESIDUAL_WINDOW = (0.01, 100.0)
RESIDUAL_BOUND = 1e-6
#: the xi = 0 row must sit on the closed-form sonic point within this
SONIC_TOL = 1e-8
#: far-field slope window and relative tolerance (criterion 5)
DECAY_WINDOW = (10.0, 1000.0)
DECAY_REL = 0.02
#: exponents of the blow-up rate diagnostic (criterion 12)
EXPONENT_REL = 0.05
#: the near-r* window where the outgoing-side checks must run
R_WINDOW_MIN = 1.9
#: damped-probe pass fraction floor (criterion 10)
PROBE_FLOOR = 0.95
#: weighted error norms contract at least by this factor per unit of s
CONTRACTION = math.exp(-0.9)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def sonic_point(r: float) -> tuple[float, float]:
    """(W0, Z0) of P_s: W0 = (-3r + 3R1 + 10)/14, Z0 = (r - R1 - 22)/14."""
    R1 = math.sqrt(r * r - 44.0 * r + 92.0)
    return (-3.0 * r + 3.0 * R1 + 10.0) / 14.0, (r - R1 - 22.0) / 14.0


def sonic_kappa(r: float) -> float:
    """Eigenvalue ratio kappa of the sonic point, from the closed forms of
    P_s and of the smooth branch's slopes (W1, Z1).

    The Taylor recurrence of the smooth branch divides its n-th Z
    coefficient by a1 (n - kappa), a1 = W1/4 + 3 Z1/4, so the series
    degenerates where kappa is an integer.
    """
    R1 = math.sqrt(r * r - 44.0 * r + 92.0)
    R2 = 7.0 * math.sqrt(7.0) * math.sqrt(
        79.0 * r ** 4 - 79.0 * R1 * r ** 3 - 2906.0 * r ** 3
        + 1168.0 * R1 * r * r + 13466.0 * r * r - 2568.0 * R1 * r
        - 25488.0 * r + 2704.0 * R1 + 23424.0)
    W0, Z0 = sonic_point(r)
    W1 = 20.0 * (r - 1.0) / (R1 - r + 8.0) - 2.0 * (2.0 * r + 5.0) / 7.0
    Z1 = ((980.0 * r + math.sqrt(2.0) * R2 - 980.0) / (r - R1 - 8.0)
          + 7.0 * (94.0 - 17.0 * r)) / 147.0
    a1 = W1 / 4.0 + 3.0 * Z1 / 4.0
    n_zz = -r - W0 / 4.0 - 13.0 * Z0 / 4.0
    return (n_zz - 0.75 * Z1) / a1


def blowup_exponent_formula(s: float, r: float, alpha: float = ALPHA,
                            d: int = DIM) -> float:
    """1/(alpha r) - 1/alpha + d/r - 2 s (1 - 1/r)."""
    return 1.0 / (alpha * r) - 1.0 / alpha + d / r - 2.0 * s * (1.0 - 1.0 / r)


# ---------------------------------------------------------------------------
# finite differences of our own
# ---------------------------------------------------------------------------

def centred_d1_weights(p: int) -> np.ndarray:
    """Exact weights of the order-2p centred first derivative, offsets -p..p.

    w_j = (-1)^(j+1) (p!)^2 / (j (p-j)! (p+j)!) for j = 1..p, w_-j = -w_j.
    """
    w = [Fraction(0)] * (2 * p + 1)
    for j in range(1, p + 1):
        c = Fraction((-1) ** (j + 1) * math.factorial(p) ** 2,
                     j * math.factorial(p - j) * math.factorial(p + j))
        w[p + j], w[p - j] = c, -c
    return np.array([float(c) for c in w])


def d1_interior(f: np.ndarray, h: float, p: int) -> np.ndarray:
    """Centred first derivative on f[p:-p] (the rows a full stencil covers)."""
    w = centred_d1_weights(p)
    return np.convolve(f, w[::-1], mode="valid") / h


def d1_full(f: np.ndarray, h: float, p: int = 2) -> np.ndarray:
    """First derivative on every row: centred inside, second-order one-sided
    (numpy.gradient) on the p rows at each end."""
    out = np.gradient(f, h, edge_order=2)
    out[p:len(f) - p] = d1_interior(f, h, p)
    return out


# ---------------------------------------------------------------------------
# certify: the profile artifacts
# ---------------------------------------------------------------------------

def read_profile_csv(text: str) -> dict[str, np.ndarray]:
    """Columns of a stamped `profile_*.csv` (comment lines start with #)."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",")
    return {name: data[:, i] for i, name in enumerate(header)}


def profile_residual_sups(cols: dict[str, np.ndarray], r: float,
                          window=RESIDUAL_WINDOW, p: int = 8
                          ) -> tuple[float, float]:
    """Sups of the two stationary profile equations on an R window.

    d/dR = e^-xi d/dxi by an order-2p centred difference of the tabulated
    Psi and S; Lap Psi = d_R U + (d-1) U / R from the U and dR_Ubar columns.
    """
    xi, R = cols["xi"], cols["R"]
    h = float(xi[1] - xi[0])
    Psi, S, U = cols["Psi_nls"], cols["S_nls"], cols["U_nls"]
    inner = slice(p, len(xi) - p)
    dPsi = d1_interior(Psi, h, p) / R[inner]
    dS = d1_interior(S, h, p) / R[inner]
    Ri, Psi_i, S_i = R[inner], Psi[inner], S[inner]
    lapPsi = 0.5 * cols["dR_Ubar"][inner] + (DIM - 1) / Ri * U[inner]
    res_phase = np.abs((r - 2.0) * Psi_i + Ri * dPsi + dPsi ** 2
                       + ALPHA * S_i ** 2)
    res_sound = np.abs((r - 1.0) * S_i + Ri * dS + 2.0 * dS * dPsi
                       + 2.0 * ALPHA * S_i * lapPsi)
    mask = (Ri >= window[0]) & (Ri <= window[1])
    if Ri[0] > window[0] or Ri[-1] < window[1]:
        raise ValueError(f"table rows do not cover R in {window}")
    return float(np.max(res_phase[mask])), float(np.max(res_sound[mask]))


def decay_slope(R: np.ndarray, S: np.ndarray, window=DECAY_WINDOW) -> float:
    """Least-squares slope of log S against log R on the window."""
    mask = (R >= window[0]) & (R <= window[1])
    return float(np.polyfit(np.log(R[mask]), np.log(S[mask]), 1)[0])


def check_profile(cols: dict[str, np.ndarray], r: float
                  ) -> tuple[list[str], float]:
    """Sonic row, far-field decay and residuals of one profile table.

    Returns the problems and the larger residual sup.
    """
    problems = []
    W0, Z0 = sonic_point(r)
    rows = np.flatnonzero(cols["xi"] == 0.0)
    if len(rows) != 1:
        problems.append(f"expected one xi = 0 row, found {len(rows)}")
    else:
        i = rows[0]
        dev = max(abs(cols["W"][i] - W0), abs(cols["Z"][i] - Z0))
        if not dev <= SONIC_TOL:
            problems.append(f"xi = 0 row is {dev:.3e} from P_s")
    slope = decay_slope(cols["R"], cols["S_nls"])
    if not abs(slope + (r - 1.0)) <= DECAY_REL * (r - 1.0):
        problems.append(f"far-field slope {slope:.6f}, want {-(r - 1.0):.6f}")
    sups = profile_residual_sups(cols, r)
    if not max(sups) <= RESIDUAL_BOUND:
        problems.append(f"residual sups {sups[0]:.3e}, {sups[1]:.3e} "
                        f"above {RESIDUAL_BOUND:g}")
    return problems, max(sups)


def check_verify_artifact(payload: dict, r: float) -> list[str]:
    """The stamped verify JSON: every check passed, part II iff r >= 1.9."""
    problems = []
    report = payload["artifact"]
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed or report.get("all_passed") is not True:
        problems.append(f"verify reports failed checks {failed}")
    has_part2 = any(c["name"].startswith("partII") for c in report["checks"])
    if has_part2 != (r >= R_WINDOW_MIN):
        state = "present" if has_part2 else "absent"
        problems.append(f"part II checks {state} at r = {r}")
    return problems


# ---------------------------------------------------------------------------
# evolve: criterion 11, scaled by delta_low
# ---------------------------------------------------------------------------

def check_energy_report(report, delta: float) -> list[str]:
    """max_rel_Stilde <= 2 delta, sqrt(max E_low) <= 1e5 delta, and the
    final reference drift <= 10 * span * max sup_residual_S."""
    problems = []
    if not report.max_rel_Stilde <= 2.0 * delta:
        problems.append(f"max_rel_Stilde {report.max_rel_Stilde:.4e} "
                        f"> 2 delta = {2.0 * delta:.4e}")
    e_low = math.sqrt(max(report.E_low))
    if not e_low <= 1e5 * delta:
        problems.append(f"sqrt(max E_low) {e_low:.4e} > 1e5 delta")
    span = report.s[-1] - report.s[0]
    floor = 10.0 * span * max(report.sup_residual_S)
    if not report.drift_Linf_S[-1] <= floor:
        problems.append(f"drift {report.drift_Linf_S[-1]:.4e} > {floor:.4e}")
    return problems


# ---------------------------------------------------------------------------
# diagnostics: criteria 9, 10 and 12
# ---------------------------------------------------------------------------

def error_norms(E_Psi: np.ndarray, E_S: np.ndarray, xi: np.ndarray,
                m_prime: int = 3, R0: float = 20.0) -> tuple[float, float]:
    """Weighted norms ||beta^m' d_R^(m'+1) E_Psi||, ||beta^m' d_R^m' E_S||
    with measure R^8 dR / R = R^8 dxi, as criterion 9 states them."""
    R = np.exp(xi)
    h = float(xi[1] - xi[0])
    beta = np.maximum(1.0, R / R0) ** 0.1
    norms = []
    for f, extra in ((E_Psi, 1), (E_S, 0)):
        g = np.asarray(f, dtype=float)
        for _ in range(m_prime + extra):
            g = d1_full(g, h) / R
        norms.append(math.sqrt(np.trapezoid(
            g * g * beta ** (2 * m_prime) * R ** DIM, xi)))
    return norms[0], norms[1]


def inner_error_sup(E_Psi: np.ndarray, E_S: np.ndarray, xi: np.ndarray,
                    s: float) -> float:
    """sup |E| where R e^-s <= 1/8, inside the cut-off plateau."""
    inner = np.exp(xi - s) <= 1.0 / 8.0
    return float(max(np.max(np.abs(E_Psi[inner])),
                     np.max(np.abs(E_S[inner]))))


def check_contraction(norms: dict[float, tuple[float, float]]) -> list[str]:
    """Norms at s + 1 are at most e^-0.9 times those at s."""
    problems = []
    for s in sorted(norms):
        if s + 1 in norms:
            for i, name in enumerate(("E_Psi", "E_S")):
                if not norms[s + 1][i] <= CONTRACTION * norms[s][i]:
                    problems.append(
                        f"{name} norm {norms[s + 1][i]:.4e} at s = {s + 1:g} "
                        f"not below e^-0.9 x {norms[s][i]:.4e}")
    return problems


def exponent_errors(fitted: dict[int, float], r: float) -> dict[int, float]:
    """Relative error of each fitted exponent against the closed form."""
    return {s: abs(v - blowup_exponent_formula(s, r))
            / abs(blowup_exponent_formula(s, r)) for s, v in fitted.items()}


def check_exponents(fitted: dict[int, float], r: float) -> list[str]:
    return [f"exponent at s = {s} off by {e:.2%}"
            for s, e in exponent_errors(fitted, r).items()
            if not e <= EXPONENT_REL]
