"""Finite-difference derivatives on uniform grids.

Stencil weights come from Fornberg's recursion, so arbitrary derivative and
accuracy orders are available; interior points use centered stencils and the
edges fall back to one-sided stencils of the same formal order.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ResolutionError

__all__ = ["fd_weights", "derivative"]


def fd_weights(x: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Weights w with sum(w * f(x)) ~ f^(m)(x0), Fornberg's algorithm."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if m >= n:
        raise ResolutionError(f"need more than {m} nodes for derivative order {m}")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@functools.lru_cache(maxsize=64)
def _stencils(h: float, m: int, acc: int):
    """Half-width, one-sided length, and read-only weights of derivative().

    Built once per (h, m, acc): the centre stencil and, row by row, the
    one-sided stencils of the first and last `half` points.
    """
    half = (m + acc - 1) // 2 + (1 if (m % 2 == 0) else 0)
    half = max(half, (m + 1) // 2 + acc // 2)
    n_side = m + acc  # one-sided stencil length
    offsets = np.arange(-half, half + 1, dtype=float)
    center = fd_weights(offsets * h, 0.0, m)
    side = np.arange(n_side, dtype=float)
    # kept as fd_weights returns them (strided columns), not stacked into a
    # block: the dot products then sum in the same order as uncached ones
    lo = tuple(fd_weights(side * h, i * h, m) for i in range(half))
    hi = tuple(fd_weights(-side[::-1] * h, -i * h, m) for i in range(half))
    for weights in (center, *lo, *hi):
        weights.flags.writeable = False
    return half, n_side, center, lo, hi


def derivative(f: np.ndarray, h: float, m: int, acc: int = 4,
               even: bool = False) -> np.ndarray:
    """m-th derivative of samples f on a uniform grid of spacing h.

    Centered stencils of formal order `acc` in the interior, one-sided
    stencils of the same order at the boundaries.  With `even`, f samples
    an even radial field on a grid starting at R = 0 (f(-R) = f(R)): the
    grid is reflected through its first node by the stencil half-width, so
    every row but the last `half` uses the centered stencil, and only the
    right edge is one-sided.
    """
    f = np.asarray(f, dtype=float)
    if m == 0:
        return f.copy()
    half, n_side, center, lo, hi = _stencils(h, m, acc)
    if even:
        f = np.concatenate([f[half:0:-1], f])
    n = len(f)
    if n < max(2 * half + 1, n_side):
        raise ResolutionError(
            f"grid of {n} points too short for order-{m} derivative at accuracy {acc}")

    out = np.empty(n)
    out[half:n - half] = np.convolve(f, center[::-1], mode="valid")
    for i in range(half):
        out[n - 1 - i] = hi[i] @ f[n - n_side:]
    if even:
        return out[half:]
    for i in range(half):
        out[i] = lo[i] @ f[:n_side]
    return out
