"""Finite-difference derivatives on uniform grids.

Stencil weights come from Fornberg's recursion, so arbitrary derivative and
accuracy orders are available; interior points use centered stencils and the
edges fall back to one-sided stencils of the same formal order.

`derivative` works along the last axis of an array of any leading shape,
and each row's result is bit-identical to a 1-D call on that row: stacking
runs or fields saves per-call overhead without moving a bit.  The one-sided
stencils are stored as blocks whose rows keep fd_weights' strided column
layout; that layout is the condition for the bit-identity (see _stencils).
`reflected_derivative` is the pass of derivative's even mode on samples
the caller has already reflected, so a caller that keeps the reflected
buffer (the stepper's stage workspace) differentiates with the same
operator, bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ResolutionError

__all__ = ["fd_weights", "derivative", "reflected_derivative"]


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


def half_width(m: int, acc: int) -> int:
    """Half-width of derivative()'s centred stencil of order m at accuracy
    acc: the number of points of each edge it does not reach, and the
    number of reflected points the even mode reads."""
    half = (m + acc - 1) // 2 + (1 if (m % 2 == 0) else 0)
    return max(half, (m + 1) // 2 + acc // 2)


@functools.lru_cache(maxsize=64)
def _stencils(h: float, m: int, acc: int):
    """Half-width, one-sided length, and read-only weights of derivative().

    Built once per (h, m, acc): the centre stencil and the (half, n_side)
    blocks of one-sided stencils of the first and last `half` points.
    Each block row keeps the column stride fd_weights returns (m + 1
    doubles, not 1): a dot product with a strided operand sums in one
    fixed order, the order a 1-D dot with fd_weights' own output uses, so
    every edge value is bit-identical to that dot.  A contiguous block
    (or a matrix product against one) sums in another order and moves the
    last bit.
    """
    half = half_width(m, acc)
    n_side = m + acc  # one-sided stencil length
    offsets = np.arange(-half, half + 1, dtype=float)
    center = fd_weights(offsets * h, 0.0, m)
    side = np.arange(n_side, dtype=float)
    lo = np.zeros((half, n_side, m + 1))[..., m]
    hi = np.zeros((half, n_side, m + 1))[..., m]
    for i in range(half):
        lo[i] = fd_weights(side * h, i * h, m)
        hi[i] = fd_weights(-side[::-1] * h, -i * h, m)
    for weights in (center, lo, hi):
        weights.flags.writeable = False
    return half, n_side, center, lo, hi


def derivative(f: np.ndarray, h: float, m: int, acc: int = 4,
               even: bool = False) -> np.ndarray:
    """m-th derivative along the last axis of samples f on a uniform grid
    of spacing h.

    f may have any leading shape; each row f[..., :] is differentiated on
    its own, and every output equals, bit for bit, that of a 1-D call on
    the row alone.  Centered stencils of formal order `acc` in the
    interior, one-sided stencils of the same order at the boundaries.
    With `even`, f samples an even radial field on a grid starting at
    R = 0 (f(-R) = f(R)): the grid is reflected through its first node by
    the stencil half-width, so every row but the last `half` uses the
    centered stencil, and only the right edge is one-sided.

    The centre values of all rows come from one np.correlate over the
    flattened rows (outputs whose window straddles two rows land on edge
    points and are overwritten), so each is the same dot product over the
    same samples as in a 1-D call.  The edge values come from one
    broadcast np.vecdot against the stencil blocks of _stencils, whose
    rows keep a stride of m + 1 doubles so each dot sums in the order of
    the 1-D one.  The even mode reflects f into a new array and calls
    reflected_derivative on it.

    A complex f is differentiated as its real and imaginary parts, each
    written into its half of the complex result, so each part is bit for
    bit the derivative of that part alone.
    """
    if not np.iscomplexobj(f):
        return _real_derivative(f, h, m, acc, even)
    out = np.empty(np.shape(f), complex)
    out.real = _real_derivative(np.real(f), h, m, acc, even)
    out.imag = _real_derivative(np.imag(f), h, m, acc, even)
    return out


def _real_derivative(f: np.ndarray, h: float, m: int, acc: int,
                     even: bool) -> np.ndarray:
    """derivative() of real samples f, taken as float64."""
    f = np.asarray(f, dtype=float)
    if m == 0:
        return f.copy()
    if even:
        half = half_width(m, acc)
        return reflected_derivative(
            np.concatenate([f[..., half:0:-1], f], axis=-1), half, h, m, acc)
    half, n_side, center, lo, hi = _stencils(h, m, acc)
    _require_length(f.shape[-1], half, n_side, m, acc)
    out = _centre_and_right(f, half, n_side, center, hi)
    out[..., :half] = np.vecdot(lo, f[..., None, :n_side])
    return out


def reflected_derivative(padded: np.ndarray, width: int, h: float, m: int,
                         acc: int = 4) -> np.ndarray:
    """derivative(f, h, m, acc, even=True) of the even rows f whose
    reflected samples padded holds: padded[..., width:] is f and
    padded[..., :width] its reflection through the first node,
    padded[..., width - j] = f[..., j] for j = 1 .. width, with width at
    least half_width(m, acc).  padded is float64 and C-contiguous.

    The result is a view of shape f.shape into the new array np.correlate
    returns, which holds nothing else the caller needs; padded is only
    read.  Every row but the last half_width(m, acc) points takes the
    centred stencil over the reflection, the last ones the one-sided
    stencils, each value the same dot over the same samples as in a 1-D
    call with width = half_width(m, acc).
    """
    half, n_side, center, _, hi = _stencils(h, m, acc)
    n = padded.shape[-1] - width
    _require_length(n + half, half, n_side, m, acc)
    return _centre_and_right(padded, half, n_side, center, hi)[..., width:]


def _require_length(n: int, half: int, n_side: int, m: int,
                    acc: int) -> None:
    """ResolutionError unless n points carry the centred stencil and the
    one-sided one."""
    if n < max(2 * half + 1, n_side):
        raise ResolutionError(
            f"grid of {n} points too short for order-{m} derivative at accuracy {acc}")


def _centre_and_right(f: np.ndarray, half: int, n_side: int,
                      center: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The centred stencil at every point of the rows of f, in one new
    array, with the one-sided stencils of the last `half` points written
    over their values; the first `half` are the caller's to fix."""
    n = f.shape[-1]
    out = np.correlate(f.reshape(-1), center, mode="same").reshape(f.shape)
    np.vecdot(hi, f[..., None, n - n_side:], out=out[..., :n - half - 1:-1])
    return out
