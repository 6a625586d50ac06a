"""Finite-difference derivatives on uniform grids.

Stencil weights come from Fornberg's recursion, so arbitrary derivative and
accuracy orders are available; interior points use centered stencils and the
edges fall back to one-sided stencils of the same formal order.

`derivative` works along the last axis of an array of any leading shape,
and each row's result is bit-identical to a 1-D call on that row: stacking
runs or fields saves per-call overhead without moving a bit.  The one-sided
stencils are stored as blocks whose rows keep fd_weights' strided column
layout; that layout is the condition for the bit-identity (see _stencils).

One pass, _rows, takes every derivative: it writes into the caller's
`out` (a new array when none is given) and works through the rows in
blocks whose samples, reflected in the even mode, and whose np.correlate
output each stay below _BLOCK_BYTES, so no call takes fresh pages for
its temporaries, whatever its rows; it takes complex samples as their
real and imaginary parts.  `reflected_derivative` is the same
pass on samples the caller has already reflected with `reflect`, so a
caller that keeps the reflected buffer (a grid's stage workspace, see
selfsimilar_fields.RadialGrid) differentiates with the same operator,
bit for bit; `reflect` is the one even reflection of the package.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ResolutionError

__all__ = ["fd_weights", "derivative", "reflect", "reflected_derivative"]

#: a block of rows holds fewer bytes of samples than this, and so does
#: its np.correlate output: glibc's default mmap threshold, 128 KiB.
#: malloc maps an array at least this large from fresh pages and unmaps
#: it when freed, so each such temporary faults in every page it
#: touches; a smaller one comes from, and goes back to, the heap.
_BLOCK_BYTES = 128 * 1024


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
               even: bool = False,
               out: np.ndarray | None = None) -> np.ndarray:
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

    The result goes into `out` when it is given: an array of f's shape,
    float64 (complex128 for a complex f), sharing no memory with f, whose
    leading axes merge into one without a copy (see _rows), which is
    returned; otherwise into a new one.  The rows are taken in blocks
    (see _rows): the centre values of a block come from one np.correlate
    over its flattened rows, reflected first in the even mode (outputs
    whose window straddles two rows land on edge points and are
    overwritten), so each is the same dot product over the same samples
    as in a 1-D call; its edge values come from one broadcast np.vecdot
    against the stencil blocks of _stencils, whose rows keep a stride of
    m + 1 doubles so each dot sums in the order of the 1-D one.  No
    temporary of the call reaches _BLOCK_BYTES.

    A complex f is differentiated as its real and imaginary parts (see
    _rows), so each part is bit for bit the derivative of that part alone.
    """
    f = np.asarray(f, dtype=complex if np.iscomplexobj(f) else float)
    if out is None:
        out = np.empty(f.shape, f.dtype)
    if m == 0:
        np.copyto(out, f)
    else:
        _rows(f, half_width(m, acc) if even else 0, even, h, m, acc, out)
    return out


def reflect(f: np.ndarray, width: int, out: np.ndarray) -> np.ndarray:
    """The even reflection of the rows of f through their first node,
    written into out (f's leading shape, width more points) and returned:
    out[..., width:] is f and out[..., width - j] = f[..., j] for
    j = 1 .. width."""
    out[..., width:] = f
    out[..., :width] = f[..., width:0:-1]
    return out


def reflected_derivative(padded: np.ndarray, width: int, h: float, m: int,
                         acc: int, out: np.ndarray) -> np.ndarray:
    """derivative(f, h, m, acc, even=True) of the even rows f whose
    reflected samples padded holds, as `reflect(f, width, padded)` wrote
    them, with width at least half_width(m, acc); padded is float64 or
    complex128 and is only read.

    The result goes into `out` (of padded's dtype and f's shape, sharing
    no memory with padded), which is returned; a complex padded is taken
    as its real and imaginary parts, as in derivative.  Every row but the
    last half_width(m, acc) points takes the centred stencil over the
    reflection, the last ones the one-sided stencils, each value the same
    dot over the same samples as in a 1-D call with
    width = half_width(m, acc).  When padded is real and C-contiguous the
    blocks are read in place, so the call allocates nothing but each
    block's np.correlate output; a complex padded's parts are strided, so
    each block of a part is copied first.
    """
    _rows(padded, width, False, h, m, acc, out)
    return out


def _rows(f: np.ndarray, width: int, reflecting: bool, h: float, m: int,
          acc: int, out: np.ndarray) -> None:
    """The m-th derivative stencils at every point of the rows of f, into
    the rows of out (whose last axis has n points), block by block.

    Each row of the stencils' input holds `width` reflected samples and
    then the row's n samples: width is 0 for a plain row, and at least
    half_width(m, acc) for an even one, whose centred stencil then
    reaches the first points through the reflection.  With `reflecting`,
    f holds the n samples and each block is reflected into a new array
    first; otherwise f holds the whole input, and a block is read in
    place when it is C-contiguous, copied when not.  A block takes as
    many rows as keep its input and its np.correlate output below
    _BLOCK_BYTES (at least one); when the rows take more than one block,
    out's leading axes must merge into one without a copy, as those of a
    C-contiguous array and of its real and imaginary parts do (a
    ValueError otherwise).  Every point gets the centred stencil, then the
    last half the one-sided stencils, and the first half too when width
    is 0; the correlate output takes them, and its values past the
    reflection are copied into out.  A ResolutionError, before any work,
    unless the rows carry both stencils.

    Complex f and out (complex128) are taken as their real and imaginary
    parts, each part of out written by this pass over that part of f
    alone, so each is bit for bit the derivative of the part.
    """
    if np.iscomplexobj(f):
        _rows(f.real, width, reflecting, h, m, acc, out.real)
        _rows(f.imag, width, reflecting, h, m, acc, out.imag)
        return
    half, n_side, center, lo, hi = _stencils(h, m, acc)
    n = out.shape[-1]
    if n + (half if width else 0) < max(2 * half + 1, n_side):
        raise ResolutionError(f"grid of {n} points too short for order-{m} "
                              f"derivative at accuracy {acc}")
    length = n + width
    k = f.size // f.shape[-1]
    step = max(1, (_BLOCK_BYTES - 1) // (8 * length))
    if k <= step:
        blocks = ((f, out),)
    else:
        rows = f.reshape(-1, f.shape[-1])
        dest = out.reshape(-1, n, copy=False)
        blocks = ((rows[i:i + step], dest[i:i + step])
                  for i in range(0, k, step))
    for block, d in blocks:
        if reflecting:
            block = reflect(block, width,
                            np.empty((*block.shape[:-1], length)))
        elif not block.flags.c_contiguous:
            block = np.ascontiguousarray(block)
        c = np.correlate(block.reshape(-1), center,
                         mode="same").reshape(block.shape)
        np.vecdot(hi, block[..., None, length - n_side:],
                  out=c[..., :length - half - 1:-1])
        if not width:
            np.vecdot(lo, block[..., None, :n_side], out=c[..., :half])
        d[...] = c[..., width:]
