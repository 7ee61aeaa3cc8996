"""Sturm-sequence eigenvalue counting.

The oracle spends nearly all its time counting eigenvalues below trial
shifts, so that loop lives here: one numpy kernel that walks the rows and
is vectorized over the shifts (Barth, Martin & Wilkinson, Numer. Math. 9,
1967).

Counting rule: for the symmetric tridiagonal matrix with diagonal `diag`
and squared off-diagonal `off2`, the number of eigenvalues below `shift`
equals the number of negative values of the recurrence

    q_0 = diag[0] - shift
    q_i = diag[i] - shift - off2[i-1] / q_{i-1}

where each q is clamped into -pivmin whenever |q| < pivmin, before its sign
is inspected. Clamping first keeps the recurrence finite and makes an exact
zero count as negative, so a shift sitting exactly on an eigenvalue counts
it (the at-most-shift convention; ties are measure-zero for bisection).

Block form: after row 0, the rows are taken _BLOCK at a time in one
preallocated (_BLOCK, shifts) buffer. One call fills a block with
diag - shift; each row then costs two in-place ufuncs, off2[i-1] / q_{i-1}
into a scratch row and its subtraction, which is (diag[i] - shift) -
off2[i-1] / q_{i-1} in the same order as the formula above, so every q is
the same IEEE value. This pass does not clamp. Clamping changes a row only
where |q| < pivmin, so if no q of the block lies below pivmin, the
unclamped rows equal the clamped ones, and the block's signs are counted
in one call. Otherwise the block is recomputed from its carried-in row,
clamping every row, as the formula says. Either way each block hands its
last row to the next, and the counts are bit for bit those of the row by
row recurrence. An unclamped pass that meets a zero pivot divides by zero
before its block is redone, so that pass runs with numpy's divide, invalid
and overflow warnings off.
"""
from __future__ import annotations

import importlib.util

import numpy as np

# recorded by perfbench/worker.py in its environment record
BACKEND = "numpy"
# recorded by perfbench/worker.py; find_spec does not import numba
HAS_NUMBA = importlib.util.find_spec("numba") is not None

# rows per block: 64 to 256 ran equally fast, 512 about 10 % slower
_BLOCK = 128


def sturm_counts(diag, off2, shifts, pivmin):
    """Eigenvalue counts below each shift; rows in blocks, vector over shifts."""
    shifts = np.asarray(shifts, dtype=np.float64)
    flat = shifts.reshape(-1)
    q = diag[0] - flat
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    counts = (q < 0).astype(np.int64)
    n = diag.shape[0]
    buf = np.empty((min(n - 1, _BLOCK), flat.size))
    rows = list(buf)
    tmp = np.empty_like(flat)
    coeffs = off2.tolist()
    for i0 in range(1, n, _BLOCK):
        m = min(n - i0, _BLOCK)
        block, c = buf[:m], coeffs[i0 - 1:i0 - 1 + m]
        np.subtract(diag[i0:i0 + m, None], flat, out=block)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _recurrence(rows[:m], c, q, tmp)
        if (np.abs(block) < pivmin).any():
            np.subtract(diag[i0:i0 + m, None], flat, out=block)
            _recurrence(rows[:m], c, q, tmp, pivmin)
        counts += (block < 0).sum(axis=0)
        q = block[-1].copy()
    return counts.reshape(shifts.shape)


def _recurrence(rows, coeffs, above, tmp, pivmin=None):
    """Run q_i = (diag[i] - shift) - off2[i-1] / q_{i-1} down `rows` in place.

    rows hold diag - shift on entry, coeffs the off2 linking each row to
    the one above it, and above the q of the row before the first. With
    pivmin, each row is clamped to -pivmin where |q| < pivmin.
    """
    for row, c in zip(rows, coeffs):
        np.divide(c, above, out=tmp)
        row -= tmp
        if pivmin is not None:
            row[np.abs(row) < pivmin] = -pivmin
        above = row
