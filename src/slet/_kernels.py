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

Resuming: sturm_walk returns the last row's q beside the counts, and can
start from a carried-in q. So a matrix's rows can be walked in pieces, and
two matrices whose leading rows agree can walk those rows once and go on
from the same q. sturm_counts is the one-shot walk over all rows.
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
    return sturm_walk(diag, off2, shifts.reshape(-1), pivmin)[0] \
        .reshape(shifts.shape)


def sturm_walk(diag, off2, shifts, pivmin, q=None, start=0, stop=None):
    """(counts, q): the negative q of rows start..stop-1 per shift in the
    1-D shifts, and the q of row stop - 1.

    Without q, row start begins the recurrence; with q, the q of row
    start - 1, the walk resumes there, so walks over consecutive row ranges
    that hand on their q sum to the counts of one walk, bit for bit. q is
    read, never written, so one q may seed several walks.
    """
    stop = diag.shape[0] if stop is None else stop
    counts = np.zeros(shifts.size, dtype=np.int64)
    if q is None:
        q = diag[start] - shifts
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        counts += q < 0
        start += 1
    buf = np.empty((min(stop - start, _BLOCK), shifts.size))
    rows = list(buf)
    tmp = np.empty_like(shifts)
    coeffs = off2[start - 1:stop - 1].tolist()
    for i0 in range(start, stop, _BLOCK):
        m = min(stop - i0, _BLOCK)
        block, c = buf[:m], coeffs[i0 - start:i0 - start + m]
        np.subtract(diag[i0:i0 + m, None], shifts, out=block)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _recurrence(rows[:m], c, q, tmp)
        if (np.abs(block) < pivmin).any():
            np.subtract(diag[i0:i0 + m, None], shifts, out=block)
            _recurrence(rows[:m], c, q, tmp, pivmin)
        counts += (block < 0).sum(axis=0)
        q = block[-1].copy()
    return counts, q


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
