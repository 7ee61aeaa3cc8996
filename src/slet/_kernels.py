"""Sturm-sequence eigenvalue counting.

The oracle spends nearly all its time counting eigenvalues below trial
shifts, so that loop lives here: a walk down the rows of the matrix for one
shift at a time, in plain Python floats (Barth, Martin & Wilkinson, Numer.
Math. 9, 1967).

Counting rule: for the symmetric tridiagonal matrix with diagonal `diag`
and squared off-diagonal `off2`, the number of eigenvalues below `shift`
equals the number of negative values of the recurrence

    q_0 = diag[0] - shift
    q_i = (diag[i] - shift) - off2[i-1] / q_{i-1}

where each q is clamped into -pivmin whenever |q| < pivmin, before its sign
is inspected. Clamping first keeps the recurrence finite and makes an exact
zero count as negative, so a shift sitting exactly on an eigenvalue counts
it (the at-most-shift convention; ties are measure-zero for bisection).
A clamped q is never zero, so the division never divides by zero. The
count is monotone in the shift, in IEEE arithmetic too (Demmel, Dhillon &
Ren, ETNA 3, 1995), which lets a search bisect on the shift.

One shift per walk: a numpy walk vectorized over the shifts pays numpy's
per-call cost on every row, 1.3 us a row at 2 shifts and 2.1-2.2 us at
255, while this loop costs 0.08-0.12 us a row (the oracle's 2D and 3D
operators at N = 8000, one CPU, one session). A bisection needs one
count per step, so it walks one shift at a time. The rows are read
through a memoryview, which hands out Python floats and slices without
copying, so diag and off2 are float64 buffers: numpy arrays or
array.array('d').

Resuming: sturm_walk returns the last row's q beside the count, and can
start from a carried-in q. So a matrix's rows can be walked in pieces, and
two matrices whose leading rows agree can walk those rows once and go on
from the same q. sturm_counts is the one-shot walk over all rows, one
shift at a time.
"""
from __future__ import annotations

import importlib.util
import math
from itertools import chain

import numpy as np

# recorded by perfbench/worker.py in its environment record
BACKEND = "python"
# recorded by perfbench/worker.py; find_spec does not import numba
HAS_NUMBA = importlib.util.find_spec("numba") is not None


def sturm_counts(diag, off2, shifts, pivmin):
    """Eigenvalue counts below each shift, one walk per shift."""
    shifts = np.asarray(shifts, dtype=np.float64)
    counts = [sturm_walk(diag, off2, s, pivmin)[0]
              for s in shifts.ravel().tolist()]
    return np.array(counts, dtype=np.int64).reshape(shifts.shape)


def sturm_walk(diag, off2, shift, pivmin, q=None, start=0, stop=None):
    """(count, q): how many q of rows start..stop-1 are negative at shift,
    and the q of row stop - 1.

    Without q, row start begins the recurrence; with q, the q of row
    start - 1, the walk resumes there, so walks over consecutive row ranges
    that hand on their q sum to the count of one walk, bit for bit. q is a
    plain float, so one q may seed several walks.
    """
    diag, off2 = memoryview(diag), memoryview(off2)
    shift, pivmin = float(shift), float(pivmin)
    stop = len(diag) if stop is None else stop
    if q is None:
        # 0 / inf is 0.0, and x - 0.0 is x: row start gets diag - shift
        q, coeffs = math.inf, chain((0.0,), off2[start:stop - 1])
    else:
        coeffs = off2[start - 1:stop - 1]
    count = 0
    for d, c in zip(diag[start:stop], coeffs):
        q = (d - shift) - c / q
        # q < pivmin is a negative q or one the clamp makes -pivmin
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
    return count, q
