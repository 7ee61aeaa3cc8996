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

Early exits: a bisection for the k-th eigenvalue only asks whether a count
exceeds k, so a walk may stop once that answer is settled; it then returns
None for q. Neither exit changes the answer at any shift, so a search
probes the same shifts and returns the same float with them as without.

- Count cap: counts only grow along the rows, so the walk stops when its
  count reaches limit (k + 1) and returns min(full count, limit).
- Tail bound: past row i, every row has diag - shift >= a = dmin_i - shift
  and off2 <= C = cmax_i, the suffix extremes of tail_bounds, computed
  once per operator. If a > 2 sqrt(C), the map q -> a - C/q is increasing
  and maps [q-, q+], the interval between its fixed points, into itself,
  so from q >= q- on no q is negative and the count is final. The walk
  tests this every _STRIDE rows from its first row (where a fresh walk's
  q is inf), in the form: with t = min(q, a/2), t >= pivmin and
  a - C/t >= t. t = a/2 lies in [q-, q+] whenever a^2 >= 4C, so up to
  rounding the test passes for every q >= q-. It needs no margin
  because it is made with the walk's own float operations, and IEEE
  rounding is monotone: while q >= t, each later row has
  fl(diag - shift) >= a and fl(off2/q) <= fl(C/t), so its q is at least
  fl(a - fl(C/t)) >= t. t >= pivmin keeps the clamp from firing in the
  rows the walk skips.
"""
from __future__ import annotations

import importlib.util
import math
from itertools import chain, islice

import numpy as np

# recorded by perfbench/worker.py in its environment record
BACKEND = "python"
# recorded by perfbench/worker.py; find_spec does not import numba
HAS_NUMBA = importlib.util.find_spec("numba") is not None

# rows walked between two tests of the tail bound
_STRIDE = 32


def sturm_counts(diag, off2, shifts, pivmin):
    """Eigenvalue counts below each shift, one walk per shift."""
    shifts = np.asarray(shifts, dtype=np.float64)
    counts = [sturm_walk(diag, off2, s, pivmin)[0]
              for s in shifts.ravel().tolist()]
    return np.array(counts, dtype=np.int64).reshape(shifts.shape)


def tail_bounds(diag, off2):
    """(dmin, cmax), by row i: the least diagonal of rows i and beyond, and
    the greatest off2 that enters them. One pair per operator serves every
    walk on it, and on any operator whose rows it bounds; a walk tests them
    every _STRIDE rows from its first row."""
    diag = np.asarray(diag, dtype=np.float64)
    off2 = np.asarray(off2, dtype=np.float64)
    dmin = np.minimum.accumulate(diag[::-1])[::-1].copy()
    cmax = np.zeros_like(dmin)
    if off2.size:
        cmax[1:] = np.maximum.accumulate(off2[::-1])[::-1]
        cmax[0] = cmax[1]
    return memoryview(dmin), memoryview(cmax)


def sturm_walk(diag, off2, shift, pivmin, q=None, start=0, stop=None,
               limit=None, tail=None):
    """(count, q): how many q of rows start..stop-1 are negative at shift,
    and the q of row stop - 1, or (count, None) from a walk that settled
    early.

    Without q, row start begins the recurrence; with q, the q of row
    start - 1, the walk resumes there, so walks over consecutive row ranges
    that hand on their q sum to the count of one walk, bit for bit. q is a
    plain float, so one q may seed several walks.

    A walk settles, and returns None for q, when the count reaches limit
    (a positive count), or when tail, the tail_bounds of an operator whose
    rows bound these rows from start on, shows that no later q is negative.
    A settled count is min(full count, limit) either way.
    """
    diag, off2 = memoryview(diag), memoryview(off2)
    shift, pivmin = float(shift), float(pivmin)
    stop = len(diag) if stop is None else stop
    if q is None:
        # 0 / inf is 0.0, and x - 0.0 is x: row start gets diag - shift
        q, coeffs = math.inf, chain((0.0,), off2[start:stop - 1])
    else:
        coeffs = off2[start - 1:stop - 1]
    rows = zip(diag[start:stop], coeffs)
    if limit is None:
        limit = stop - start + 1
    if tail is None:
        tests = ()
    else:
        dmin, cmax = tail
        tests = range(start, stop, _STRIDE)
    count, row = 0, start
    for edge in chain(tests, (stop,)):
        for d, c in islice(rows, edge - row):
            q = (d - shift) - c / q
            # q < pivmin is a negative q or one the clamp makes -pivmin
            if q < pivmin:
                count += 1
                if count >= limit:
                    return count, None
                if q > -pivmin:
                    q = -pivmin
        row = edge
        if edge < stop:
            # the tail bound at row edge, in the walk's own rounding
            a = dmin[edge] - shift
            t = q if q < 0.5 * a else 0.5 * a
            if t >= pivmin and a - cmax[edge] / t >= t:
                return count, None
    return count, q
