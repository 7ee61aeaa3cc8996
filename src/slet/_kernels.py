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
"""
from __future__ import annotations

import importlib.util

import numpy as np

# recorded by perfbench/worker.py in its environment record
BACKEND = "numpy"
# recorded by perfbench/worker.py; find_spec does not import numba
HAS_NUMBA = importlib.util.find_spec("numba") is not None


def sturm_counts(diag, off2, shifts, pivmin):
    """Eigenvalue counts below each shift; loop over rows, vector over shifts."""
    shifts = np.asarray(shifts, dtype=np.float64)
    q = diag[0] - shifts
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    counts = (q < 0).astype(np.int64)
    for i in range(1, diag.shape[0]):
        q = diag[i] - shifts - off2[i - 1] / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        counts += q < 0
    return counts
