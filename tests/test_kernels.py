import array

import numpy as np
import pytest

from slet import _kernels, oracle, potentials


def _random_tridiag(rng, n):
    diag = rng.uniform(-5.0, 5.0, size=n)
    off = rng.uniform(0.1, 3.0, size=n - 1)
    return diag, off


def _dense(diag, off):
    m = np.diag(diag)
    n = len(diag)
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = off[i]
    return m


def _charpoly_sign_changes(diag, off2, shift):
    # leading principal minors of (T - shift I); eigenvalues below the
    # shift equal the sign changes along the minor sequence
    p_prev, p = 1.0, diag[0] - shift
    changes = int(p < 0)
    for i in range(1, len(diag)):
        p_prev, p = p, (diag[i] - shift) * p - off2[i - 1] * p_prev
        if (p < 0) != (p_prev < 0):
            changes += 1
    return changes


def test_counts_match_dense_eigensolver():
    rng = np.random.default_rng(11)
    for n in (2, 3, 7, 20, 50):
        diag, off = _random_tridiag(rng, n)
        off2 = off * off
        eigs = np.linalg.eigvalsh(_dense(diag, off))
        shifts = np.concatenate([
            rng.uniform(eigs[0] - 2.0, eigs[-1] + 2.0, size=15),
            [eigs[0] - 10.0, eigs[-1] + 10.0],
            0.5 * (eigs[:-1] + eigs[1:]),  # midpoints between neighbors
        ])
        want = np.array([(eigs < s).sum() for s in shifts])
        got = _kernels.sturm_counts(diag, off2, shifts, 1e-300)
        assert np.array_equal(got, want), (n, shifts[got != want])


def test_counts_match_characteristic_polynomial():
    rng = np.random.default_rng(23)
    for n in (2, 5, 12, 30):
        diag, off = _random_tridiag(rng, n)
        off2 = off * off
        shifts = rng.uniform(-12.0, 12.0, size=25)
        got = _kernels.sturm_counts(diag, off2, shifts, 1e-300)
        want = [_charpoly_sign_changes(diag, off2, s) for s in shifts]
        assert got.tolist() == want


def test_shift_exactly_on_a_diagonal_matrix_eigenvalue():
    # a shift sitting exactly on an eigenvalue counts it: the zero pivot is
    # clamped to -pivmin before the sign test (at-most-shift convention)
    diag = np.array([1.0, 2.0, 3.0])
    off2 = np.zeros(2)
    got = _kernels.sturm_counts(diag, off2, np.array([2.0]), 1e-300)
    assert got.tolist() == [2]


def test_zero_pivot_mid_recurrence():
    # diag [2,2] with off 1 has eigenvalues 1 and 3; shifting onto either
    # zeroes a pivot partway through, and the eigenvalue hit is counted.
    # the midpoint shift 2 also zeroes the first pivot but must not count
    # anything beyond the one eigenvalue genuinely below it
    diag = np.array([2.0, 2.0])
    off2 = np.array([1.0])
    got = _kernels.sturm_counts(diag, off2, np.array([1.0, 3.0, 2.0]), 1e-300)
    assert got.tolist() == [1, 2, 1]


def test_counts_monotone_in_shift():
    rng = np.random.default_rng(3)
    diag, off = _random_tridiag(rng, 40)
    shifts = np.sort(rng.uniform(-15.0, 15.0, size=60))
    got = _kernels.sturm_counts(diag, off * off, shifts, 1e-300)
    assert np.all(np.diff(got) >= 0)


def _row_by_row(diag, off2, shifts, pivmin):
    # the recurrence one row at a time, vectorized over the shifts and
    # clamping every row: the reference the one-shift walk must reproduce
    # bit for bit. Returns the counts and the last row's q per shift
    shifts = np.asarray(shifts, dtype=np.float64)
    q = diag[0] - shifts
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    counts = (q < 0).astype(np.int64)
    for i in range(1, diag.shape[0]):
        q = diag[i] - shifts - off2[i - 1] / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        counts += q < 0
    return counts, q


def _walks(diag, off2, shifts, pivmin):
    # one sturm_walk per shift over the rows, as the oracle walks them
    out = [_kernels.sturm_walk(diag, off2, s, pivmin) for s in shifts.tolist()]
    return [c for c, _ in out], [q for _, q in out]


def _assert_same_counts(diag, off2, shifts, pivmin):
    want, q_want = _row_by_row(diag, off2, shifts, pivmin)
    got = _kernels.sturm_counts(diag, off2, shifts, pivmin)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    counts, q = _walks(diag, off2, shifts, pivmin)
    assert counts == want.tolist()
    # the same IEEE value of every q, the last row's included
    assert np.array_equal(np.array(q), q_want)
    arrays = array.array("d", diag), array.array("d", off2)
    assert [_kernels.sturm_walk(*arrays, s, pivmin)[0]
            for s in shifts.tolist()] == counts


# the smallest sizes, sizes on both sides of powers of two, and a larger one
@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257, 1000])
def test_blocks_match_the_row_by_row_recurrence(n):
    rng = np.random.default_rng(n)
    diag, off = _random_tridiag(rng, n)
    shifts = np.sort(rng.uniform(-12.0, 12.0, size=255))
    _assert_same_counts(diag, off * off, shifts, 1e-300)


@pytest.mark.parametrize("dim,l,pot", [(3, 1, potentials.coulomb()),
                                       (2, 0, potentials.donor(0.0, 0))])
def test_blocks_match_on_oracle_matrices(dim, l, pot):
    # the oracle's own operator and pivmin, across its Gershgorin window
    n = 1000
    diag, off2 = oracle._operator(dim, l, pot, oracle._spacing(dim, 40.0, n), n)
    reach = 2.0 * np.sqrt(np.max(off2))
    shifts = np.linspace(diag.min() - reach, diag.max() + reach, 255)
    _assert_same_counts(diag, off2, shifts, oracle._pivmin(off2))


@pytest.mark.parametrize("row", [127, 128, 129])
def test_exact_zero_pivot_at_a_block_edge(row):
    # a diagonal matrix shifted onto the eigenvalue of one row: that pivot
    # is exactly zero, is clamped, and the rows after it divide 0 by it
    diag = np.arange(259, dtype=float)
    shifts = np.array([row - 0.5, float(row), row + 0.5])
    _assert_same_counts(diag, np.zeros(diag.size - 1), shifts, 1e-300)
    assert _kernels.sturm_counts(diag, np.zeros(diag.size - 1), shifts,
                                 1e-300).tolist() == [row, row + 1, row + 1]


_TINY_ROW = 193


def _tiny_pivot_matrix():
    # one nonzero pivot below pivmin, on row _TINY_ROW, decoupled from its
    # neighbours
    diag = np.linspace(1.0, 3.0, 261)
    diag[_TINY_ROW] = 1e-310
    off2 = np.full(diag.size - 1, 0.25)
    off2[_TINY_ROW - 1] = off2[_TINY_ROW] = 0.0
    return diag, off2


def test_tiny_pivot_inside_a_block():
    # the pivot below pivmin is clamped to -pivmin and counts as negative,
    # so its eigenvalue 1e-310 counts at shift 0 (where pivots
    # couple, the sign of a tiny pivot moves to the next row, and the count
    # does not tell the clamp)
    diag, off2 = _tiny_pivot_matrix()
    pivmin = np.finfo(np.float64).tiny
    shifts = np.array([-1.0, 0.0, 1.0])
    _assert_same_counts(diag, off2, shifts, pivmin)
    assert _kernels.sturm_counts(diag, off2, shifts, pivmin)[1] == 1
    # the clamped q is what the walk hands on
    assert _kernels.sturm_walk(diag, off2, 0.0, pivmin,
                               stop=_TINY_ROW + 1) == (1, -pivmin)


def _assert_resumed_walks_match(diag, off2, shifts, pivmin, splits):
    want, q_want = _row_by_row(diag, off2, shifts, pivmin)
    for s, c_want, q_one in zip(shifts.tolist(), want.tolist(),
                                q_want.tolist()):
        count, q, start = 0, None, 0
        for stop in splits + [diag.size]:
            piece, q = _kernels.sturm_walk(diag, off2, s, pivmin, q=q,
                                           start=start, stop=stop)
            count += piece
            start = stop
        assert (count, q) == (c_want, q_one) == _kernels.sturm_walk(
            diag, off2, s, pivmin)


@pytest.mark.parametrize("splits", [
    [129],
    [64],
    [_TINY_ROW],  # just before the sub-pivmin pivot
    [1, 64, 129, _TINY_ROW, _TINY_ROW + 1, 260],
])
def test_resumed_walk_matches_one_walk(splits):
    diag, off2 = _tiny_pivot_matrix()
    shifts = np.array([-1.0, 0.0, 1e-310, 1.0, 2.0, 2.5])
    _assert_resumed_walks_match(diag, off2, shifts,
                                np.finfo(np.float64).tiny, splits)


def test_walk_split_at_every_row():
    # each row its own walk, on the oracle's operator near its lowest levels
    n = 60
    diag, off2 = oracle._operator(3, 0, potentials.coulomb(),
                                  oracle._spacing(3, 20.0, n), n)
    shifts = np.linspace(-1.2, 0.5, 9)
    _assert_resumed_walks_match(diag, off2, shifts, oracle._pivmin(off2),
                                list(range(1, n)))


def test_one_carried_q_seeds_two_walks():
    # the oracle's shared pass: rows 0..n-2 walked once, then two
    # matrices that differ in row n - 1 and beyond go on from the same q
    rng = np.random.default_rng(5)
    diag, off = _random_tridiag(rng, 384)
    off2 = off * off
    n = 263
    short = diag[:n].copy()
    short[-1] += 0.75
    shifts = np.sort(rng.uniform(-12.0, 12.0, size=255))
    want_short = _row_by_row(short, off2[:n - 1], shifts, 1e-300)[0]
    want_long = _row_by_row(diag, off2, shifts, 1e-300)[0]
    for s, w_short, w_long in zip(shifts.tolist(), want_short.tolist(),
                                  want_long.tolist()):
        head, q = _kernels.sturm_walk(diag, off2, s, 1e-300, stop=n - 1)
        last = _kernels.sturm_walk(short, off2[:n - 1], s, 1e-300, q=q,
                                   start=n - 1)
        rest = _kernels.sturm_walk(diag, off2, s, 1e-300, q=q, start=n - 1)
        assert (head + last[0], head + rest[0]) == (w_short, w_long)
