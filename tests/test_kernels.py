import array
import contextlib
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- early exits: the count cap and the tail bound ---------------------------

def _with_far_feature(dim, pot, depth):
    # a Gaussian bump (depth < 0) or well (depth > 0) deep in the tail of
    # the operator on 300 points at R = 30, 6 wide at r = 25
    n = 300
    h = oracle._spacing(dim, 30.0, n)
    diag, off2 = oracle._operator(dim, 0, pot, h, n)
    r = h * np.arange(1, n + 1)
    return diag - depth * np.exp(-((r - 25.0) / 3.0) ** 2), off2


def _random_operator(seed):
    rng = np.random.default_rng(seed)
    diag, off = _random_tridiag(rng, 200)
    return diag, off * off


def _noisy_coulomb():
    diag, off2 = _oracle_operator(3, 0, potentials.coulomb(), 30.0)
    return diag + np.random.default_rng(7).uniform(-0.5, 0.5, diag.size), off2


def _oracle_operator(dim, l, pot, radius, n=300):
    return oracle._operator(dim, l, pot, oracle._spacing(dim, radius, n), n)


_OPERATORS = {
    "coulomb3d": lambda: _oracle_operator(3, 0, potentials.coulomb(), 30.0),
    "coulomb3d_l2": lambda: _oracle_operator(3, 2, potentials.coulomb(), 40.0),
    "harmonic3d": lambda: _oracle_operator(3, 1, potentials.harmonic(2.0),
                                           8.0),
    "linear3d": lambda: _oracle_operator(3, 0, potentials.power(1.0, 1.0),
                                         16.0),
    "donor2d": lambda: _oracle_operator(2, 0, potentials.donor(0.0, 0), 30.0),
    "donor2d_gamma": lambda: _oracle_operator(2, 1, potentials.donor(50.0, 1),
                                              6.0),
    "harmonic2d": lambda: _oracle_operator(2, 0, potentials.harmonic(1.0),
                                           10.0),
    "far_bump": lambda: _with_far_feature(3, potentials.coulomb(), -5.0),
    "far_well": lambda: _with_far_feature(3, potentials.coulomb(), 3.0),
    "far_well2d": lambda: _with_far_feature(2, potentials.harmonic(0.05),
                                            2.0),
    "random": lambda: _random_operator(31),
    "random_tail": _noisy_coulomb,
}


@functools.lru_cache(maxsize=None)
def _operator_case(name):
    diag, off2 = _OPERATORS[name]()
    eigs = np.linalg.eigvalsh(_dense(diag, np.sqrt(off2)))
    return diag, off2, eigs, oracle._pivmin(off2)


def _shift(eigs, which, nudge, draw):
    # an eigenvalue of the dense matrix moved by a few ulps or a fixed
    # step, or a random shift across the spectrum and just below it
    if which is None:
        return draw(st.floats(eigs[0] - 5.0, eigs[min(12, eigs.size - 1)]
                              + 1.0))
    e = float(eigs[min(which, eigs.size - 1)])
    if isinstance(nudge, int):
        for _ in range(abs(nudge)):
            e = math.nextafter(e, math.copysign(math.inf, nudge))
        return e
    return e + nudge


@contextlib.contextmanager
def _stride(rows):
    # the tail bound tested every `rows` rows
    kept = _kernels._STRIDE
    _kernels._STRIDE = rows
    try:
        yield
    finally:
        _kernels._STRIDE = kept


@settings(derandomize=True, deadline=None, max_examples=400)
@given(name=st.sampled_from(sorted(_OPERATORS)),
       which=st.one_of(st.none(), st.integers(0, 12)),
       nudge=st.sampled_from([-3, -2, -1, 0, 1, 2, 3,
                              -1e-6, 1e-6, -1e-3, 1e-3]),
       limit=st.one_of(st.none(), st.integers(1, 14)),
       stride=st.sampled_from([1, 7, 32]),
       data=st.data())
def test_settled_walk_gives_the_capped_full_count(name, which, nudge, limit,
                                                  stride, data):
    diag, off2, eigs, pivmin = _operator_case(name)
    shift = _shift(eigs, which, nudge, data.draw)
    full, q_full = _kernels.sturm_walk(diag, off2, shift, pivmin)
    want = full if limit is None else min(full, limit)
    tail = _kernels.tail_bounds(diag, off2)
    split = data.draw(st.integers(1, diag.size - 1))
    with _stride(stride):
        count, q = _kernels.sturm_walk(diag, off2, shift, pivmin, limit=limit,
                                       tail=tail)
        assert count == want
        if q is not None:
            # a walk that did not settle is the full walk, bit for bit
            assert (count, q) == (full, q_full)
        # resumed at split, with the cap less what the head counted
        head, q = _kernels.sturm_walk(diag, off2, shift, pivmin, stop=split,
                                      limit=limit, tail=tail)
        if q is not None:
            rest = None if limit is None else limit - head
            head += _kernels.sturm_walk(diag, off2, shift, pivmin, q=q,
                                        start=split, limit=rest,
                                        tail=tail)[0]
        assert head == want


@settings(derandomize=True, deadline=None, max_examples=150)
@given(l=st.integers(0, 2),
       pot=st.sampled_from(["coulomb", "harmonic", "donor"]),
       which=st.one_of(st.none(), st.integers(0, 8)),
       nudge=st.sampled_from([-3, -1, 0, 1, 3, -1e-6, 1e-6, -1e-3, 1e-3]),
       limit=st.integers(1, 10),
       stride=st.sampled_from([1, 32]),
       data=st.data())
def test_one_settled_head_serves_the_grid_and_the_box(l, pot, which, nudge,
                                                      limit, stride, data):
    # the oracle's 2D sharing: the N-point operator is the box's leading n
    # rows with a larger last diagonal, and one head walk over rows 0..n-2,
    # bounded by the box's tail, counts for both
    potential = {"coulomb": potentials.donor(0.0, l),
                 "harmonic": potentials.harmonic(1.5),
                 "donor": potentials.donor(20.0, l)}[pot]
    n = 201
    h = oracle._spacing(2, 12.0, n)
    box = oracle._operator(2, l, potential, h, round(1.5 * n))
    grid = box[0][:n].copy(), box[1][:n - 1]
    grid[0][-1] += oracle._outer_face(n, h)
    pivmin = oracle._pivmin(grid[1])
    eigs = np.linalg.eigvalsh(_dense(grid[0], np.sqrt(grid[1])))
    shift = _shift(eigs, which, nudge, data.draw)
    tail = _kernels.tail_bounds(*box)
    with _stride(stride):
        head, q = _kernels.sturm_walk(*grid, shift, pivmin, stop=n - 1,
                                      limit=limit, tail=tail)
        for op in (grid, box):
            count = head
            if q is not None:
                count += _kernels.sturm_walk(*op, shift, pivmin, q=q,
                                             start=n - 1, limit=limit - head,
                                             tail=tail)[0]
            assert count == min(_kernels.sturm_walk(*op, shift, pivmin)[0],
                                limit)


def test_tail_bound_settles_a_walk_below_the_spectrum():
    # every pivot is positive far below the spectrum: the walk stops at
    # its first test, having stepped no row
    diag, off2, eigs, pivmin = _operator_case("coulomb3d")
    tail = _kernels.tail_bounds(diag, off2)
    shift = float(eigs[0]) - 100.0
    assert _kernels.sturm_walk(diag, off2, shift, pivmin, tail=tail) == \
        (0, None)
    # a walk over no rows tests nothing and does not settle
    assert _kernels.sturm_walk(diag, off2, shift, pivmin, tail=tail,
                               stop=0) == (0, math.inf)


def test_tail_bound_leaves_the_pivots_the_clamp_counts():
    # decoupled rows whose pivots are positive but below pivmin: the clamp
    # counts each, so no tail test may pass on a bound below pivmin
    diag = np.array([1.0] * 40 + [1e-310] * 20)
    off2 = np.zeros(diag.size - 1)
    pivmin = np.finfo(np.float64).tiny
    tail = _kernels.tail_bounds(diag, off2)
    assert _kernels.sturm_walk(diag, off2, 0.0, pivmin, tail=tail) == \
        _kernels.sturm_walk(diag, off2, 0.0, pivmin) == (20, -pivmin)


def test_tail_bounds_are_suffix_extremes():
    diag = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
    off2 = np.array([2.0, 7.0, 1.0, 0.5])
    dmin, cmax = _kernels.tail_bounds(diag, off2)
    assert list(dmin) == [1.0, 1.0, 1.5, 1.5, 9.0]
    # row i is entered through off2[i - 1]; row 0 takes the bound of row 1
    assert list(cmax) == [7.0, 7.0, 7.0, 1.0, 0.5]
    assert list(_kernels.tail_bounds(np.array([2.0]), np.array([]))[1]) == \
        [0.0]
