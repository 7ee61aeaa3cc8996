import numpy as np

from slet import _kernels


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
