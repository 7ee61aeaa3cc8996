import ast
import pathlib

import numpy as np
import pytest

from slet import _kernels, engine, oracle, potentials
from slet.errors import OracleError


def test_effective_potential_examples():
    assert oracle.effective_potential(3, 1, potentials.coulomb(), 1.0) == \
        pytest.approx(0.0, abs=1e-15)
    free = potentials.expression("0*r")
    assert oracle.effective_potential(2, 0, free, 2.0) == 0.0
    linear = potentials.power(1.0, 1.0)
    assert oracle.effective_potential(3, 0, linear, 3.0) == pytest.approx(3.0)


def test_effective_potential_vectorized():
    r = np.array([0.5, 1.0, 2.0])
    got = oracle.effective_potential(3, 2, potentials.coulomb(), r)
    assert np.allclose(got, 6.0 / r**2 - 2.0 / r)
    with pytest.raises(ValueError):
        oracle.effective_potential(4, 0, potentials.coulomb(), 1.0)


@pytest.mark.parametrize("dim,l,cent", [
    (2, 0, 0.0), (2, 1, 1.0), (2, 2, 4.0),  # m^2 for R itself
    (3, 0, 0.0), (3, 1, 2.0), (3, 2, 6.0),  # l(l + 1) for u = r R
])
def test_effective_potential_carries_each_schemes_centrifugal_term(dim, l, cent):
    r = np.array([0.25, 1.0, 3.0])
    pot = potentials.coulomb()
    got = oracle.effective_potential(dim, l, pot, r)
    assert np.allclose(got, cent / r**2 + pot.value(r), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_two_dimensional_diagonal_is_the_effective_potential(m):
    pot = potentials.donor(2.0, m)
    n = 50
    h = oracle._spacing(2, 5.0, n)
    diag, _ = oracle._operator(2, m, pot, h, n)
    rho = (np.arange(1, n + 1) - 0.5) * h
    want = 2.0 / h**2 + oracle.effective_potential(2, m, pot, rho)
    want[-1] += oracle._outer_face(n, h)
    assert np.array_equal(diag, want)


def test_oracle_imports_nothing_from_the_expansion():
    # the judge shares only the potential definitions with the expansion
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add((node.module or "").rpartition(".")[2])
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name.rpartition(".")[2] for a in node.names)
    assert not names & {"engine", "jets", "expr", "closedform"}


def test_config_validation():
    with pytest.raises(ValueError):
        oracle.OracleConfig(box_radius=0.0)
    with pytest.raises(ValueError):
        oracle.OracleConfig(grid_points=50)
    with pytest.raises(ValueError):
        oracle.OracleConfig(eig_tol=0.0)
    with pytest.raises(ValueError):
        oracle.eigenvalue(3, 0, -1, potentials.coulomb())


@pytest.mark.parametrize("l,k", [(-1, 0), (-2, 0), (0.5, 0), (True, 0),
                                 (0, 0.5), (0, True), (1.0, 0)])
def test_quantum_numbers_must_be_non_negative_integers(l, k):
    # l(l + 1) is the same at l and -1 - l, so l = -1 would solve l = 0
    with pytest.raises(ValueError, match="non-negative integer"):
        oracle.eigenvalue(3, l, k, potentials.coulomb())


@pytest.mark.parametrize("n", [400.0, True, "400"])
def test_grid_points_must_be_an_integer(n):
    with pytest.raises(ValueError, match="integer"):
        oracle.OracleConfig(grid_points=n)


@pytest.mark.parametrize("l,k", [(10**400, 0), (0, 10**400)],
                         ids=["l", "k"])
def test_quantum_numbers_beyond_the_float_range_raise(l, k):
    with pytest.raises(ValueError, match="beyond the float range"):
        oracle.eigenvalue(3, l, k, potentials.coulomb())


def test_judge_refuses_a_level_the_expansion_refuses():
    # l = |m| is the potential's rule, so the oracle and SletProblem share it
    pot = potentials.donor(1.0, -1)
    cfg = oracle.OracleConfig(box_radius=20.0, grid_points=400)
    with pytest.raises(ValueError, match=r"^2D donor requires l = \|m\|; "
                                         r"got l=0, m=-1$"):
        oracle.eigenvalue(2, 0, 0, pot, cfg)
    with pytest.raises(ValueError, match="2D donor requires"):
        engine.SletProblem(2, 0, 0, pot)
    pot.check_level(2, 1)
    for l in (0, 1, 2):
        pot.check_level(3, l)


def test_escaped_index_raises():
    cfg = oracle.OracleConfig(grid_points=100)
    with pytest.raises(OracleError):
        oracle.eigenvalue(3, 0, 100, potentials.coulomb(), cfg)


def test_non_finite_effective_potential_raises():
    pot = potentials.expression("ln(r - 20)")
    cfg = oracle.OracleConfig(grid_points=100)
    with pytest.raises(OracleError):
        oracle.eigenvalue(3, 0, 0, pot, cfg)


def test_tolerance_below_float_resolution_terminates():
    cfg = oracle.OracleConfig(grid_points=200, eig_tol=1e-20)
    res = oracle.eigenvalue(3, 0, 0, potentials.coulomb(), cfg)
    assert res.energy == pytest.approx(-1.0, abs=0.05)


def test_hydrogen_ground_state():
    cfg = oracle.OracleConfig(box_radius=40.0, grid_points=8000)
    res = oracle.eigenvalue(3, 0, 0, potentials.coulomb(), cfg)
    assert res.energy == pytest.approx(-1.0, abs=1e-4)
    assert res.energy_extrapolated == pytest.approx(-1.0, abs=1e-5)
    assert res.converged


def test_linear_potential_ground_state():
    # reduced equation -u'' + r u = E u: lowest level at the first Airy root
    cfg = oracle.OracleConfig(box_radius=30.0, grid_points=6000)
    res = oracle.eigenvalue(3, 0, 0, potentials.power(1.0, 1.0), cfg)
    assert res.energy == pytest.approx(2.33811, abs=1e-4)
    assert res.energy_extrapolated == pytest.approx(2.3381074, abs=1e-5)
    assert res.converged


def test_levels_increase_with_node_count():
    cfg = oracle.OracleConfig(grid_points=2000)
    es = [oracle.eigenvalue(3, 0, k, potentials.coulomb(), cfg).energy
          for k in range(3)]
    assert es[0] < es[1] < es[2]
    assert es[1] == pytest.approx(-0.25, abs=1e-3)
    assert es[2] == pytest.approx(-1.0 / 9.0, abs=1e-3)


def test_second_order_grid_convergence():
    cases = [
        (potentials.coulomb(), 40.0, -1.0),
        (potentials.harmonic(2.0), 15.0, 3.0),
    ]
    for pot, radius, exact in cases:
        errs = []
        for n in (1000, 2000):
            cfg = oracle.OracleConfig(box_radius=radius, grid_points=n,
                                      eig_tol=1e-9)
            errs.append(oracle.eigenvalue(3, 0, 0, pot, cfg).energy - exact)
        ratio = errs[0] / errs[1]
        assert 2.5 < ratio < 6.0, (pot.family, errs)


@pytest.mark.parametrize("m", [0, -1, 2])
def test_two_dimensional_scheme_is_second_order_for_every_m(m):
    # Landau levels of m*g + g^2 rho^2/4; m=0 included, where a 3-point
    # scheme on u = sqrt(rho) R converges only logarithmically
    g = 2.0
    pot = potentials.expression("m*g + g^2*r^2/4", {"m": float(m), "g": g})
    exact = g * (abs(m) + m + 1)
    errs = []
    for n in (400, 800):
        cfg = oracle.OracleConfig(box_radius=8.0, grid_points=n,
                                  eig_tol=1e-9)
        errs.append(oracle.eigenvalue(2, abs(m), 0, pot, cfg).energy - exact)
    assert 3.5 < errs[0] / errs[1] < 4.5, errs


@pytest.mark.parametrize("m,zero", [(0, 2.404825557695773),
                                    (1, 3.8317059702075123)])
def test_disc_wall_sits_at_the_box_radius(m, zero):
    # free particle in a unit disc: E = j_{m,1}^2, with R = 0 on the wall
    free = potentials.expression("0*r")
    cfg = oracle.OracleConfig(box_radius=1.0, grid_points=400, eig_tol=1e-9)
    res = oracle.eigenvalue(2, m, 0, free, cfg)
    assert res.energy_extrapolated == pytest.approx(zero**2, abs=1e-8)


def _dense_operator(dim, l, pot, radius, n):
    # the documented schemes, assembled densely as an independent reference
    if dim == 2:
        h = radius / n
        i = np.arange(1, n + 1, dtype=float)
        rho = (i - 0.5) * h
        faces = i * h  # rho_{i+1/2}
        diag = ((faces + faces - h) / (rho * h * h) + l * l / rho**2
                + pot.value(rho))
        diag[-1] += faces[-1] / (rho[-1] * h * h)  # ghost R_{N+1} = -R_N
        off = -faces[:-1] / (h * h * np.sqrt(rho[:-1] * rho[1:]))
    else:
        h = radius / (n + 1)
        r = h * np.arange(1, n + 1)
        diag = 2.0 / h**2 + l * (l + 1) / r**2 + pot.value(r)
        off = np.full(n - 1, -1.0 / h**2)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("dim,l,k,pot,radius,n", [
    (3, 0, 2, potentials.coulomb(), 40.0, 300),
    # the N/32 coarse grid has a node on the pole at r = 2, so the search
    # starts from the Gershgorin window
    (3, 0, 0, potentials.expression("1/(r-2)^2"), 11.0, 320),
    (2, 0, 0, potentials.donor(0.0, 0), 20.0, 400),
    (2, 1, 1, potentials.donor(3.0, -1), 6.0, 300),
])
def test_energy_is_the_matrix_eigenvalue(dim, l, k, pot, radius, n):
    cfg = oracle.OracleConfig(box_radius=radius, grid_points=n, eig_tol=1e-6)
    res = oracle.eigenvalue(dim, l, k, pot, cfg)
    want = np.linalg.eigvalsh(_dense_operator(dim, l, pot, radius, n))[k]
    assert abs(res.energy - want) <= cfg.eig_tol / 8.0
    # the box about 1.5x larger, on the same h
    if dim == 2:
        n_box = round(1.5 * n)
        radius_box = radius / n * n_box
    else:
        n_box = round(1.5 * (n + 1)) - 1
        radius_box = radius / (n + 1) * (n_box + 1)
    want = np.linalg.eigvalsh(_dense_operator(dim, l, pot, radius_box, n_box))[k]
    assert abs(res.energy + res.box_shift - want) <= cfg.eig_tol / 8.0


@pytest.mark.parametrize("dim,l,n", [(3, 0, 500), (2, 1, 501)])
def test_larger_box_keeps_the_grid_spacing(dim, l, n):
    # N + 1 odd in 3D, N odd in 2D: a 1.5x box on 1.5x the points would
    # change h, and the grid change would show up as a box shift
    pot = potentials.coulomb() if dim == 3 else potentials.donor(0.0, 1)
    cfg = oracle.OracleConfig(box_radius=40.0, grid_points=n, eig_tol=1e-9)
    res = oracle.eigenvalue(dim, l, 0, pot, cfg)
    assert res.box_shift == 0.0


def test_box_shift_below_the_search_resolution_reads_zero():
    # hydrogen 1s at R = 40 moves by about e^-80 in the larger box: the two
    # bisections read the same counts at every shift, so they probe the
    # same shifts and return the same midpoint
    res = oracle.eigenvalue(3, 0, 0, potentials.coulomb())
    assert res.box_shift == 0.0


def test_small_box_is_reported_unconverged():
    # the n=2 hydrogen state reaches far beyond a 6-Bohr box; the box
    # doubling run must expose that instead of quietly returning garbage
    cfg = oracle.OracleConfig(box_radius=6.0, grid_points=1000)
    res = oracle.eigenvalue(3, 0, 1, potentials.coulomb(), cfg)
    assert not res.converged
    assert abs(res.box_shift) > cfg.eig_tol


def test_zero_field_donor_honesty():
    # at R=40, N=4000 the raw h and h/2 values of the m=0 level still move
    # by 3e-4, more than eig_tol, and the result must say so
    res = oracle.eigenvalue(2, 0, 0, potentials.donor(0.0, 0))
    assert not res.converged
    # |m|=1 converges fine and lands on the -(n+|m|+1/2)^-2 spectrum
    res = oracle.eigenvalue(2, 1, 0, potentials.donor(0.0, 1))
    assert res.energy_extrapolated == pytest.approx(-4.0 / 9.0, abs=1e-4)


@pytest.mark.parametrize("pot,cases", [
    (potentials.coulomb(), [(0, 0), (1, 0), (0, 1)]),
    (potentials.harmonic(2.0), [(0, 0), (1, 0), (0, 1)]),
])
def test_expansion_matches_oracle_on_exact_families(pot, cases):
    for l, n in cases:
        cfg = oracle.OracleConfig(eig_tol=1e-9)
        res = oracle.eigenvalue(3, l, n, pot, cfg)
        br = engine.solve(engine.SletProblem(3, l, n, pot))
        assert br.E_total == pytest.approx(res.energy_extrapolated, rel=1e-8)


@pytest.mark.parametrize("pot", [
    potentials.power(1.0, 1.0),
    potentials.log_potential(1.0, 1.0),
])
def test_expansion_tracks_oracle_on_generic_confining_potentials(pot):
    for l in range(3):
        for n in range(3):
            res = oracle.eigenvalue(3, l, n, pot)
            br = engine.solve(engine.SletProblem(3, l, n, pot))
            assert br.E_total == pytest.approx(res.energy, rel=5e-3), (l, n)


@pytest.mark.parametrize("m,ref,rel", [(0, 0.815508, 0.015),
                                       (-1, 0.910714, 0.001)])
def test_high_field_donor_against_the_oracle(m, ref, rel):
    # at gamma = 200 the oracle (R = 5, extrapolated) gives E/gamma = ref,
    # well below the Landau value 1, and the expansion tracks it to `rel`
    gamma = 200.0
    pot = potentials.donor(gamma, m)
    cfg = oracle.OracleConfig(box_radius=5.0, grid_points=4000, eig_tol=1e-6)
    res = oracle.eigenvalue(2, abs(m), 0, pot, cfg)
    assert res.energy_extrapolated / gamma == pytest.approx(ref, abs=1e-4)
    br = engine.solve(engine.SletProblem(2, abs(m), 0, pot))
    assert br.E_total / gamma == pytest.approx(ref, rel=rel)


def test_extrapolation_is_exact_on_a_quadratic_in_h_squared():
    def e(h):
        return -1.0 + 0.3 * h**2 - 0.05 * h**4
    points = [(h, e(h)) for h in (0.8, 0.4, 0.2)]
    for h in (0.1, 0.05, 0.0):
        assert oracle._extrapolate(points, h) == pytest.approx(e(h), abs=1e-14)
    # the window is centred on the guess and reaches at least tol to
    # either side, which it does exactly at the finest point's spacing
    lo, hi = oracle._window(points, 0.1, 1e-6)
    assert 0.5 * (lo + hi) == pytest.approx(e(0.1), abs=1e-14)
    assert hi - lo >= 2e-6
    lo, hi = oracle._window(points, 0.2, 1e-6)
    assert hi - lo == pytest.approx(2e-6, rel=1e-9)


def test_window_takes_the_last_three_points():
    points = [(h, -1.0 + 0.3 * h**2) for h in (1.6, 0.8, 0.4, 0.2)]
    # fewer than two points leave the search its Gershgorin window
    assert oracle._window([], 0.1, 1e-6) is None
    assert oracle._window(points[:1], 0.1, 1e-6) is None
    assert oracle._window(points, 0.1, 1e-6) == \
        oracle._window(points[1:], 0.1, 1e-6)


def test_golden_case_row_budget(monkeypatch):
    # the golden validate case takes at most 10 N one-shift row steps in
    # all: three coarse grids, the N-point bisection, the larger box's own
    # rows, and the h/2 grid. Every walk, sturm_counts' included, goes
    # through _kernels.sturm_walk, or oracle's name for it. A walk that
    # settles steps no more rows than the shortest walk from its start
    # that settles too, which bisection on stop finds
    steps = []
    walk = _kernels.sturm_walk

    def counted_walk(diag, off2, shift, pivmin, q=None, start=0, stop=None,
                     limit=None, tail=None):
        def settles(end):
            return walk(diag, off2, shift, pivmin, q=q, start=start, stop=end,
                        limit=limit, tail=tail)[1] is None

        lo, hi = start, len(diag) if stop is None else stop
        if settles(hi):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if settles(mid) else (mid, hi)
        steps.append(hi - start)
        return walk(diag, off2, shift, pivmin, q=q, start=start, stop=stop,
                    limit=limit, tail=tail)

    monkeypatch.setattr(_kernels, "sturm_walk", counted_walk)
    monkeypatch.setattr(oracle, "sturm_walk", counted_walk)
    n = 1500
    cfg = oracle.OracleConfig(box_radius=20.0, grid_points=n)
    oracle.eigenvalue(3, 0, 0, potentials.coulomb(), cfg)
    assert 0 < sum(steps) <= 10 * n


def test_golden_case_walks_each_count_once(monkeypatch):
    # a window keeps the count of the end it moves from, and the N-point
    # rows the larger box goes on from are walked once per shift
    walks = []
    walk = oracle.sturm_walk

    def recorded(diag, off2, shift, pivmin, q=None, start=0, stop=None,
                 limit=None, tail=None):
        walks.append((len(diag), start, stop, shift))
        return walk(diag, off2, shift, pivmin, q=q, start=start, stop=stop,
                    limit=limit, tail=tail)

    monkeypatch.setattr(oracle, "sturm_walk", recorded)
    cfg = oracle.OracleConfig(box_radius=20.0, grid_points=1500)
    oracle.eigenvalue(3, 0, 0, potentials.coulomb(), cfg)
    assert walks and len(set(walks)) == len(walks)


def _count(diag, off2, shift, pivmin):
    # the documented counting rule, row by row at one shift: the negative
    # pivots, each clamped to -pivmin first where it is smaller than pivmin
    count, q = 0, None
    for i, d in enumerate(diag.tolist()):
        q = d - shift if i == 0 else d - shift - float(off2[i - 1]) / q
        if abs(q) < pivmin:
            q = -pivmin
        count += q < 0
    return count


def _bisection(diag, off2, k, tol, window=None):
    # the k-th eigenvalue by plain bisection, recounting both ends of every
    # window: the reference whose float the search must return bit for bit
    pivmin = oracle._pivmin(off2)
    reach = 2.0 * float(np.sqrt(np.max(off2)))
    g_lo = float(np.nextafter(diag.min() - reach, -np.inf))
    g_hi = float(np.nextafter(diag.max() + reach, np.inf))
    lo, hi = g_lo, g_hi
    if window is not None and g_lo < window[1] and window[0] < g_hi:
        lo, hi = max(window[0], g_lo), min(window[1], g_hi)
    while True:
        counts = _count(diag, off2, lo, pivmin), _count(diag, off2, hi, pivmin)
        grow = max(2.0 * (hi - lo), np.spacing(abs(lo)), np.spacing(abs(hi)))
        if counts[0] <= k < counts[1]:
            break
        if counts[0] > k and lo != g_lo:
            lo, hi = max(g_lo, lo - grow), lo
        elif counts[1] <= k and hi != g_hi:
            lo, hi = hi, min(g_hi, hi + grow)
        else:
            raise OracleError(
                f"eigenvalue {k} escaped the Gershgorin window "
                f"[{g_lo:g}, {g_hi:g}] (counts {counts[0]}, {counts[1]})")
    while True:
        mid = (lo + hi) / 2
        if hi - lo <= tol or mid in (lo, hi):
            return mid
        if _count(diag, off2, mid, pivmin) > k:
            hi = mid
        else:
            lo = mid


def _coulomb_operator(n=300):
    return oracle._operator(3, 0, potentials.coulomb(),
                            oracle._spacing(3, 30.0, n), n)


@pytest.mark.parametrize("k,tol,window", [
    (0, 2.5e-6, None),  # from the Gershgorin window
    (2, 2.5e-6, None),
    (0, 2.5e-6, (-1.05, -0.95)),  # seeded around the level
    (1, 2.5e-9, (-0.3, -0.2)),
    (0, 2.5e-6, (0.5, 0.6)),  # seeded above the level: the window grows
    (1, 2.5e-6, (-5.0, -4.0)),  # seeded below it
    (0, 1e-300 / 4, (-1.05, -0.95)),  # stops at float resolution
])
def test_search_returns_the_bisection_float(k, tol, window):
    diag, off2 = _coulomb_operator()
    got = oracle._kth_eigenvalue(diag, off2, k, tol, window)
    assert got == _bisection(diag, off2, k, tol, window)


@pytest.mark.parametrize("window", [(0.5, 0.6), (-5.0, -4.0)])
def test_a_moving_window_counts_each_shift_once(window):
    # the end a window moves from keeps its count
    diag, off2 = _coulomb_operator()
    pivmin = oracle._pivmin(off2)
    shifts = []

    def count(shift):
        shifts.append(shift)
        return _kernels.sturm_walk(diag, off2, shift, pivmin)[0]

    got = oracle._kth_eigenvalue(diag, off2, 0, 2.5e-6, window, count)
    assert got == _bisection(diag, off2, 0, 2.5e-6, window)
    assert len(set(shifts)) == len(shifts)


def _clamped_bottom():
    # a diagonal matrix whose least entry, 0, lies within pivmin of the
    # Gershgorin lower end: the clamp counts it there, so the count at that
    # end exceeds k = 0, and the search caps the counts it reads at 1
    diag = np.arange(50, dtype=float)
    return (diag, np.zeros(diag.size - 1)), 0


def _past_the_top():
    # an index beyond the matrix: no count reaches it
    diag, off2 = _coulomb_operator(120)
    return (diag, off2), diag.size + 3


@pytest.mark.parametrize("case", [_past_the_top, _clamped_bottom],
                         ids=["past_the_top", "clamped_bottom"])
@pytest.mark.parametrize("window", [None, (-1.05, -0.95)])
def test_escaped_index_reports_the_full_counts(window, case):
    (diag, off2), k = case()
    with pytest.raises(OracleError) as want:
        _bisection(diag, off2, k, 2.5e-6, window)
    with pytest.raises(OracleError, match=r"\(counts \d+, \d+\)") as got:
        oracle._kth_eigenvalue(diag, off2, k, 2.5e-6, window)
    assert str(got.value) == str(want.value)
