import numpy as np
import pytest

from slet import engine, oracle, potentials
from slet.errors import OracleError


def test_effective_potential_examples():
    assert oracle.effective_potential(3, 1, potentials.coulomb(), 1.0) == \
        pytest.approx(0.0, abs=1e-15)
    free = potentials.expression("0*r")
    assert oracle.effective_potential(2, 0, free, 2.0) == pytest.approx(-1.0 / 16.0)
    linear = potentials.power(1.0, 1.0)
    assert oracle.effective_potential(3, 0, linear, 3.0) == pytest.approx(3.0)


def test_effective_potential_vectorized():
    r = np.array([0.5, 1.0, 2.0])
    got = oracle.effective_potential(3, 2, potentials.coulomb(), r)
    assert np.allclose(got, 6.0 / r**2 - 2.0 / r)
    with pytest.raises(ValueError):
        oracle.effective_potential(4, 0, potentials.coulomb(), 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        oracle.OracleConfig(box_radius=0.0)
    with pytest.raises(ValueError):
        oracle.OracleConfig(grid_points=50)
    with pytest.raises(ValueError):
        oracle.OracleConfig(eig_tol=0.0)
    with pytest.raises(ValueError):
        oracle.eigenvalue(3, 0, -1, potentials.coulomb())


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


@pytest.mark.parametrize("dim,l,n", [(3, 0, 500), (2, 1, 501)])
def test_larger_box_keeps_the_grid_spacing(dim, l, n):
    # N + 1 odd in 3D, N odd in 2D: a 1.5x box on 1.5x the points would
    # change h, and the grid change would show up as a box shift
    pot = potentials.coulomb() if dim == 3 else potentials.donor(0.0, 1)
    cfg = oracle.OracleConfig(box_radius=40.0, grid_points=n, eig_tol=1e-9)
    res = oracle.eigenvalue(dim, l, 0, pot, cfg)
    assert abs(res.box_shift) < 1e-9


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
