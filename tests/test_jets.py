import math

import numpy as np
import pytest

from slet import expr, jets, potentials
from slet.errors import DomainError, SingularityError


def jets_close(a, b, tol=1e-12):
    for x, y in zip(a.coeffs, b.coeffs):
        assert abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def test_seed_coefficients():
    assert jets.seed(2.0).coeffs == (2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert jets.seed(1.0).coeffs == (1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
def test_seed_rejects_bad_point(bad):
    with pytest.raises(DomainError):
        jets.seed(bad)


def test_square_by_multiplication():
    r = jets.seed(3.0)
    assert (r * r).coeffs == (9.0, 6.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def test_reciprocal_is_geometric_series():
    inv = jets.const(1.0) / jets.seed(2.0)
    expect = (0.5, -0.25, 0.125, -0.0625, 0.03125, -0.015625, 0.0078125)
    assert inv.coeffs == pytest.approx(expect, rel=1e-15)


def test_divide_by_zero_jet():
    with pytest.raises(SingularityError):
        jets.seed(1.0) / jets.const(0.0)


def test_ln_mercator_series():
    v = jets.ln(jets.seed(1.0))
    expect = (0.0, 1.0, -1 / 2, 1 / 3, -1 / 4, 1 / 5, -1 / 6)
    assert v.coeffs == pytest.approx(expect, rel=1e-15)


def test_integer_power_matches_multiplication():
    r = jets.seed(3.0)
    assert jets.powr(r, 2).coeffs == (r * r).coeffs
    assert jets.powr(r, 2.0).coeffs == (r * r).coeffs


def test_sqrt_of_negative():
    with pytest.raises(SingularityError):
        jets.sqrt(jets.const(-1.0))


def test_ln_of_zero():
    with pytest.raises(SingularityError):
        jets.ln(jets.const(0.0))


def test_derivative_extraction():
    inv = jets.const(-2.0) / jets.seed(1.0)
    assert inv.derivative(3) == pytest.approx(12.0, rel=1e-14)
    r = jets.seed(5.0)
    assert (r * r).derivative(2) == 2.0
    lg = jets.ln(jets.seed(2.0))
    assert lg.derivative(1) == pytest.approx(0.5, rel=1e-14)


def test_derivative_order_out_of_range():
    j = jets.seed(1.0)
    with pytest.raises(ValueError):
        j.derivative(7)
    with pytest.raises(ValueError):
        j.derivative(-1)


def _random_jet(rng, positive=False):
    # leading coefficient kept away from zero so division stays well
    # conditioned; tails modest so roundtrips do not amplify rounding
    c = rng.uniform(-1.0, 1.0, size=jets.NCOEF)
    c[0] = rng.uniform(0.5, 2.0)
    if not positive and rng.random() < 0.5:
        c[0] = -c[0]
    return jets.Jet(tuple(c))


def test_ring_axioms_on_random_jets():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        a = _random_jet(rng)
        b = _random_jet(rng)
        c = _random_jet(rng)
        jets_close(a + b, b + a)
        jets_close(a * b, b * a)
        jets_close((a + b) + c, a + (b + c))
        jets_close((a * b) * c, a * (b * c))
        jets_close(a * (b + c), a * b + a * c, tol=1e-11)
        jets_close(a * (b / a), b, tol=1e-11)


def test_elementary_inverses_on_random_jets():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = _random_jet(rng, positive=True)
        jets_close(jets.exp(jets.ln(a)), a, tol=1e-11)
        jets_close(jets.sqrt(a) * jets.sqrt(a), a, tol=1e-11)
        s, c = jets.sin(a), jets.cos(a)
        jets_close(s * s + c * c, jets.const(1.0), tol=1e-11)


@pytest.mark.parametrize("r0", [0.7, 1.3])
def test_integer_power_is_the_binomial_series(r0):
    # (r0 + h)^n = sum_k n!/(n-k)!/k! r0^(n-k) h^k, for negative n too
    r = jets.seed(r0)
    for n in range(-5, 41):
        got = jets.powr(r, n).coeffs
        for k in range(jets.NCOEF):
            want = math.prod(range(n - k + 1, n + 1)) / math.factorial(k) \
                * r0 ** (n - k)
            assert abs(got[k] - want) <= 1e-13 * abs(want), (n, k)


@pytest.mark.parametrize("p", [float("inf"), -float("inf"), float("nan")])
def test_non_finite_power_takes_the_exp_ln_path(p):
    got = jets.powr(jets.seed(2.0), p)
    assert all(np.isnan(c) or np.isinf(c) or c == 0 for c in got.coeffs)


def test_real_power_matches_exp_ln():
    a = jets.seed(2.5)
    p = 1.7
    jets_close(jets.powr(a, p), jets.exp(jets.const(p) * jets.ln(a)))


# builtin hand-coded jets vs the same potential parsed and evaluated
# through jet arithmetic, in several spellings, all orders, random points;
# {name} in a spelling is that parameter's value as a literal
SPELLINGS = {
    "coulomb": ["-2/r", "-2*exp(-ln(r))", "2/(-r)", "-2*r^-1"],
    "harmonic": ["B^2*r^2/4", "({B}*r/2)^2", "B*B*r*r*0.25"],
    "power": ["A*r^nu", "{A}*sqrt(r^(2*{nu}))", "A*exp(nu*ln(r))"],
    "log": ["A*ln(r/b)", "{A}*ln(r)-{A}*ln({b})", "-A*ln(b/r)"],
    "donor": ["-2/r + m*gamma + gamma^2*r^2/4",
              "({gamma}*r/2)^2 - 2/r + {m}*{gamma}"],
}


def test_builtins_match_expression_jets():
    rng = np.random.default_rng(101)
    builtins = [
        potentials.coulomb(),
        potentials.harmonic(1.7),
        potentials.power(0.8, 2.6),
        potentials.log_potential(1.3, 0.6),
        potentials.donor(2.2, -1),
    ]
    for pot in builtins:
        assert SPELLINGS[pot.family][0] == pot.as_expression()
        points = rng.uniform(0.1, 50.0, size=20)
        for spelling in SPELLINGS[pot.family]:
            src = spelling.format(**{k: repr(v) for k, v in pot.params.items()})
            alt = potentials.expression(src, pot.params)
            for r0 in points:
                a = pot.eval_jet(float(r0))
                b = alt.eval_jet(float(r0))
                for k in range(7):
                    x, y = a.derivative(k), b.derivative(k)
                    assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y)), \
                        (src, r0, k)


@pytest.mark.parametrize("src,value", [("0", 0.0), ("2^0.5", 2**0.5),
                                       ("ln(exp(3))*4", 12.0)])
def test_a_source_free_of_r_is_a_constant_jet(src, value):
    pot = potentials.expression(src)
    for r0 in (1.5, np.array([0.5, 2.0])):
        jet = pot.eval_jet(r0)
        assert isinstance(jet, jets.Jet)
        assert jet.coeffs[0] == pytest.approx(value, rel=1e-15)
        assert all(np.all(c == 0.0) for c in jet.coeffs[1:])


def test_an_exponent_that_depends_on_r():
    # 2^r = exp(r ln 2): c_k = 2^r0 (ln 2)^k / k!
    for r0 in (0.3, 1.7, 4.0):
        got = potentials.expression("2^r").eval_jet(r0).coeffs
        want = [2**r0 * math.log(2) ** k / math.factorial(k)
                for k in range(jets.NCOEF)]
        assert got == pytest.approx(want, rel=1e-14)
    # r^r: (r^r)' = r^r (ln r + 1), (r^r)'' = r^r ((ln r + 1)^2 + 1/r)
    for r0 in (0.3, 1.7, 4.0):
        jet = potentials.expression("r^r").eval_jet(r0)
        u = math.log(r0) + 1.0
        assert jet.derivative(0) == pytest.approx(r0**r0, rel=1e-14)
        assert jet.derivative(1) == pytest.approx(r0**r0 * u, rel=1e-14)
        assert jet.derivative(2) == pytest.approx(
            r0**r0 * (u * u + 1.0 / r0), rel=1e-14)
    with pytest.raises(SingularityError):
        potentials.expression("(-2)^r").eval_jet(1.0)


def test_division_of_r_by_zero_is_a_singularity():
    for r0 in (1.5, np.array([0.5, 2.0])):
        with pytest.raises(SingularityError):
            potentials.expression("r/0").eval_jet(r0)
        with pytest.raises(SingularityError):
            potentials.expression("r/(2 - 2)").eval_jet(r0)


def test_a_constant_division_by_zero_folds_to_inf():
    jet = potentials.expression("1/0 + r").eval_jet(2.0)
    assert jet.coeffs[:2] == (math.inf, 1.0)


def test_plain_numbers_act_on_a_jet_directly():
    r = jets.seed(1.5)
    for two in (2, 2.0, np.float64(2.0)):
        assert (r * two).coeffs == (two * r).coeffs == (3.0, 2.0) + (0.0,) * 5
        assert (r / two).coeffs == (0.75, 0.5) + (0.0,) * 5
        assert (r + two).coeffs == (two + r).coeffs == (3.5, 1.0) + (0.0,) * 5
        assert (r - two).coeffs == (-0.5, 1.0) + (0.0,) * 5
        assert (two - r).coeffs[:2] == (0.5, -1.0)
        assert (two / r).coeffs == (jets.const(2.0) / r).coeffs
        assert isinstance(two * r, jets.Jet) and isinstance(two / r, jets.Jet)
    with pytest.raises(SingularityError):
        r / 0.0


# fourth-order central differences on parsed expressions, orders 1-3;
# the step is relative so singular-looking factors (1/r, ln r) stay resolved
def _fd_derivatives(f, r0):
    h = 1e-3 * r0
    v = {k: f(r0 + k * h) for k in range(-3, 4)}
    d1 = (-v[2] + 8 * v[1] - 8 * v[-1] + v[-2]) / (12 * h)
    d2 = (-v[2] + 16 * v[1] - 30 * v[0] + 16 * v[-1] - v[-2]) / (12 * h**2)
    d3 = (v[-3] - 8 * v[-2] + 13 * v[-1] - 13 * v[1] + 8 * v[2] - v[3]) / (8 * h**3)
    return d1, d2, d3


@pytest.mark.parametrize("src", [
    "exp(-r)*sin(r)",
    "r^2.5 + ln(r)",
    "sqrt(r)/(1 + r^2)",
    "cos(r)/r + r^3",
])
def test_jets_match_finite_differences(src):
    pot = potentials.expression(src)
    ast = expr.parse(src)
    for r0 in (0.7, 1.3, 2.6):
        jet = pot.eval_jet(r0)
        fd = _fd_derivatives(lambda r: expr.evaluate(ast, r, {}), r0)
        for k, want in enumerate(fd, start=1):
            got = jet.derivative(k)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(got), abs(want)), \
                f"{src} order {k} at r0={r0}: jet {got} vs fd {want}"


def test_array_seed_matches_scalar_loop():
    pts = np.array([0.5, 1.0, 2.0, 8.0])
    pot = potentials.power(1.0, 1.5)
    batch = pot.eval_jet(pts)
    for i, r0 in enumerate(pts):
        single = pot.eval_jet(float(r0))
        for k in range(7):
            assert batch.coeffs[k][i] == pytest.approx(single.coeffs[k], rel=1e-14)


def test_jet_value():
    assert jets.seed(2.0).value == 2.0
    arr = jets.seed(np.array([1.0, 2.0]))
    assert np.array_equal(arr.value, [1.0, 2.0])
