import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slet import expr, potentials
from slet.errors import DomainError, ParseError, SletError


def test_coulomb_jet_at_unit_radius():
    jet = potentials.coulomb().eval_jet(1.0)
    assert jet.derivative(0) == pytest.approx(-2.0)
    assert jet.derivative(1) == pytest.approx(2.0)
    assert jet.derivative(2) == pytest.approx(-4.0)
    assert jet.derivative(3) == pytest.approx(12.0)


def test_quadratic_power_jet():
    jet = potentials.power(1.0, 2.0).eval_jet(3.0)
    assert jet.derivative(0) == pytest.approx(9.0)
    derivs = tuple(jet.derivative(k) for k in range(1, 7))
    assert derivs == pytest.approx((6.0, 2.0, 0.0, 0.0, 0.0, 0.0), abs=1e-14)


def test_donor_without_field_is_coulomb():
    a = potentials.donor(0.0, 0).eval_jet(1.7)
    b = potentials.coulomb().eval_jet(1.7)
    assert a.coeffs == pytest.approx(b.coeffs, rel=1e-15)


@pytest.mark.parametrize("gamma,m", [(0.5, 0), (2.0, -1), (7.3, 3)])
def test_donor_decomposes_into_coulomb_plus_field_terms(gamma, m):
    rng = np.random.default_rng(5)
    for rho in rng.uniform(0.1, 20.0, size=8):
        rho = float(rho)
        d = potentials.donor(gamma, m).eval_jet(rho)
        c = potentials.coulomb().eval_jet(rho)
        extra = [m * gamma + gamma**2 * rho**2 / 4.0,
                 gamma**2 * rho / 2.0,
                 gamma**2 / 4.0, 0.0, 0.0, 0.0, 0.0]
        for k in range(7):
            want = c.coeffs[k] + extra[k]
            assert d.coeffs[k] == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_value_accepts_arrays():
    r = np.array([0.5, 1.0, 2.0, 4.0])
    assert np.allclose(potentials.coulomb().value(r), -2.0 / r)
    assert np.allclose(potentials.harmonic(2.0).value(r), r * r)
    assert np.allclose(potentials.log_potential(1.0, 2.0).value(r), np.log(r / 2.0))
    got = potentials.donor(1.0, -1).value(r)
    assert np.allclose(got, -2.0 / r - 1.0 + r * r / 4.0)


def test_value_matches_jet_leading_coefficient():
    for pot in (potentials.power(0.7, 1.3), potentials.harmonic(5.0)):
        for r in (0.3, 1.0, 6.0):
            assert pot.value(r) == pytest.approx(pot.eval_jet(r).value, rel=1e-14)


@pytest.mark.parametrize("make", [
    lambda: potentials.harmonic(0.0),
    lambda: potentials.harmonic(-1.0),
    lambda: potentials.power(0.0, 2.0),
    lambda: potentials.power(1.0, -0.5),
    lambda: potentials.power(float("nan"), 1.0),
    lambda: potentials.log_potential(-1.0, 1.0),
    lambda: potentials.log_potential(1.0, 0.0),
    lambda: potentials.donor(-0.1, 0),
    lambda: potentials.donor(1.0, 0.5),
])
def test_factory_rejects_out_of_range_parameters(make):
    with pytest.raises(DomainError):
        make()


@pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan, 10**400, 0.5])
def test_donor_m_must_be_a_finite_integer(m):
    with pytest.raises(DomainError, match="m must be a finite integer"):
        potentials.donor(1.0, m)


def test_donor_over_an_array_of_gammas():
    lanes = potentials.donor(np.array([0.0, 0.5, 2.0]), -1)
    assert lanes.params["gamma"].tolist() == [0.0, 0.5, 2.0]
    assert lanes.params["m"] == -1
    assert type(potentials.donor(0.5, -1).params["gamma"]) is float
    for bad, shown in [(-0.5, "-0.5"), (math.nan, "nan"), (math.inf, "inf")]:
        with pytest.raises(DomainError,
                           match=f"gamma must be non-negative, got {shown}$"):
            potentials.donor(np.array([0.5, bad, 2.0, -7.0]), 0)


def test_a_scalar_r_on_lanes_is_refused():
    lanes = potentials.donor(np.array([0.0, 0.5, 2.0]), -1)
    assert lanes.value(np.array([1.5])).shape == (3,)
    with pytest.raises(ValueError, match="a scalar r gives 3 values"):
        lanes.value(1.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_expression_parameter_must_be_finite(value):
    with pytest.raises(DomainError, match=f"A must be finite, got {value}$"):
        potentials.expression("A*r", {"A": value})


@pytest.mark.parametrize("build", [
    lambda: potentials.donor(10**400, 0),
    lambda: potentials.harmonic(10**400),
    lambda: potentials.power(1, 10**400),
    lambda: potentials.expression("A*r", {"A": 10**400}),
], ids=["donor", "harmonic", "power", "expression"])
def test_an_integer_beyond_the_float_range_is_a_domain_error(build):
    with pytest.raises(DomainError, match="int too large to convert to float"):
        build()


def test_harmonic_jet_overflows_to_inf():
    # B^2 overflows as the spelled B^2*r^2/4 does, without an exception
    jet = potentials.harmonic(1e200).eval_jet(1.0)
    assert jet.coeffs[:3] == (math.inf,) * 3


@pytest.mark.parametrize("name", [expr.VARIABLE, *expr.FUNCTIONS])
def test_expression_refuses_a_reserved_parameter_name(name):
    # r always reads as the variable and exp as the function: such a
    # parameter could never be referenced, and would be silently ignored
    with pytest.raises(DomainError, match=f"parameter name '{name}' is "
                       "reserved by the expression language$"):
        potentials.expression("r^2", {name: 3.0})


def test_expression_requires_bound_parameters():
    with pytest.raises(ParseError) as err:
        potentials.expression("A*r + C*r^2", {"A": 1.0})
    assert "C" in str(err.value)
    assert err.value.offset == 6


def test_expression_round_trips_source():
    pot = potentials.expression("A*exp(-r)/r", {"A": 2.0})
    assert pot.as_expression() == "A*exp(-r)/r"
    assert pot.family == "expression"
    assert pot.value(1.0) == pytest.approx(2.0 * np.exp(-1.0))


def test_from_name_resolves_builtins():
    pot = potentials.from_name_or_source("harmonic", {"B": 2.0})
    assert pot.family == "harmonic"
    assert pot.value(1.0) == pytest.approx(1.0)


def test_from_name_missing_parameter():
    with pytest.raises(DomainError) as err:
        potentials.from_name_or_source("harmonic", {})
    assert "B" in str(err.value)


def test_from_name_extra_parameter():
    with pytest.raises(DomainError) as err:
        potentials.from_name_or_source("coulomb", {"Z": 2.0})
    assert "Z" in str(err.value)


def test_from_name_falls_back_to_expression():
    pot = potentials.from_name_or_source("r^2/4", None)
    assert pot.family == "expression"
    assert pot.value(2.0) == pytest.approx(1.0)


def test_from_name_bad_expression_is_parse_error():
    with pytest.raises(ParseError):
        potentials.from_name_or_source("r +", None)


def test_eval_jet_at_array_of_points():
    pts = np.array([0.5, 1.0, 2.0])
    jet = potentials.coulomb().eval_jet(pts)
    assert np.allclose(jet.coeffs[0], -2.0 / pts)
    assert np.allclose(jet.coeffs[1], 2.0 / pts**2)


# -- arbitrary text ------------------------------------------------------------

_TOKENS = ("r", "0", "2", "0.5", "1e3", "1e400", "A", "nu", "+", "-", "*", "/",
           "^", "**", "(", ")", "ln", "exp", "sqrt", "sin", "cos", " ", ".")
_SOURCES = st.one_of(
    st.text(alphabet="r0123456789.eE+-*/^() lnexpsqrtcoiA_", max_size=30),
    st.lists(st.sampled_from(_TOKENS), max_size=20).map("".join))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(src=_SOURCES)
def test_arbitrary_text_builds_a_potential_or_raises_slet_error(src):
    # anything else escaping here would reach the CLI as a traceback
    try:
        pot = potentials.expression(src, {"A": 1.5, "nu": 0.5})
    except SletError:
        return
    for r in (0.7, np.array([0.5, 1.0, 3.0])):
        for values in (lambda: pot.eval_jet(r).coeffs, lambda: [pot.value(r)]):
            try:
                got = values()
            except SletError:
                continue
            for c in got:
                assert np.asarray(c, dtype=float).shape in ((), np.shape(r))
