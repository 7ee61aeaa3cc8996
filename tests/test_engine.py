import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slet import closedform, engine, potentials
from slet.engine import (
    TERM_E0,
    TERM_E2,
    SletProblem,
    SolverSettings,
)
from slet.errors import (
    InvalidExpansionPointError,
    NoBoundStateError,
    NoRootError,
    SingularityError,
    SletError,
)
from slet.jets import Jet


def _problem(pot, l=0, n=0, dim=3, **kw):
    solver = SolverSettings(**kw) if kw else SolverSettings()
    return SletProblem(dim, l, n, pot, solver)


# -- frequency, shift -----------------------------------------------------


def test_frequency_examples():
    assert engine.omega(potentials.coulomb(), 0.7) == pytest.approx(2.0, rel=1e-14)
    assert engine.omega(potentials.coulomb(), 13.0) == pytest.approx(2.0, rel=1e-14)
    assert engine.omega(potentials.harmonic(2.0), 1.3) == pytest.approx(4.0, rel=1e-14)
    assert engine.omega(potentials.power(1.0, 2.0), 0.4) == pytest.approx(4.0, rel=1e-14)
    assert engine.omega(potentials.log_potential(1.0, 1.0), 5.0) == \
        pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
    # general power law: 2 sqrt(nu + 2), independent of r and A
    assert engine.omega(potentials.power(2.0, 0.5), 3.0) == \
        pytest.approx(2.0 * math.sqrt(2.5), rel=1e-13)


def test_frequency_needs_rising_potential():
    with pytest.raises(NoBoundStateError):
        engine.omega(potentials.expression("-r"), 1.0)


def test_frequency_rejects_negative_radicand():
    with pytest.raises(InvalidExpansionPointError):
        engine.omega(potentials.expression("-1/r^3"), 1.0)


def test_shift_examples():
    assert engine.beta_shift(3, 0, 2.0) == -1.0
    assert engine.beta_shift(3, 0, 4.0) == -1.5
    assert engine.beta_shift(2, 0, 4.0) == -1.0
    assert engine.beta_shift(3, 2, 2.0) == -3.0
    assert np.allclose(engine.beta_shift(3, 0, np.array([2.0, 4.0])), [-1.0, -1.5])


# -- expansion point -------------------------------------------------------


def test_expansion_point_coulomb():
    r0, candidates = engine.solve_r0(_problem(potentials.coulomb()))
    assert r0 == pytest.approx(1.0, rel=1e-10)
    assert candidates
    assert all(r > 0 for r, _ in candidates)


def test_expansion_point_harmonic():
    r0, _ = engine.solve_r0(_problem(potentials.harmonic(2.0)))
    assert r0 == pytest.approx(math.sqrt(1.5), rel=1e-10)


def test_expansion_point_linear():
    r0, _ = engine.solve_r0(_problem(potentials.power(1.0, 1.0)))
    lbar = (math.sqrt(3.0) + 1.0) / 2.0
    assert r0 == pytest.approx((2.0 * lbar**2) ** (1.0 / 3.0), rel=1e-10)


def test_root_exactly_on_grid_endpoint():
    # the scan grid ends at bracket_hi; coulomb l=0 has its root exactly there
    r0, _ = engine.solve_r0(_problem(potentials.coulomb(), bracket_hi=1.0))
    assert r0 == 1.0


def test_missing_root_suggests_widening():
    prob = _problem(potentials.coulomb(), l=5, bracket_hi=1.0)
    with pytest.raises(NoRootError) as err:
        engine.solve_r0(prob)
    assert "widen" in str(err.value)


def test_solve_propagates_window_errors():
    with pytest.raises(NoBoundStateError):
        engine.solve_r0(_problem(potentials.expression("-r")))
    with pytest.raises(InvalidExpansionPointError):
        engine.solve_r0(_problem(potentials.expression("-1/r^3")))


# -- coefficient tables -----------------------------------------------------


def test_coefficient_table_coulomb():
    jet = potentials.coulomb().eval_jet(1.0)
    eps, dlt, e, d = engine.appendix_coeffs(3, -1.0, 1.0, 1.0, jet, 2.0)
    assert eps == pytest.approx((2.0, -3.0, -2.0, 3.0))
    assert e == pytest.approx((math.sqrt(2.0), -1.5, -1.0 / math.sqrt(2.0), 0.75))
    assert dlt == pytest.approx((0.0, 0.0, 4.0, -5.0, -4.0, 5.0))


def test_coefficient_table_harmonic():
    r0 = math.sqrt(1.5)
    jet = potentials.harmonic(2.0).eval_jet(r0)
    eps, dlt, e, d = engine.appendix_coeffs(3, -1.5, r0, 2.25, jet, 4.0)
    assert eps == pytest.approx((4.0, -6.0, -4.0, 5.0))
    assert e == pytest.approx((2.0, -1.5, -0.5, 0.3125))
    assert dlt == pytest.approx((-1.5, 2.25, 8.0, -10.0, -6.0, 7.0))
    assert d == pytest.approx(tuple(dlt[i] / 2.0 ** (i + 1) for i in range(6)))


def test_coefficient_table_2d_zero_shift():
    jet = potentials.coulomb().eval_jet(1.0)
    eps, dlt, _, _ = engine.appendix_coeffs(2, 0.0, 1.0, 1.0, jet, 2.0)
    assert eps[0] == 0.0 and eps[1] == 0.0
    assert dlt[2] == 0.0 and dlt[3] == 0.0
    assert dlt[0] == pytest.approx(0.5)
    assert dlt[1] == pytest.approx(-0.75)


def test_alpha1_examples():
    e_coulomb = (math.sqrt(2.0), -1.5, -1.0 / math.sqrt(2.0), 0.75)
    assert engine.alpha1(0, 2.0, e_coulomb) == pytest.approx(0.0, abs=1e-14)
    e_harmonic = (2.0, -1.5, -0.5, 0.3125)
    assert engine.alpha1(0, 4.0, e_harmonic) == pytest.approx(-0.75, rel=1e-14)


def test_third_order_vanishes_for_exact_families():
    for l in range(3):
        for n in range(3):
            br = engine.solve(_problem(potentials.coulomb(), l=l, n=n))
            assert abs(br.alpha2) < 1e-9
            br = engine.solve(_problem(potentials.harmonic(2.0), l=l, n=n))
            assert abs(br.alpha2) < 1e-9


def test_log_second_order_closed_value():
    br = engine.solve(_problem(potentials.log_potential(1.0, 1.0)))
    assert br.beta * (1.0 + br.beta) + br.alpha1 == pytest.approx(1.0 / 36.0, rel=1e-10)


def test_log_third_order_closed_value():
    # with r0^2 = 2 lbar^2 / A the third-order term reduces to
    # A (58n^3 + 87n^2 + 31n + 1) / (864 sqrt(2) lbar^3)
    for n in range(4):
        br = engine.solve(_problem(potentials.log_potential(1.0, 1.0), n=n))
        poly = 58 * n**3 + 87 * n**2 + 31 * n + 1
        assert br.E3_over_lbar3 == pytest.approx(
            poly / (864.0 * math.sqrt(2.0) * br.lbar**3), rel=1e-9)


# -- full solves ------------------------------------------------------------


def test_coulomb_spectrum_exact():
    for l in range(3):
        for n in range(3):
            br = engine.solve(_problem(potentials.coulomb(), l=l, n=n))
            assert br.E_total == pytest.approx(-1.0 / (n + l + 1) ** 2, abs=1e-10)
            assert abs(br.E2_over_lbar2) < 1e-10
            assert abs(br.E3_over_lbar3) < 1e-10


def test_harmonic_spectrum_exact():
    for B in (1.0, 5.0):
        for l in range(2):
            for n in range(2):
                br = engine.solve(_problem(potentials.harmonic(B), l=l, n=n))
                assert br.E_total == pytest.approx(B * (2 * n + l + 1.5), rel=1e-12)


def test_landau_levels_exact():
    gamma = 1.0
    for m in (-2, 0, 1):
        for n in (0, 1):
            pot = potentials.expression(
                "m*gamma + gamma^2*r^2/4", {"m": m, "gamma": gamma})
            br = engine.solve(SletProblem(2, abs(m), n, pot))
            assert br.E_total == pytest.approx(
                gamma * (2 * n + abs(m) + m + 1), rel=1e-11)


def test_2d_coulomb_levels():
    for l, n in [(0, 0), (0, 1), (1, 0), (2, 1)]:
        br = engine.solve(SletProblem(2, l, n, potentials.coulomb()))
        assert br.E_total == pytest.approx(-1.0 / (n + l + 0.5) ** 2, abs=1e-9)
        zero_field = engine.solve(SletProblem(2, l, n, potentials.donor(0.0, l)))
        assert zero_field.E_total == pytest.approx(br.E_total, rel=1e-12)


def test_linear_potential_breakdown():
    br = engine.solve(_problem(potentials.power(1.0, 1.0)))
    assert br.E0 == pytest.approx(2.3267002771068674, rel=1e-12)
    assert br.E2_over_lbar2 == pytest.approx(0.011545138153334342, rel=1e-10)
    assert br.E3_over_lbar3 == pytest.approx(0.00040662912772350147, rel=1e-10)
    assert br.E_total == pytest.approx(2.3386520443879255, rel=1e-12)


def test_donor_magnetic_term_is_a_pure_shift():
    up = engine.solve(SletProblem(2, 1, 0, potentials.donor(2.0, 1)))
    down = engine.solve(SletProblem(2, 1, 0, potentials.donor(2.0, -1)))
    assert up.E_total - down.E_total == pytest.approx(4.0, rel=1e-12)
    assert up.r0 == pytest.approx(down.r0, rel=1e-12)


# -- cross-cutting invariants -----------------------------------------------


INVARIANT_CASES = [
    (3, potentials.coulomb(), 0, 0),
    (3, potentials.coulomb(), 2, 1),
    (3, potentials.harmonic(1.0), 1, 1),
    (3, potentials.power(2.0, 0.5), 0, 1),
    (3, potentials.power(1.0, 3.0), 2, 0),
    (3, potentials.log_potential(1.0, 0.5), 1, 0),
    (2, potentials.donor(0.5, -1), 1, 1),
    (2, potentials.coulomb(), 0, 1),
    (3, potentials.expression("exp(r/10) - 1"), 0, 0),
]


@pytest.mark.parametrize("dim,pot,l,n", INVARIANT_CASES)
def test_breakdown_invariants(dim, pot, l, n):
    br = engine.solve(SletProblem(dim, l, n, pot))
    assert br.lbar == pytest.approx(l - br.beta, rel=1e-14)
    assert br.lbar > 0
    assert br.Q == pytest.approx(br.lbar**2, rel=1e-14)
    assert abs(br.E1) <= 1e-10 * abs(br.E0)
    assert br.E_total == pytest.approx(
        br.E0 + br.E2_over_lbar2 + br.E3_over_lbar3, rel=1e-14)
    rw = math.sqrt(br.w)
    for j in range(4):
        assert br.e[j] == pytest.approx(br.eps[j] / rw ** (j + 1), rel=1e-14)
    for i in range(6):
        assert br.d[i] == pytest.approx(br.dlt[i] / rw ** (i + 1), rel=1e-14)
    # the expansion-point equation holds at the returned r0
    resid = math.sqrt(br.r0**3 * pot.eval_jet(br.r0).derivative(1) / 2.0) - br.lbar
    assert abs(resid) < 1e-10 * br.lbar
    assert any(abs(r - br.r0) <= 1e-12 * br.r0 for r, _ in br.candidates)


def test_power_law_scale_covariance():
    for nu in (0.5, 1.0, 3.0):
        base = engine.solve(_problem(potentials.power(1.0, nu), l=1, n=1)).E_total
        for A in (0.25, 4.0):
            got = engine.solve(_problem(potentials.power(A, nu), l=1, n=1)).E_total
            assert got == pytest.approx(A ** (2.0 / (nu + 2.0)) * base, rel=1e-9)


def test_levels_increase_with_radial_count():
    cases = [
        (3, potentials.power(1.0, 1.0), 1),
        (3, potentials.log_potential(1.0, 1.0), 1),
        (3, potentials.harmonic(2.0), 1),
        (2, potentials.donor(1.0, 1), 1),
    ]
    for dim, pot, l in cases:
        energies = [engine.solve(SletProblem(dim, l, n, pot)).E_total
                    for n in range(5)]
        assert all(b > a for a, b in zip(energies, energies[1:])), energies


# -- configuration and gating ------------------------------------------------


def test_solver_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(bracket_lo=0.0)
    with pytest.raises(ValueError):
        SolverSettings(bracket_lo=2.0, bracket_hi=1.0)
    with pytest.raises(ValueError):
        SolverSettings(scan_points=8)
    with pytest.raises(ValueError):
        SolverSettings(root_tol=1e-3)
    with pytest.raises(ValueError):
        SolverSettings(root_tol=0.0)
    with pytest.raises(ValueError):
        SolverSettings(term_order="through_E1")


def test_problem_validation():
    pot = potentials.coulomb()
    with pytest.raises(ValueError):
        SletProblem(4, 0, 0, pot)
    with pytest.raises(ValueError):
        SletProblem(3, -1, 0, pot)
    with pytest.raises(ValueError):
        SletProblem(3, 0, -2, pot)
    with pytest.raises(ValueError):
        SletProblem(3, True, 0, pot)
    with pytest.raises(ValueError):
        SletProblem(3, 0.5, 0, pot)
    with pytest.raises(ValueError):
        SletProblem(2, 1, 0, potentials.donor(1.0, 0))


def test_term_order_gating():
    pot = potentials.power(1.0, 1.0)
    full = engine.solve(_problem(pot))
    only_e0 = engine.solve(SletProblem(3, 0, 0, pot, SolverSettings(term_order=TERM_E0)))
    through_e2 = engine.solve(SletProblem(3, 0, 0, pot, SolverSettings(term_order=TERM_E2)))
    assert only_e0.E_total == full.E0
    assert through_e2.E_total == full.E0 + full.E2_over_lbar2
    assert full.E_total == full.E0 + full.E2_over_lbar2 + full.E3_over_lbar3


# -- root polish: Newton on the jet's slope, guarded by the scan bracket -----


def _power_and_log_cases():
    for nu in (0.5, 1.0, 1.7, 2.0, 3.0, 4.0):
        for l in range(10):
            for n in range(10):
                yield (potentials.power(1.3, nu),
                       closedform.power_law(1.3, nu, l, n), l, n)
    for b in (0.7, 1.0, 1.9):
        for l in range(10):
            for n in range(10):
                yield (potentials.log_potential(1.0, b),
                       closedform.logarithmic(1.0, b, l, n), l, n)


def test_expansion_point_matches_closed_forms_to_roundoff():
    for pot, ref, l, n in _power_and_log_cases():
        r0, _ = engine.solve_r0(_problem(pot, l=l, n=n))
        assert r0 == pytest.approx(ref.r0, rel=1e-14), (pot.family, pot.params, l, n)


def test_hydrogen_expansion_point_is_exact():
    assert engine.solve_r0(_problem(potentials.coulomb()))[0] == 1.0


def test_loose_root_tol_stays_within_tolerance():
    for pot, dim, l, n in [(potentials.power(1.3, 1.7), 3, 2, 3),
                           (potentials.coulomb(), 3, 1, 4),
                           (potentials.donor(100.0, -1), 2, 1, 2),
                           (potentials.expression("exp(r/10) - 1"), 3, 0, 1)]:
        tight, _ = engine.solve_r0(SletProblem(dim, l, n, pot))
        loose, _ = engine.solve_r0(
            SletProblem(dim, l, n, pot, SolverSettings(root_tol=1e-6)))
        assert abs(loose - tight) <= 1e-6 * tight


def test_root_tol_below_float_resolution_terminates():
    for pot, dim, l in [(potentials.coulomb(), 3, 2),
                        (potentials.donor(100.0, 2), 2, 2)]:
        tight, _ = engine.solve_r0(SletProblem(dim, l, 3, pot))
        finest, _ = engine.solve_r0(
            SletProblem(dim, l, 3, pot, SolverSettings(root_tol=1e-300)))
        assert finest == pytest.approx(tight, rel=1e-15)


@pytest.mark.parametrize("dim,pot,l,n", INVARIANT_CASES)
def test_equation_slope_matches_central_difference(dim, pot, l, n):
    problem = SletProblem(dim, l, n, pot)
    r0, _ = engine.solve_r0(problem)
    for r in (0.8 * r0, r0, 1.3 * r0):
        h = 1e-5 * r
        f_hi, _ = engine._lbar_equation_with_slope(problem, r + h)
        f_lo, _ = engine._lbar_equation_with_slope(problem, r - h)
        _, fp = engine._lbar_equation_with_slope(problem, r)
        assert fp == pytest.approx((f_hi - f_lo) / (2.0 * h), rel=1e-7)


class _NanThirdDerivative(potentials.Potential):
    """Oscillator whose scalar jets carry V''' = nan, so F' is nan at every
    polish iterate; the scan's array jets stay intact."""

    def eval_jet(self, r0):
        jet = super().eval_jet(r0)
        if np.ndim(r0):
            return jet
        return Jet(jet.coeffs[:3] + (math.nan,) + jet.coeffs[4:])


class _FloatErrorJet(potentials.Potential):
    """Oscillator whose scalar jets raise a float error, as Python-float
    arithmetic in a hand jet can."""

    def eval_jet(self, r0):
        if np.ndim(r0):
            return super().eval_jet(r0)
        raise ZeroDivisionError("float division by zero")


def test_polish_bisects_where_the_slope_is_nan():
    pot = _NanThirdDerivative("harmonic", {"B": 2.0}, None)
    r0, _ = engine.solve_r0(_problem(pot))
    assert r0 == pytest.approx(math.sqrt(1.5), rel=1e-12)


def test_polish_bisects_where_the_slope_vanishes(monkeypatch):
    slope = engine._lbar_equation_with_slope
    monkeypatch.setattr(engine, "_lbar_equation_with_slope",
                        lambda problem, r: (slope(problem, r)[0], 0.0))
    r0, _ = engine.solve_r0(_problem(potentials.harmonic(2.0)))
    assert r0 == pytest.approx(math.sqrt(1.5), rel=1e-12)


def test_scalar_jet_failure_inside_bracket_is_a_slet_error():
    # sqrt((r - c)^2 - 1e-4) is defined on every scan point around c =
    # sqrt(1.5), the oscillator's expansion point, but not on the first
    # polish iterate, which lands within 0.01 of c
    c = math.sqrt(1.5)
    pot = potentials.expression(f"r^2 + 1e-6*sqrt((r - {c!r})^2 - 1e-4)")
    with pytest.raises(InvalidExpansionPointError) as err:
        engine.solve_r0(_problem(pot))
    assert isinstance(err.value.__cause__, SingularityError)


def test_float_error_in_scalar_jet_is_a_slet_error():
    with pytest.raises(InvalidExpansionPointError):
        engine.solve_r0(_problem(_FloatErrorJet("harmonic", {"B": 2.0}, None)))


@pytest.mark.parametrize("dim,make", [
    (3, lambda l: potentials.coulomb()),
    (3, lambda l: potentials.harmonic(2.0)),
    (3, lambda l: potentials.power(1.3, 1.7)),
    (3, lambda l: potentials.log_potential(1.0, 0.7)),
    (2, lambda l: potentials.donor(0.0, l)),
    (2, lambda l: potentials.donor(1.0, -l)),
    (2, lambda l: potentials.donor(100.0, l)),
])
def test_polish_needs_few_jets_per_root(monkeypatch, dim, make):
    calls = []
    eval_jet = potentials.Potential.eval_jet

    def counting(self, r0):
        if np.size(r0) == 1:  # a scalar, or a one-point array
            calls.append(r0)
        return eval_jet(self, r0)

    monkeypatch.setattr(potentials.Potential, "eval_jet", counting)
    for l in range(10):
        for n in range(10):
            calls.clear()
            _, candidates = engine.solve_r0(SletProblem(dim, l, n, make(l)))
            # the polish plus one jet per root for the minimum test
            assert len(calls) <= 8 * len(candidates), (l, n, len(calls))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(A=st.floats(0.5, 2.0), nu=st.floats(0.5, 4.0),
       l=st.integers(0, 9), n=st.integers(0, 9))
def test_power_law_breakdown_matches_closed_form(A, nu, l, n):
    ref = closedform.power_law(A, nu, l, n)
    br = engine.solve(_problem(potentials.power(A, nu), l=l, n=n))
    assert br.r0 == pytest.approx(ref.r0, rel=1e-12)
    assert br.w == pytest.approx(ref.w, rel=1e-12)
    assert br.lbar == pytest.approx(ref.lbar, rel=1e-12)
    assert br.E0 == pytest.approx(ref.E0, rel=1e-12)


# -- the scalar solve's jets -------------------------------------------------


def test_solve_reuses_the_jet_at_r0(monkeypatch):
    calls = []
    eval_jet = potentials.Potential.eval_jet

    def counting(self, r0):
        calls.append(r0)
        return eval_jet(self, r0)

    monkeypatch.setattr(potentials.Potential, "eval_jet", counting)
    power = potentials.expression("A*r^nu", {"A": 1.3, "nu": 1.7})
    for dim, pot, l, n in [(2, potentials.donor(5.0, -1), 1, 0),
                           (3, potentials.coulomb(), 2, 1),
                           (3, power, 0, 3)]:
        problem = SletProblem(dim, l, n, pot)
        calls.clear()
        engine.solve_r0(problem)
        in_solve_r0 = len(calls)
        calls.clear()
        engine.solve(problem)
        assert len(calls) == in_solve_r0, (dim, pot.family, l, n)


# -- many levels at once -----------------------------------------------------

_LEVELS = [(l, n) for l in range(10) for n in range(10)]


def _assert_matches_scalar(batch, dim, pot, levels, solver):
    """Each batch result against engine.solve of the same level: breakdowns
    within the stated tolerances, failures with the same type and text."""
    assert len(batch) == len(levels)
    for got, (l, n) in zip(batch, levels):
        try:
            want = engine.solve(SletProblem(dim, l, n, pot, solver))
        except (SletError, ValueError) as exc:
            assert type(got) is type(exc) and str(got) == str(exc), (l, n)
            continue
        assert isinstance(got, engine.SletBreakdown), (l, n, got)
        for name in ("r0", "w", "beta", "lbar", "E0"):
            assert getattr(got, name) == pytest.approx(
                getattr(want, name), rel=1e-14, abs=0.0), (name, l, n)
        scale = 1e-13 * max(abs(want.E_total), 1.0)
        for name in ("E2_over_lbar2", "E3_over_lbar3", "E_total"):
            assert abs(getattr(got, name) - getattr(want, name)) <= scale, \
                (name, l, n)
        assert len(got.candidates) == len(want.candidates), (l, n)
        for (r_got, e_got), (r_want, e_want) in zip(got.candidates,
                                                    want.candidates):
            assert r_got == pytest.approx(r_want, rel=1e-14, abs=0.0)
            assert e_got == pytest.approx(e_want, rel=1e-14, abs=1e-14)


_BATCH_POTENTIALS = {
    "coulomb": potentials.coulomb(),
    "harmonic": potentials.harmonic(1.7),
    "power": potentials.power(1.3, 1.7),
    "log": potentials.log_potential(1.0, 0.7),
    "expression": potentials.expression("exp(r/10) - 1 + A*r",
                                        {"A": 0.2}),
    # two admissible minima on a third of the levels, the lowest E0 at
    # either: the candidate order and the lowest-E0 choice
    "wells": potentials.expression("r^2 + 30*exp(-10*(r - 1.5)^2)"),
}


@pytest.mark.parametrize("dim", [3, 2])
@pytest.mark.parametrize("name", list(_BATCH_POTENTIALS))
def test_solve_levels_matches_scalar_solve(dim, name):
    pot = _BATCH_POTENTIALS[name]
    for order in engine.TERM_ORDERS:
        solver = SolverSettings(term_order=order)
        batch = engine.solve_levels(dim, pot, _LEVELS, solver)
        _assert_matches_scalar(batch, dim, pot, _LEVELS, solver)


def test_solve_levels_settles_regular_levels_in_the_batch(monkeypatch):
    # the scalar path must not be doing the work behind the batch's back
    def refuse(problem):
        raise AssertionError(
            f"scalar solve of l={problem.l}, n={problem.n_radial}")

    monkeypatch.setattr(engine, "solve", refuse)
    for dim, pot in [(3, potentials.power(1.3, 1.7)),
                     (2, potentials.coulomb()),
                     (3, _BATCH_POTENTIALS["expression"])]:
        batch = engine.solve_levels(dim, pot, _LEVELS, SolverSettings())
        assert all(isinstance(b, engine.SletBreakdown) for b in batch)


def test_solve_levels_narrow_window_keeps_the_scalar_errors(monkeypatch):
    # bracket_hi = 1 holds the root of the coulomb ground level only, on
    # the last grid point; every other level has no bracket and takes the
    # scalar search's NoRootError without reaching the scalar path
    solver = SolverSettings(bracket_hi=1.0)
    pot = potentials.coulomb()
    levels = [(l, n) for l in range(3) for n in range(3)]
    scalar = []
    solve = engine.solve
    monkeypatch.setattr(engine, "solve",
                        lambda p: scalar.append((p.l, p.n_radial)) or solve(p))
    batch = engine.solve_levels(3, pot, levels, solver)
    assert scalar == []
    assert isinstance(batch[0], engine.SletBreakdown) and batch[0].r0 == 1.0
    assert all(isinstance(b, NoRootError) for b in batch[1:])
    monkeypatch.undo()
    _assert_matches_scalar(batch, 3, pot, levels, solver)


@pytest.mark.parametrize("src,error", [
    ("-r", NoBoundStateError),  # the scan's error
    ("-1/r^3", InvalidExpansionPointError),  # 3 + r V''/V' = -1: no F
    ("1e13*r", NoRootError),  # F > 0 on the whole window
])
def test_solve_levels_gives_rootless_levels_the_scalar_error(monkeypatch,
                                                            src, error):
    pot = potentials.expression(src)
    solve = engine.solve
    monkeypatch.setattr(engine, "solve", lambda p: pytest.fail("scalar path"))
    batch = engine.solve_levels(3, pot, _LEVELS, SolverSettings())
    assert all(type(b) is error for b in batch)
    monkeypatch.setattr(engine, "solve", solve)
    _assert_matches_scalar(batch, 3, pot, _LEVELS, SolverSettings())


@pytest.mark.parametrize("src", ["1e400 + r", "1e300*1e300 + r", "1/0 + r"])
def test_non_finite_energy_raises(src):
    pot = potentials.expression(src)
    with pytest.raises(InvalidExpansionPointError, match="not finite"):
        engine.solve(_problem(pot))
    batch = engine.solve_levels(3, pot, _LEVELS[:4], SolverSettings())
    _assert_matches_scalar(batch, 3, pot, _LEVELS[:4], SolverSettings())


def test_solve_levels_without_any_bracket():
    pot = potentials.expression("ln(r - 20)")
    batch = engine.solve_levels(3, pot, _LEVELS, SolverSettings())
    assert all(isinstance(b, SletError) for b in batch)
    _assert_matches_scalar(batch, 3, pot, _LEVELS, SolverSettings())


def test_solve_levels_where_a_lane_cannot_be_evaluated():
    # the polish lands inside the hole of the sqrt (see the scalar test
    # above); the level goes to the scalar path and keeps its error
    c = math.sqrt(1.5)
    pot = potentials.expression(f"r^2 + 1e-6*sqrt((r - {c!r})^2 - 1e-4)")
    levels = [(0, 0), (3, 1)]
    batch = engine.solve_levels(3, pot, levels, SolverSettings())
    assert isinstance(batch[0], InvalidExpansionPointError)
    _assert_matches_scalar(batch, 3, pot, levels, SolverSettings())


def test_solve_levels_empty_single_and_rejected():
    pot = potentials.power(1.3, 1.7)
    assert engine.solve_levels(3, pot, [], SolverSettings()) == []
    one = engine.solve_levels(3, pot, [(4, 2)], SolverSettings())
    _assert_matches_scalar(one, 3, pot, [(4, 2)], SolverSettings())
    # a 2D donor needs l = |m|; the other levels carry SletProblem's error
    donor = potentials.donor(1.0, -1)
    levels = [(0, 0), (1, 0), (2, 1), (1, 2)]
    batch = engine.solve_levels(2, donor, levels, SolverSettings())
    assert [type(b) for b in batch] == [ValueError, engine.SletBreakdown,
                                        ValueError, engine.SletBreakdown]
    _assert_matches_scalar(batch, 2, donor, levels, SolverSettings())


@settings(derandomize=True, deadline=None, max_examples=40)
@given(A=st.floats(0.5, 2.0), nu=st.floats(0.5, 4.0),
       l=st.integers(0, 9), n=st.integers(0, 9))
def test_power_law_batch_matches_scalar_solve(A, nu, l, n):
    pot = potentials.power(A, nu)
    levels = [(l, n), (n, l), (l + 1, n)]
    for dim in (3, 2):
        batch = engine.solve_levels(dim, pot, levels, SolverSettings())
        _assert_matches_scalar(batch, dim, pot, levels, SolverSettings())
