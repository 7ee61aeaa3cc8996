import re

import numpy as np
import pytest

from slet import expr, jets
from slet.errors import ParseError, SingularityError
from slet.expr import BinOp, Call, Neg, Num, Param, Var


def test_leading_minus_binds_to_the_literal():
    ast = expr.parse("-2/r")
    assert ast == BinOp("/", Neg(Num(2.0)), Var())
    assert expr.evaluate(ast, 4.0, {}) == -0.5


def test_parameter_names_collected():
    ast = expr.parse("A*r^nu + g^2*r^2/4")
    assert expr.param_names(ast) == {"A", "nu", "g"}
    got = expr.evaluate(ast, 2.0, {"A": 1.0, "nu": 1.0, "g": 3.0})
    assert got == pytest.approx(2.0 + 9.0, rel=1e-15)


def test_double_star_is_power_then_syntax_error():
    with pytest.raises(ParseError) as err:
        expr.parse("2**/r")
    assert err.value.offset == 3
    assert "(offset 3)" in str(err.value)


def test_power_is_right_associative():
    assert expr.evaluate(expr.parse("2^3^2"), 1.0, {}) == 512.0


def test_unary_minus_binds_looser_than_power():
    assert expr.evaluate(expr.parse("-2^2"), 1.0, {}) == -4.0
    assert expr.evaluate(expr.parse("2^-2"), 1.0, {}) == 0.25


def test_unary_minus_binds_tighter_than_multiply():
    assert expr.evaluate(expr.parse("-2*r"), 3.0, {}) == -6.0
    assert expr.parse("-2*r") == BinOp("*", Neg(Num(2.0)), Var())


def test_whitespace_is_insignificant():
    assert expr.parse(" A * r ^ nu ") == expr.parse("A*r^nu")


def test_scientific_notation_literals():
    assert expr.evaluate(expr.parse("1.5e-3 + 2E2"), 1.0, {}) == pytest.approx(200.0015)


@pytest.mark.parametrize("src,offset,needle", [
    ("", 0, "empty"),
    ("   ", 0, "empty"),
    ("foo(r)", 0, "unknown function"),
    ("ln + 1", 0, "without arguments"),
    ("2 + @", 4, "unexpected character"),
    ("2 2", 2, "trailing"),
    ("(2", 2, "expected ')'"),
    ("2*", 2, "unexpected end"),
    ("2 + * 3", 4, "expected a value"),
])
def test_errors_carry_offsets(src, offset, needle):
    with pytest.raises(ParseError) as err:
        expr.parse(src)
    assert err.value.offset == offset
    assert needle in str(err.value)


@pytest.mark.parametrize("src,expected", [
    ("1.2.3", "bad number literal '1.2.3' (offset 0)"),
    ("2e", [("num", 2.0, 0), ("ident", "e", 1)]),
    ("2e+", [("num", 2.0, 0), ("ident", "e", 1), ("op", "+", 2)]),
    ("2e+3", [("num", 2000.0, 0)]),
    ("5.", [("num", 5.0, 0)]),
    (".5", [("num", 0.5, 0)]),
    (".", "unexpected character '.' (offset 0)"),
    ("1e5e5", [("num", 1e5, 0), ("ident", "e5", 3)]),
    ("***", [("op", "^", 0), ("op", "*", 2)]),
    ("1_000", [("num", 1.0, 0), ("ident", "_000", 1)]),
    # \x1c is whitespace to str.isspace, as \t is
    ("\x1c2\t*r", [("num", 2.0, 1), ("op", "*", 3), ("ident", "r", 4)]),
    ("αβ*r", [("ident", "αβ", 0), ("op", "*", 2), ("ident", "r", 3)]),
    # a numeral that is no decimal digit is a word character: it may
    # start an identifier, as it may continue one
    ("²", [("ident", "²", 0)]),
    ("r²", [("ident", "r²", 0)]),
])
def test_lexer_edge_cases(src, expected):
    if isinstance(expected, str):
        with pytest.raises(ParseError) as err:
            expr._lex(src)
        assert str(err.value) == expected
    else:
        assert expr._lex(src) == expected + [("end", "", len(src))]


def test_unbound_parameter_reports_reference_offset():
    ast = expr.parse("A*r + B")
    with pytest.raises(ParseError) as err:
        expr.evaluate(ast, 1.0, {"A": 2.0})
    assert "B" in str(err.value)
    assert err.value.offset == 6


def test_param_refs_in_source_order():
    refs = expr.param_refs(expr.parse("A*r^nu + A"))
    assert [(p.name, p.offset) for p in refs] == [("A", 0), ("nu", 4), ("A", 9)]


def test_functions_evaluate_numerically():
    ast = expr.parse("ln(exp(r)) + sqrt(r^2) + sin(r)^2 + cos(r)^2")
    for r in (0.5, 1.0, 3.7):
        assert expr.evaluate(ast, r, {}) == pytest.approx(2 * r + 1.0, rel=1e-14)


def test_array_evaluation_is_elementwise():
    ast = expr.parse("r^2 - 1/r")
    r = np.array([0.5, 1.0, 2.0])
    got = expr.evaluate(ast, r, {})
    assert np.allclose(got, r**2 - 1 / r, rtol=1e-15)


@pytest.mark.parametrize("src,message", [
    ("ln(-1) + r", "ln of non-positive value -1.0"),
    ("r*sqrt(0)", "sqrt of non-positive value 0.0"),
    ("r + (-8)^0.5", "pow of non-positive value -8.0"),
])
def test_constant_domain_errors_raise_on_every_path(src, message):
    ast = expr.parse(src)
    for r in (1.5, np.array([0.5, 2.0]), jets.seed(1.5)):
        with pytest.raises(SingularityError, match=f"^{re.escape(message)}$"):
            expr.evaluate(ast, r, {})


def test_domain_errors_of_r_stay_nan_and_constants_fold():
    # a scalar r is an array of one: ln(r - 2) at r = 1 is nan, as at an
    # array; integer powers of negative numbers and 1/0 are values
    with np.errstate(invalid="ignore", divide="ignore"):
        assert np.isnan(expr.evaluate(expr.parse("ln(r - 2)"), 1.0, {}))
        assert expr.evaluate(expr.parse("(-8)^2 + 0^0.5 + r"), 1.0, {}) == 65.0
        assert expr.evaluate(expr.parse("1/0 + r"), 1.0, {}) == np.inf


def test_jet_evaluation_carries_derivatives():
    ast = expr.parse("r^3")
    jet = expr.evaluate(ast, jets.seed(2.0), {})
    assert jet.derivative(0) == 8.0
    assert jet.derivative(1) == 12.0
    assert jet.derivative(2) == 12.0
    assert jet.derivative(3) == 6.0


ROUND_TRIP_CORPUS = [
    "-2/r",
    "B^2*r^2/4",
    "A*r^nu",
    "A*ln(r/b)",
    "-2/r + m*gamma + gamma^2*r^2/4",
    "2^3^2",
    "(2^3)^2",
    "-(r + 1)",
    "--r",
    "r - -r",
    "(-r)^2",
    "1/(1 + r^2)",
    "exp(-r)*sin(r)",
    "0.5*r^0.5",
    "1e-3*r + 2e+16",
    "1e999 + r",
    "r^1e999",
]


@pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
def test_round_trip_on_corpus(src):
    ast = expr.parse(src)
    assert expr.parse(expr.to_string(ast)) == ast


def _random_ast(rng, depth):
    if depth <= 0:
        pick = rng.integers(0, 3)
        if pick == 0:
            return Num(float(round(rng.uniform(0.0, 9.5), 3)))
        if pick == 1:
            return Var()
        return Param(str(rng.choice(["A", "B", "nu", "gamma", "b_0"])))
    pick = rng.integers(0, 6)
    if pick == 0:
        return Neg(_random_ast(rng, depth - 1))
    if pick == 1:
        return Call(str(rng.choice(expr.FUNCTIONS)), _random_ast(rng, depth - 1))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    return BinOp(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


def test_round_trip_on_random_trees():
    rng = np.random.default_rng(42)
    for _ in range(300):
        ast = _random_ast(rng, int(rng.integers(1, 5)))
        text = expr.to_string(ast)
        assert expr.parse(text) == ast, text


def test_nesting_is_bounded():
    assert expr.parse("(" * 100 + "r" + ")" * 100) == Var()
    expr.parse("+".join(["r"] * 101))
    with pytest.raises(ParseError) as info:
        expr.parse("(" * 101 + "r" + ")" * 101)
    assert info.value.offset == 100
    with pytest.raises(ParseError) as info:
        expr.parse("+".join(["r"] * 200))
    assert info.value.offset == 2 * 101 - 1  # the 101st +
