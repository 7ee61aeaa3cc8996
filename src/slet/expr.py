"""Potential expression language.

Small arithmetic grammar over one radial variable `r`, free parameter names,
the operators + - * / ^ (with ** accepted as a synonym for ^), unary minus,
parentheses, and the functions ln, exp, sqrt, sin, cos. Precedence, tightest
first: ^ (right associative), unary -, * /, + -. Whitespace is insignificant.

Three tables define the language: _TOKEN, the token pattern; _BINARY, the
operators' precedences; _FUNCTIONS, each function's forms. Tokens: a
number starts with a decimal digit, or a point before one, goes on
through digits and points, and takes an exponent (e or E, an optional
sign, digits) only where digits follow it; a number that float() rejects,
such as 1.2.3, is an error. An identifier is a word character that is no
decimal digit, then word characters: letters of any script, _, and
numerals that are no decimal digit, such as the 2 of x². Whitespace is
what str.isspace() accepts.

An expression nests at most _MAX_DEPTH levels deep, where every operator,
function call and parenthesised group is one level; the recursive walkers
below rely on that bound.

evaluate() walks floats, arrays and Jets alike. Numbers stay numbers, so
a Jet is built only in the subtrees that contain r.

Every parse failure carries the 0-based offset of the offending token: an
index into the source text, which is a byte offset only for ASCII text.
AST nodes also record their offset so later stages (unbound parameter checks)
can point back into the source text. Offsets never participate in equality:
parse(to_string(ast)) == ast is the round-trip contract.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import ParseError

# function name -> (form on a Jet, form on floats and arrays)
_FUNCTIONS = {"ln": (jets.ln, np.log), "exp": (jets.exp, np.exp),
              "sqrt": (jets.sqrt, np.sqrt), "sin": (jets.sin, np.sin),
              "cos": (jets.cos, np.cos)}
FUNCTIONS = tuple(_FUNCTIONS)
VARIABLE = "r"

# binary operator -> precedence; ^ is right associative, the rest left
_BINARY = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_PREC_NEG = 25

# real potentials nest fewer than 20 levels deep
_MAX_DEPTH = 100


# -- AST ----------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Param:
    name: str
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: object
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: object
    rhs: object
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object
    offset: int = field(default=0, compare=False)


# -- lexer --------------------------------------------------------------

# whitespace, or one token: a number, an identifier, an operator (** is ^),
# or any other character, which is an error
_TOKEN = re.compile(r"""\s+
    | (?P<num> \.?\d[\d.]* (?:[eE][+-]?\d+)? )
    | (?P<ident> [^\W\d]\w* )
    | (?P<op> \*\* | [-+*/^()] )
    | (?P<bad> . )""", re.VERBOSE)


def _lex(src: str):
    tokens = []  # (kind, text, offset); kind in {num, ident, op, end}
    for m in _TOKEN.finditer(src):
        kind, text, off = m.lastgroup, m.group(), m.start()
        if kind == "num":
            try:
                text = float(text)
            except ValueError:
                raise ParseError(f"bad number literal {text!r}", off) from None
        elif kind == "op" and text == "**":
            text = "^"
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", off)
        if kind:
            tokens.append((kind, text, off))
    tokens.append(("end", "", len(src)))
    return tokens


# -- parser (precedence climbing) ----------------------------------------


class _Parser:
    """Precedence climbing. expression, unary and atom return the node and
    its nesting height; `level` counts the enclosing levels of the one
    being parsed, so a too-deep source stops before it can exhaust the
    interpreter's stack."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", off)
        return self.advance()

    def nested(self, min_prec, off):
        """A subexpression one level down from the token at `off`."""
        self.level += 1
        _check_depth(self.level, off)
        node, height = self.expression(min_prec)
        self.level -= 1
        return node, height + 1

    def expression(self, min_prec=0):
        lhs, height = self.unary()
        while True:
            kind, text, off = self.peek()
            prec = _BINARY.get(text, -1) if kind == "op" else -1
            if prec < min_prec:
                break
            self.advance()
            # right associativity only for ^
            rhs, rhs_height = self.nested(prec if text == "^" else prec + 1, off)
            lhs = BinOp(text, lhs, rhs, off)
            height = max(height + 1, rhs_height)
            _check_depth(height, off)
        return lhs, height

    def unary(self):
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            arg, height = self.nested(_PREC_NEG, off)
            return Neg(arg, off), height
        if kind == "op" and text == "+":
            self.advance()
            return self.nested(_PREC_NEG, off)
        return self.atom()

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return Num(text, off), 0
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", off)
                self.advance()
                arg, height = self.nested(0, off)
                self.expect_op(")")
                return Call(text, arg, off), height
            if text in FUNCTIONS:
                raise ParseError(f"function {text!r} used without arguments", off)
            if text == VARIABLE:
                return Var(off), 0
            return Param(text, off), 0
        if kind == "op" and text == "(":
            inner = self.nested(0, off)
            self.expect_op(")")
            return inner
        if kind == "end":
            raise ParseError("unexpected end of expression", off)
        raise ParseError(f"expected a value, got {text!r}", off)


def _check_depth(depth, off):
    if depth > _MAX_DEPTH:
        raise ParseError(f"expression nests more than {_MAX_DEPTH} levels deep",
                         off)


def parse(src: str):
    """Parse source text into an AST. Raises ParseError with the offending
    token's offset, an index into `src`."""
    if not src.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_lex(src))
    ast, _ = parser.expression()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", off)
    return ast


# -- printing -------------------------------------------------------------


def _prec_of(node) -> int:
    if isinstance(node, BinOp):
        return _BINARY[node.op]
    if isinstance(node, Neg):
        return _PREC_NEG
    return 100


def to_string(node) -> str:
    """Render an AST back to source with minimal parentheses."""
    if isinstance(node, Num):
        v = node.value
        if abs(v) < 1e16 and v == int(v):
            return repr(int(v))
        return "1e999" if v == np.inf else repr(v)  # 1e999 lexes back to inf
    if isinstance(node, Var):
        return VARIABLE
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Neg):
        inner = to_string(node.arg)
        if _prec_of(node.arg) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.fn}({to_string(node.arg)})"
    if isinstance(node, BinOp):
        prec = _prec_of(node)
        lhs, rhs = to_string(node.lhs), to_string(node.rhs)
        lp, rp = _prec_of(node.lhs), _prec_of(node.rhs)
        if node.op == "^":
            if lp <= prec:
                lhs = f"({lhs})"
            if rp < prec:
                rhs = f"({rhs})"
        else:
            if lp < prec:
                lhs = f"({lhs})"
            if rp <= prec:
                rhs = f"({rhs})"
        if node.op in "+-":
            return f"{lhs} {node.op} {rhs}"
        return f"{lhs}{node.op}{rhs}"
    raise TypeError(f"not an AST node: {node!r}")


# -- analysis and evaluation ----------------------------------------------


def param_refs(node):
    """All Param nodes in the tree (name and offset, in source order)."""
    out = []

    def walk(nd):
        if isinstance(nd, Param):
            out.append(nd)
        elif isinstance(nd, Neg):
            walk(nd.arg)
        elif isinstance(nd, BinOp):
            walk(nd.lhs)
            walk(nd.rhs)
        elif isinstance(nd, Call):
            walk(nd.arg)

    walk(node)
    return sorted(out, key=lambda p: p.offset)


def param_names(node):
    return {p.name for p in param_refs(node)}


def evaluate(node, rval, params):
    """Evaluate the AST at `rval`: a float, an ndarray or a Jet.

    Numbers and parameters stay plain numbers (an ndarray parameter, one
    entry per lane, as it is), and each operator works on whatever its
    operands are. A scalar r is evaluated as a one-element array, so a plain
    number is always free of r. Two plain numbers divide and power through
    numpy, so a constant 1/0 is inf, as on an array, and never raises. But
    ln or sqrt of a non-positive plain number, and a negative plain number
    to a non-integer power, raise SingularityError, as on a scalar Jet.
    """
    if not isinstance(rval, jets.Jet) and np.ndim(rval) == 0:
        v = evaluate(node, np.full(1, rval, dtype=float), params)
        if np.size(v) != 1:  # lanes, which one scalar r cannot stand for
            raise ValueError(f"a scalar r gives {np.size(v)} values: "
                             "a parameter is an array")
        return v[0] if np.ndim(v) else v

    def ev(nd):  # BinOp first: most nodes are operators
        if isinstance(nd, BinOp):
            a, b = ev(nd.lhs), ev(nd.rhs)
            if nd.op == "+":
                return a + b
            if nd.op == "-":
                return a - b
            if nd.op == "*":
                return a * b
            if not (isinstance(a, jets.Jet) or isinstance(b, jets.Jet)):
                if nd.op == "/":
                    return np.divide(a, b)
                # a plain number is a float or a lane array, whose bad
                # lanes go nan as r's do; r is an array or a Jet
                if (isinstance(a, float) and isinstance(b, float) and a < 0
                        and not b.is_integer()):
                    jets._check_positive("pow", a)
                return np.power(a, b)
            if nd.op == "/":
                return a / b
            # a base free of r takes the exponent's exp(b ln a) path as a Jet
            return jets.powr(a if isinstance(a, jets.Jet) else jets.const(a), b)
        if isinstance(nd, Num):
            return nd.value
        if isinstance(nd, Var):
            return rval
        if isinstance(nd, Param):
            if nd.name not in params:
                raise ParseError(f"unbound parameter {nd.name!r}", nd.offset)
            v = params[nd.name]
            return v if isinstance(v, np.ndarray) else float(v)
        if isinstance(nd, Neg):
            return -ev(nd.arg)
        if isinstance(nd, Call):
            x = ev(nd.arg)
            on_jet, on_number = _FUNCTIONS[nd.fn]
            if isinstance(x, jets.Jet):
                return on_jet(x)
            if nd.fn in ("ln", "sqrt"):
                jets._check_positive(nd.fn, x)
            return on_number(x)
        raise TypeError(f"not an AST node: {nd!r}")

    return ev(node)
