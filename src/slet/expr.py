"""Potential expression language.

Small arithmetic grammar over one radial variable `r`, free parameter names,
the operators + - * / ^ (with ** accepted as a synonym for ^), unary minus,
parentheses, and the functions ln, exp, sqrt, sin, cos. Precedence, tightest
first: ^ (right associative), unary -, * /, + -. Whitespace is insignificant.

An expression nests at most _MAX_DEPTH levels deep, where every operator,
function call and parenthesised group is one level; the recursive walkers
below rely on that bound.

evaluate() walks floats, arrays and Jets alike. Numbers stay numbers, so
a Jet is built only in the subtrees that contain r.

Every parse failure carries the 0-based byte offset of the offending token.
AST nodes also record their offset so later stages (unbound parameter checks)
can point back into the source text. Offsets never participate in equality:
parse(to_string(ast)) == ast is the round-trip contract.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import ParseError

FUNCTIONS = ("ln", "exp", "sqrt", "sin", "cos")
VARIABLE = "r"

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 25
_PREC_POW = 30

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

_OPS = {"+", "-", "*", "/", "^", "(", ")"}


def _lex(src: str):
    tokens = []  # (kind, text, offset); kind in {num, ident, op}
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad number literal {text!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        if c == "*" and i + 1 < n and src[i + 1] == "*":
            tokens.append(("op", "^", i))
            i += 2
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
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
            if kind != "op" or text not in "+-*/^":
                break
            prec = (_PREC_POW if text == "^"
                    else _PREC_MUL if text in "*/" else _PREC_ADD)
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
    """Parse source text into an AST. Raises ParseError with a byte offset."""
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
        return (_PREC_POW if node.op == "^"
                else _PREC_MUL if node.op in "*/" else _PREC_ADD)
    if isinstance(node, Neg):
        return _PREC_NEG
    return 100


def to_string(node) -> str:
    """Render an AST back to source with minimal parentheses."""
    if isinstance(node, Num):
        v = node.value
        if v == int(v) and abs(v) < 1e16:
            return repr(int(v))
        return repr(v)
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


_JET_FUNCS = {"ln": jets.ln, "exp": jets.exp, "sqrt": jets.sqrt,
              "sin": jets.sin, "cos": jets.cos}
_NUM_FUNCS = {"ln": np.log, "exp": np.exp, "sqrt": np.sqrt,
              "sin": np.sin, "cos": np.cos}


def evaluate(node, rval, params):
    """Evaluate the AST at `rval`: a float, an ndarray or a Jet.

    Numbers and parameters stay plain numbers, and each operator works on
    whatever its operands are. Two plain numbers divide and power through
    numpy, so a constant 1/0 is inf, as on an array, and never raises.
    """

    def ev(nd):
        if isinstance(nd, Num):
            return nd.value
        if isinstance(nd, Var):
            return rval
        if isinstance(nd, Param):
            try:
                return float(params[nd.name])
            except KeyError:
                raise ParseError(f"unbound parameter {nd.name!r}", nd.offset) from None
        if isinstance(nd, Neg):
            return -ev(nd.arg)
        if isinstance(nd, Call):
            x = ev(nd.arg)
            fns = _JET_FUNCS if isinstance(x, jets.Jet) else _NUM_FUNCS
            return fns[nd.fn](x)
        if isinstance(nd, BinOp):
            a, b = ev(nd.lhs), ev(nd.rhs)
            if nd.op == "+":
                return a + b
            if nd.op == "-":
                return a - b
            if nd.op == "*":
                return a * b
            if not (isinstance(a, jets.Jet) or isinstance(b, jets.Jet)):
                return np.divide(a, b) if nd.op == "/" else np.power(a, b)
            if nd.op == "/":
                return a / b
            # a base free of r takes the exponent's exp(b ln a) path as a Jet
            return jets.powr(a if isinstance(a, jets.Jet) else jets.const(a), b)
        raise TypeError(f"not an AST node: {nd!r}")

    return ev(node)
