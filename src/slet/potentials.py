"""Radial potentials.

Five builtin families plus arbitrary parsed expressions in the variable r.
Energies are in effective Rydbergs and lengths in effective Bohr radii, so
the Coulomb term is fixed at -2/r.

A builtin is its expression: value() and eval_jet() evaluate the
builtin's own source text, and as_expression() returns it. An ndarray
parameter passes through as it is: a donor over an array of gammas (lanes,
one level each, for engine.solve_levels) is how `sweep` solves its rows
as one batch.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import expr, jets
from .errors import DomainError, ParseError

# the builtins' definitions, in the expression language
_BUILTIN_SOURCE = {
    "coulomb": "-2/r",
    "harmonic": "B^2*r^2/4",
    "power": "A*r^nu",
    "log": "A*ln(r/b)",
    "donor": "-2/r + m*gamma + gamma^2*r^2/4",
}

# parsed once; AST nodes are frozen, so every builtin potential shares its tree
_BUILTIN_AST = {name: expr.parse(src) for name, src in _BUILTIN_SOURCE.items()}


@dataclass(frozen=True)
class Potential:
    family: str  # builtin family name, or "expression"
    params: Mapping[str, float]
    ast: object = field(repr=False)
    source: str = ""

    def eval_jet(self, r0) -> jets.Jet:
        """Jet of V about r0 (r0 > 0, scalar or array)."""
        with np.errstate(all="ignore"):
            v = expr.evaluate(self.ast, jets.seed(r0), self.params)
        # a source free of r, such as "0", evaluates to a plain number
        return v if isinstance(v, jets.Jet) else jets.const(v)

    def value(self, r):
        """V(r) for scalar or array r, value only."""
        with np.errstate(all="ignore"):
            return expr.evaluate(self.ast, np.asarray(r, dtype=float), self.params)

    def as_expression(self) -> str:
        return self.source

    def check_level(self, dim, l):
        """ValueError unless the angular number l names a level of this
        potential in dim dimensions: a 2D donor's l is |m|."""
        m = self.params.get("m")
        if dim == 2 and self.family == "donor" and l != abs(int(m)):
            raise ValueError(f"2D donor requires l = |m|; got l={l}, m={m}")


# -- constructors --------------------------------------------------------


def _float(name, value):
    """value as a float array; an int beyond the float range: DomainError."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError as err:
        raise DomainError(f"{name}: {err}") from None


def _finite(name, value):
    v = float(_float(name, value))
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {value}")
    return v


def _require_positive(name, value):
    v = float(_float(name, value))
    if not np.isfinite(v) or v <= 0:
        raise DomainError(f"{name} must be positive, got {value}")
    return v


def _builtin(family, params):
    return Potential(family, dict(params), _BUILTIN_AST[family],
                     _BUILTIN_SOURCE[family])


def coulomb() -> Potential:
    """-2/r."""
    return _builtin("coulomb", {})


def harmonic(B) -> Potential:
    """B^2 r^2 / 4."""
    return _builtin("harmonic", {"B": _require_positive("B", B)})


def power(A, nu) -> Potential:
    """A r^nu on the attractive confining branch A > 0, nu > 0."""
    return _builtin("power", {"A": _require_positive("A", A),
                              "nu": _require_positive("nu", nu)})


def log_potential(A, b) -> Potential:
    """A ln(r/b)."""
    return _builtin("log", {"A": _require_positive("A", A),
                            "b": _require_positive("b", b)})


def donor(gamma, m) -> Potential:
    """Donor in a magnetic field, symmetric gauge: -2/rho + m*gamma
    + gamma^2 rho^2 / 4. gamma >= 0, m a finite integer.

    gamma may be an array: one lane, a level of engine.solve_levels, per
    gamma. Of the potential's methods only eval_jet takes such an array.
    """
    g = _float("gamma", gamma)
    bad = ~(np.isfinite(g) & (g >= 0))
    if bad.any():
        raise DomainError(f"gamma must be non-negative, "
                          f"got {g[bad][0] if g.ndim else gamma}")
    try:
        mi = float(m)
    except OverflowError:  # an integer beyond the float range
        mi = math.inf
    if not (math.isfinite(mi) and mi == int(mi)):
        raise DomainError(f"m must be a finite integer, got {m}")
    return _builtin("donor", {"gamma": g if g.ndim else float(gamma),
                              "m": int(mi)})


def expression(src: str, params: Mapping[str, float] | None = None) -> Potential:
    """Potential from expression source text. Every parameter referenced in
    the source must appear in `params`; the first unbound reference is
    reported with its offset into the source text. A parameter that is not
    finite, or is named after the variable or a function, which the source
    could never reference, is a DomainError."""
    params = {k: _finite(k, v) for k, v in (params or {}).items()}
    for name in params:
        if name == expr.VARIABLE or name in expr.FUNCTIONS:
            raise DomainError(f"parameter name {name!r} is reserved by the "
                              "expression language")
    ast = expr.parse(src)
    for ref in expr.param_refs(ast):
        if ref.name not in params:
            raise ParseError(f"unbound parameter {ref.name!r}", ref.offset)
    return Potential("expression", params, ast, src)


# builtin name -> constructor; a builtin takes its constructor's parameters
_BUILTINS = {"coulomb": coulomb, "harmonic": harmonic, "power": power,
             "log": log_potential, "donor": donor}


def from_name_or_source(text: str, params: Mapping[str, float] | None = None) -> Potential:
    """Builtin family if `text` names one, otherwise expression source."""
    params = dict(params or {})
    make = _BUILTINS.get(text)
    if make is None:
        return expression(text, params)
    required = inspect.signature(make).parameters
    missing = [k for k in required if k not in params]
    if missing:
        raise DomainError(
            f"potential {text!r} needs parameter(s) {', '.join(missing)}")
    extra = [k for k in params if k not in required]
    if extra:
        raise DomainError(
            f"potential {text!r} does not take parameter(s) {', '.join(sorted(extra))}")
    return make(**params)
