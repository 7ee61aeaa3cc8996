"""Radial potentials.

Five builtin families plus arbitrary parsed expressions in the variable r.
Energies are in effective Rydbergs and lengths in effective Bohr radii, so
the Coulomb term is fixed at -2/r.

A builtin is its expression: value() always evaluates the builtin's own
source text, and as_expression() returns it. For jets, a builtin also has
a hand-coded closed form, a fast path that the test suite checks pointwise
against jet arithmetic on that expression. It stays only for speed: with
expression jets, the `sweep` benchmark (seed 1, one CPU of a 2-vCPU Xeon)
runs at about 1780 levels/s against 4300-5100 with the hand jets.
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
        r = jets.seed(r0)
        fn = _HAND_JETS.get(self.family)
        if fn is not None:
            return fn(r.coeffs[0], self.params)
        with np.errstate(all="ignore"):
            v = expr.evaluate(self.ast, r, self.params)
        # a source free of r, such as "0", evaluates to a plain number
        return v if isinstance(v, jets.Jet) else jets.const(v)

    def value(self, r):
        """V(r) for scalar or array r, value only."""
        with np.errstate(all="ignore"):
            return expr.evaluate(self.ast, np.asarray(r, dtype=float), self.params)

    def as_expression(self) -> str:
        return self.source


# -- hand-coded jets ----------------------------------------------------
# Taylor coefficients c_k = V^(k)(r)/k!, vectorized over r.


def _coulomb_coeffs(r):
    # d^k/dr^k (-2/r) = -2 (-1)^k k! r^-(k-1), so c_k = 2(-1)^(k+1) r^-(k+1)
    return [2.0 * (-1.0) ** (k + 1) / r ** (k + 1) for k in range(jets.NCOEF)]


def _jet_coulomb(r, params):
    return jets.Jet(_coulomb_coeffs(r))


def _jet_harmonic(r, params):
    b2 = params["B"] ** 2
    zero = np.zeros_like(r) if np.ndim(r) else 0.0
    c = [b2 * r * r / 4.0, b2 * r / 2.0, b2 / 4.0 + zero]
    return jets.Jet(c + [zero] * (jets.NCOEF - 3))


def _jet_power(r, params):
    a, nu = params["A"], params["nu"]
    c = []
    falling = 1.0
    with np.errstate(all="ignore"):
        for k in range(jets.NCOEF):
            c.append(a * falling / math.factorial(k) * r ** (nu - k))
            falling *= nu - k
    return jets.Jet(c)


def _jet_log(r, params):
    a, b = params["A"], params["b"]
    c = [a * np.log(r / b)]
    for k in range(1, jets.NCOEF):
        c.append(a * (-1.0) ** (k + 1) / (k * r**k))
    return jets.Jet(c)


def _jet_donor(r, params):
    g, m = params["gamma"], params["m"]
    c = _coulomb_coeffs(r)
    c[0] = c[0] + m * g + g * g * r * r / 4.0
    c[1] = c[1] + g * g * r / 2.0
    c[2] = c[2] + g * g / 4.0
    return jets.Jet(c)


# kept beside the expressions for speed alone (see the module docstring)
_HAND_JETS = {
    "coulomb": _jet_coulomb,
    "harmonic": _jet_harmonic,
    "power": _jet_power,
    "log": _jet_log,
    "donor": _jet_donor,
}


# -- constructors --------------------------------------------------------


def _require_positive(name, value):
    v = float(value)
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
    + gamma^2 rho^2 / 4. gamma >= 0, m integer."""
    g = float(gamma)
    if not np.isfinite(g) or g < 0:
        raise DomainError(f"gamma must be non-negative, got {gamma}")
    mi = float(m)
    if mi != int(mi):
        raise DomainError(f"m must be an integer, got {m}")
    return _builtin("donor", {"gamma": g, "m": int(mi)})


def expression(src: str, params: Mapping[str, float] | None = None) -> Potential:
    """Potential from expression source text. Every parameter referenced in
    the source must appear in `params`; the first unbound reference is
    reported with its byte offset."""
    params = {k: float(v) for k, v in (params or {}).items()}
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
