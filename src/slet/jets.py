"""Order-6 truncated Taylor-series arithmetic ("jets").

A Jet holds the coefficients (a0..a6) of f(r0 + h) = sum a_k h^k, so the
k-th derivative at the expansion point is k! * a_k. Order 6 is fixed: the
energy series needs the potential's derivatives through V'''''' and nothing
higher, so the truncation order is a module constant rather than a knob.

Coefficients are either Python/numpy scalars or ndarrays. With scalars,
domain violations raise (SingularityError with the function name and the
offending value). With arrays the same operations run element-wise and
invalid lanes silently become nan/inf for the caller to mask; that is what
the expansion-point scan relies on.

A plain number operand is a constant: + and - touch a0 alone, * and /
scale the seven coefficients (Griewank & Walther, Evaluating Derivatives,
ch. 13).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularityError

ORDER = 6
NCOEF = ORDER + 1

_FACT = tuple(math.factorial(k) for k in range(NCOEF))


def _is_scalar(x) -> bool:
    return np.ndim(x) == 0


class Jet:
    """Truncated Taylor series with 7 coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != NCOEF:
            raise ValueError(f"need {NCOEF} coefficients, got {len(coeffs)}")
        self.coeffs = coeffs

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, k: int):
        """k-th derivative at the expansion point, i.e. k! * a_k."""
        if not isinstance(k, (int, np.integer)) or not 0 <= k <= ORDER:
            raise ValueError(f"derivative order must be an integer in 0..{ORDER}, got {k}")
        return _FACT[k] * self.coeffs[k]

    def __repr__(self):
        return f"Jet({list(self.coeffs)!r})"

    # -- arithmetic: the other operand is a Jet or a plain number --------

    # numpy scalars and arrays defer to the reflected operators below
    __array_ufunc__ = None

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(a + b for a, b in zip(self.coeffs, other.coeffs))
        return Jet((self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Jet(-a for a in self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(a * other for a in self.coeffs)
        a, b = self.coeffs, other.coeffs
        return Jet(
            sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(NCOEF)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        b0 = other.coeffs[0] if isinstance(other, Jet) else other
        if _is_scalar(b0) and b0 == 0:
            raise SingularityError("jet division by zero leading coefficient")
        with np.errstate(all="ignore"):
            if not isinstance(other, Jet):
                return Jet(a / other for a in self.coeffs)
            a, b, w = self.coeffs, other.coeffs, []
            for k in range(NCOEF):
                acc = a[k]
                for j in range(k):
                    acc = acc - w[j] * b[k - j]
                w.append(acc / b0)
        return Jet(w)

    def __rtruediv__(self, other):
        return const(other) / self

    def __pow__(self, p):
        return powr(self, p)


def const(c) -> Jet:
    zero = np.zeros_like(c) if not _is_scalar(c) else 0.0
    return Jet((c,) + (zero,) * ORDER)


def seed(r0) -> Jet:
    """Jet of the radial variable itself at r0: (r0, 1, 0, ..., 0)."""
    if _is_scalar(r0):
        if not np.isfinite(r0) or r0 <= 0:
            raise DomainError(f"expansion point must be positive and finite, got {r0}")
        one, zero = 1.0, 0.0
    else:
        r0 = np.asarray(r0, dtype=float)
        if r0.size and (not np.all(np.isfinite(r0)) or np.any(r0 <= 0)):
            raise DomainError("expansion points must all be positive and finite")
        one, zero = np.ones_like(r0), np.zeros_like(r0)
    return Jet((r0, one) + (zero,) * (ORDER - 1))


# -- elementary functions ---------------------------------------------
#
# Standard composition recurrences. u = input coefficients, v = output.
# Each is the power-series solution of the defining ODE (v' = u' v for exp,
# u v' = u' for ln, ...), truncated at ORDER.


def _check_positive(name: str, u0) -> None:
    if _is_scalar(u0) and not u0 > 0:
        raise SingularityError(f"{name} of non-positive value {u0}")


def exp(a: Jet) -> Jet:
    u = a.coeffs
    with np.errstate(all="ignore"):
        v = [np.exp(u[0])]
        for k in range(1, NCOEF):
            acc = u[1] * v[k - 1]
            for j in range(2, k + 1):
                acc = acc + j * u[j] * v[k - j]
            v.append(acc / k)
    return Jet(v)


def ln(a: Jet) -> Jet:
    u = a.coeffs
    _check_positive("ln", u[0])
    with np.errstate(all="ignore"):
        v = [np.log(u[0])]
        for k in range(1, NCOEF):
            acc = u[k]
            for j in range(1, k):
                acc = acc - (j / k) * v[j] * u[k - j]
            v.append(acc / u[0])
    return Jet(v)


def sqrt(a: Jet) -> Jet:
    u = a.coeffs
    _check_positive("sqrt", u[0])
    with np.errstate(all="ignore"):
        v = [np.sqrt(u[0])]
        for k in range(1, NCOEF):
            acc = u[k]
            for j in range(1, k):
                acc = acc - v[j] * v[k - j]
            v.append(acc / (2.0 * v[0]))
    return Jet(v)


def sin(a: Jet) -> Jet:
    return _sincos(a)[0]


def cos(a: Jet) -> Jet:
    return _sincos(a)[1]


def _sincos(a: Jet):
    # joint recurrence; sin and cos feed each other
    u = a.coeffs
    with np.errstate(all="ignore"):
        s = [np.sin(u[0])]
        c = [np.cos(u[0])]
        for k in range(1, NCOEF):
            sa = u[1] * c[k - 1]
            ca = u[1] * s[k - 1]
            for j in range(2, k + 1):
                sa = sa + j * u[j] * c[k - j]
                ca = ca + j * u[j] * s[k - j]
            s.append(sa / k)
            c.append(-ca / k)
    return Jet(s), Jet(c)


def powr(a: Jet, p) -> Jet:
    """a**p. A finite integer p by square-and-multiply (exact for
    polynomials, about 2 log2|p| products); any other number, infinities
    included, and a Jet p (an exponent that depends on r) as exp(p*ln a),
    which needs a positive leading value."""
    if isinstance(p, Jet):
        return exp(p * ln(a))
    if _is_scalar(p) and math.isfinite(p) and float(p).is_integer():
        n = int(p)
        if n == 0:
            one = np.ones_like(a.coeffs[0]) if not _is_scalar(a.coeffs[0]) else 1.0
            return const(one)
        base = a if n > 0 else 1.0 / a
        out = base
        with np.errstate(all="ignore"):  # huge |n| overflows lanes to inf
            for bit in bin(abs(n))[3:]:  # the bits below the leading one
                out = out * out
                if bit == "1":
                    out = out * base
        return out
    _check_positive("pow", a.coeffs[0])
    return exp(p * ln(a))
