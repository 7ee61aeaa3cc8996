"""Order-6 truncated Taylor-series arithmetic ("jets").

A Jet holds the coefficients (a0..a6) of f(r0 + h) = sum a_k h^k, so the
k-th derivative at the expansion point is k! * a_k. Order 6 is fixed: the
energy series needs the potential's derivatives through V'''''' and nothing
higher, so the truncation order is a module constant rather than a knob.

Coefficients are scalars or ndarrays. With scalars, domain violations
raise (SingularityError with the function name and the offending value).
With arrays, invalid lanes silently become nan/inf for the caller to mask,
as the expansion-point scan needs.

A plain number operand is a constant: + and - touch a0 alone, * and /
scale the coefficients. Seeds and constants hold the structural zero ZERO
in their higher coefficients, and + - * / skip it; a zero computed or
written in a source is an ordinary number (0 * inf is nan). An affine
Jet, u0 + u1 h, takes its ln, a constant over it and its powers but the
integers p >= 0 in closed form (Griewank & Walther, Evaluating
Derivatives, ch. 13).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularityError

ORDER = 6
NCOEF = ORDER + 1

_FACT = tuple(math.factorial(k) for k in range(NCOEF))

ZERO = np.float64(0.0)  # known by identity: no computed number is this object


def _is_scalar(x) -> bool:
    return not isinstance(x, np.ndarray) or x.ndim == 0


def _is_one(x) -> bool:  # a plain 1.0, a factor left out exactly
    return isinstance(x, float) and x == 1.0


def _affine(a):
    """(u0, u1) if a is u0 + u1 h, with ZERO in a2..a6, else None. A scalar
    comes as np.float64, which overflows to inf as arrays do, not raising."""
    if all(c is ZERO for c in a.coeffs[2:]):
        return tuple(c if isinstance(c, np.ndarray) else np.float64(c)
                     for c in a.coeffs[:2])


def _affine_power(u0, u1, p) -> Jet:
    """(u0 + u1 h)^p: a_k = binom(p, k) u0^(p-k) u1^k. A slope of 1.0 gives
    the derivatives of r^p, each power of u0 taken whole, as for c/r and
    ln r; other slopes go through u1/u0, finite where u1^k or u0^k
    overflows."""
    one = _is_one(u1)
    out, falling = [], 1.0
    for k in range(NCOEF):
        ck = u0 ** (p - k) if one else u0**p * (u1 / u0) ** k
        out.append(ck if k == 0 else falling / _FACT[k] * ck)
        falling *= p - k
    return Jet(out)


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
            return Jet(b if a is ZERO else a if b is ZERO else a + b
                       for a, b in zip(self.coeffs, other.coeffs))
        return Jet((self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Jet(a if a is ZERO else -a for a in self.coeffs)

    def __mul__(self, other):
        a = self.coeffs
        if not isinstance(other, Jet):
            return Jet(c if c is ZERO else c * other for c in a)
        b, out = other.coeffs, []
        for k in range(NCOEF):
            terms = [a[j] * b[k - j] for j in range(k + 1)
                     if a[j] is not ZERO and b[k - j] is not ZERO]
            out.append(sum(terms) if terms else ZERO)
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b0 = other.coeffs[0] if isinstance(other, Jet) else other
        if _is_scalar(b0) and b0 == 0:
            raise SingularityError("jet division by zero leading coefficient")
        a = self.coeffs
        with np.errstate(all="ignore"):
            if not isinstance(other, Jet):
                return Jet(c if c is ZERO else c / other for c in a)
            b = other.coeffs
            if all(c is ZERO for c in a[1:]) and (u := _affine(other)):
                c, (u0, u1) = a[0], u  # c / (u0 + u1 h): c (-u1)^k / u0^(k+1)
                if _is_one(u1):
                    return Jet((-c if k % 2 else c) / u0 ** (k + 1)
                               for k in range(NCOEF))
                return Jet(c / u0 * (-u1 / u0) ** k for k in range(NCOEF))
            w = []
            for k in range(NCOEF):
                acc = a[k]
                for j in range(k):
                    if w[j] is not ZERO and b[k - j] is not ZERO:
                        acc = acc - w[j] * b[k - j]
                w.append(acc if acc is ZERO else acc / b0)
        return Jet(w)

    def __rtruediv__(self, other):
        return const(other) / self

    def __pow__(self, p):
        return powr(self, p)


def const(c) -> Jet:
    return Jet((c,) + (ZERO,) * ORDER)


def seed(r0) -> Jet:
    """Jet of the radial variable itself at r0: (r0, 1.0, ZERO, ...)."""
    if isinstance(r0, (list, tuple)) or not _is_scalar(r0):  # points, as an array
        r0 = np.asarray(r0, dtype=float)
        if r0.size and (not np.all(np.isfinite(r0)) or np.any(r0 <= 0)):
            raise DomainError("expansion points must all be positive and finite")
    elif not np.isfinite(r0) or r0 <= 0:
        raise DomainError(f"expansion point must be positive and finite, got {r0}")
    return Jet((r0, 1.0) + (ZERO,) * (ORDER - 1))


# -- elementary functions ---------------------------------------------
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
        if aff := _affine(a):  # ln(u0 + u1 h): (-1)^(k+1) / (k (u0/u1)^k)
            q = aff[0] if _is_one(aff[1]) else aff[0] / aff[1]
            return Jet([np.log(aff[0])] + [(1.0 if k % 2 else -1.0) / (k * q**k)
                                           for k in range(1, NCOEF)])
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
    """a**p: a finite integer p >= -1 by square-and-multiply, which keeps a
    polynomial's structural zeros (p = -1 is 1/a); any other finite p in
    closed form on an affine a, else an integer p by square-and-multiply
    (about 2 log2|p| products); any other p, a Jet one (an exponent that
    depends on r) included, as exp(p*ln a), which needs a0 > 0."""
    if isinstance(p, Jet):
        return exp(p * ln(a))
    u0 = a.coeffs[0]
    finite = _is_scalar(p) and math.isfinite(p)
    integer = finite and float(p).is_integer()
    if not integer:
        _check_positive("pow", u0)
    elif p < 0 and _is_scalar(u0) and u0 == 0:
        raise SingularityError("jet division by zero leading coefficient")
    if finite and not (integer and p >= -1) and (aff := _affine(a)):
        with np.errstate(all="ignore"):
            return _affine_power(*aff, p)
    if not integer:
        return exp(p * ln(a))
    n = int(p)
    if n == 0:
        return const(np.ones_like(u0) if not _is_scalar(u0) else 1.0)
    base = a if n > 0 else 1.0 / a
    out = base
    with np.errstate(all="ignore"):  # huge |n| overflows lanes to inf
        for bit in bin(abs(n))[3:]:  # the bits below the leading one
            out = out * out
            if bit == "1":
                out = out * base
    return out
