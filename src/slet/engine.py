"""Shifted large-l expansion engine.

Given a radial potential, angular quantum number l (l = |m| in 2D) and a
radial quantum number n, the method expands about the minimum r0 of the
effective classical energy l̄²/r² + V(r), where the shifted count l̄ = l − β
is fixed self-consistently: β depends on the oscillation frequency

    w(r) = 2 sqrt(3 + r V''(r)/V'(r))

at r0, while r0 itself solves  F(r) = sqrt(r³ V'(r)/2) − l + β(w(r)) = 0.
That root is the only iterative step: a log-spaced scan brackets every sign
change of F, and a Newton iteration polishes each one, taking F'(r) from the
V', V'' and V''' that the potential's order-6 jet already carries and falling
back to bisection whenever a step leaves the bracket. The energy is then
assembled from the zeroth-order term plus second- and third-order corrections
driven by the anharmonicity coefficients alpha1, alpha2.

Two paths share that method. solve() and solve_r0() take one level with
scalar jets. solve_levels() takes many levels of one potential at once: F
depends on (l, n) only through l and the linear beta(n, w), so one jet on
the scan grid serves every level, one array jet per Newton pass steps
every (level, bracket) pair, and the energy assembly (_energy_terms, shared
with solve) runs elementwise. A level without a bracket takes the scalar
search's error at once; any other level the batch cannot settle falls back
to solve(), which keeps its outcome and error text.

All arithmetic is plain 64-bit floating point.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidExpansionPointError,
    NoBoundStateError,
    NoMinimumError,
    NoRootError,
    SletError,
)
from .jets import Jet
from .potentials import Potential

TERM_E0 = "E0_only"
TERM_E2 = "through_E2"
TERM_E3 = "through_E3"
TERM_ORDERS = (TERM_E0, TERM_E2, TERM_E3)


@dataclass(frozen=True)
class SolverSettings:
    bracket_lo: float = 1e-3
    bracket_hi: float = 1e3
    scan_points: int = 400
    # relative tolerance on r0: the polish stops once a step or the bracket
    # is within root_tol * r0
    root_tol: float = 1e-12
    term_order: str = TERM_E3

    def __post_init__(self):
        if not (0 < self.bracket_lo < self.bracket_hi):
            raise ValueError("need 0 < bracket_lo < bracket_hi")
        if self.scan_points < 16:
            raise ValueError("scan_points must be at least 16")
        if not (0 < self.root_tol <= 1e-6):
            raise ValueError("root_tol must lie in (0, 1e-6]")
        if self.term_order not in TERM_ORDERS:
            raise ValueError(f"term_order must be one of {TERM_ORDERS}")


@dataclass(frozen=True)
class SletProblem:
    dim: int  # 3 or 2
    l: int
    n_radial: int
    potential: Potential
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        for name in ("l", "n_radial"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be a non-negative integer")
            if v < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if self.dim == 2 and self.potential.family == "donor":
            m = self.potential.params["m"]
            if self.l != abs(int(m)):
                raise ValueError(
                    f"2D donor requires l = |m|; got l={self.l}, m={m}")


@dataclass(frozen=True)
class SletBreakdown:
    r0: float
    w: float
    beta: float
    lbar: float
    Q: float
    E0: float
    E1: float
    E2_over_lbar2: float
    E3_over_lbar3: float
    E_total: float
    alpha1: float
    alpha2: float
    eps: tuple  # eps1..eps4
    dlt: tuple  # dlt1..dlt6
    e: tuple  # e1..e4
    d: tuple  # d1..d6
    candidates: tuple  # admissible (r0, E0) pairs, search order


# -- pointwise pieces -----------------------------------------------------


def omega(potential: Potential, r: float) -> float:
    """Oscillation frequency 2 sqrt(3 + r V''/V') at r."""
    return _omega(potential.eval_jet(r), r)


def _omega(jet, r: float) -> float:
    vp = jet.coeffs[1]
    vpp = 2.0 * jet.coeffs[2]
    if not vp > 0:
        raise NoBoundStateError(
            f"V'({r}) = {vp}; the expansion needs a rising potential")
    radicand = 3.0 + r * vpp / vp
    if not radicand > 0:
        raise InvalidExpansionPointError(
            f"3 + r V''/V' = {radicand} at r = {r}; frequency undefined")
    return 2.0 * math.sqrt(radicand)


def beta_shift(dim: int, n_radial, w):
    """Shift removing the first-order energy term. Works elementwise on
    n_radial and w."""
    if dim == 3:
        return -(2.0 + (2 * n_radial + 1) * w) / 4.0
    return -(n_radial + 0.5) * w / 2.0


def _scan(potential: Potential, settings: SolverSettings):
    """The log-spaced scan grid over the bracket window, with sqrt(r^3 V'/2)
    and w(r) on it from one jet, nan where undefined, without a warning. A
    level's F(r) is the first term minus l plus beta(w). Raises
    NoBoundStateError where V' is nowhere positive on the grid."""
    r = np.logspace(math.log10(settings.bracket_lo),
                    math.log10(settings.bracket_hi), settings.scan_points)
    with np.errstate(all="ignore"):
        jet = potential.eval_jet(r)
        vp = np.asarray(jet.coeffs[1], dtype=float)
        vpp = 2.0 * np.asarray(jet.coeffs[2], dtype=float)
        if not np.any(np.isfinite(vp) & (vp > 0)):
            raise NoBoundStateError(
                "V' is nowhere positive on the bracket window; "
                "the potential admits no expansion point")
        radicand = 3.0 + r * vpp / vp
        w = 2.0 * np.sqrt(radicand)
        w = np.where((vp > 0) & (radicand > 0), w, np.nan)
        lhs = np.sqrt(r**3 * vp / 2.0)
    return r, lhs, w


def _sign_changes(f, finite):
    """Mask of the scan cells [i, i+1] along the last axis that bracket a
    root of F: a sign change, or F exactly zero at the left end. `finite`
    is np.isfinite(f)."""
    return (finite[..., :-1] & finite[..., 1:]
            & ((f[..., :-1] == 0.0) | (f[..., :-1] * f[..., 1:] < 0.0)))


def _jet_at(problem: SletProblem, r: float):
    """Scalar jet of the potential at r; a failure there (a singular
    expression, float overflow in a hand jet) becomes
    InvalidExpansionPointError."""
    try:
        return problem.potential.eval_jet(r)
    except (SletError, ArithmeticError) as err:
        raise InvalidExpansionPointError(
            f"potential not evaluable at r = {r}: {err}") from err


def _lbar_equation_with_slope(problem: SletProblem, r: float):
    """F(r) and F'(r) from one scalar jet at r.

    With s = sqrt(r^3 V'/2), g = 3 + r V''/V' and w = 2 sqrt(g):
    F' = (3 r^2 V' + r^3 V'')/(4 s) + beta'(w) g'/sqrt(g), where
    g' = V''/V' + r V'''/V' - r (V''/V')^2. Raises
    InvalidExpansionPointError where F is undefined.
    """
    c = _jet_at(problem, r).coeffs
    vp, vpp, vppp = c[1], 2.0 * c[2], 6.0 * c[3]
    g = 3.0 + r * vpp / vp if vp > 0 else math.nan
    if not g > 0:
        raise InvalidExpansionPointError(
            f"equation not evaluable at r = {r}: V' = {vp}, "
            f"3 + r V''/V' = {g}")
    s = math.sqrt(r**3 * vp / 2.0)
    dim, n = problem.dim, problem.n_radial
    f = s - problem.l + beta_shift(dim, n, 2.0 * math.sqrt(g))
    if not math.isfinite(f):
        raise InvalidExpansionPointError(
            f"equation not evaluable at r = {r}: F = {f}")
    q = vpp / vp
    dg = q + r * vppp / vp - r * q * q
    # beta is linear in w; its slope is the change per unit frequency
    dbeta = beta_shift(dim, n, 1.0) - beta_shift(dim, n, 0.0)
    fp = (3.0 * r * r * vp + r**3 * vpp) / (4.0 * s) + dbeta * dg / math.sqrt(g)
    return f, fp


def _polish_root(problem: SletProblem, lo, hi, flo, fhi) -> float:
    """Root of F between lo and hi, where F(lo) and F(hi) differ in sign.

    Newton steps with the jet's slope, started at the regula falsi point
    and kept inside a bracket that shrinks on every evaluation. A step that
    would leave the bracket, fails to halve the step before it, or has no
    finite nonzero slope is replaced by bisection. Stops once a step or the
    bracket is within root_tol * r, returning the point after that step; a
    root_tol finer than two machine epsilons counts as two, since adjacent
    floats cannot be split further.
    """
    tol = max(problem.solver.root_tol, 2.0 * sys.float_info.epsilon)
    x = lo - flo * (hi - lo) / (fhi - flo)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    last_step = hi - lo
    while True:
        f, fp = _lbar_equation_with_slope(problem, x)
        if f == 0.0:
            return x
        if (f < 0.0) == (flo < 0.0):
            lo, flo = x, f
        else:
            hi = x
        step = f / fp if fp != 0.0 and math.isfinite(fp) else math.nan
        x_new = x - step
        if not (lo <= x_new <= hi) or (
                abs(step) > 0.5 * last_step and abs(step) > tol * x):
            x_new = 0.5 * (lo + hi)
        last_step = abs(x_new - x)
        if last_step <= tol * x or hi - lo <= tol * x:
            return x_new
        x = x_new


def _rootless(settings: SolverSettings, defined) -> SletError:
    """The error of a level whose F has no bracket on the scan grid: F is
    nowhere finite (not `defined`), or it never changes sign. Neither text
    depends on the level."""
    if not defined:
        return InvalidExpansionPointError(
            "frequency undefined across the whole bracket window")
    return NoRootError(
        f"no root of the expansion-point equation in "
        f"[{settings.bracket_lo:g}, {settings.bracket_hi:g}]; widen the "
        f"bracket window or increase scan_points")


def _lowest(candidates) -> int:
    """Index of the (r0, E0) candidate with the lowest E0; the first of
    equal ones wins."""
    return min(range(len(candidates)), key=lambda k: candidates[k][1])


class _ExpansionPoint(tuple):
    """The (r0, candidates) pair solve_r0 returns. Its `jet` attribute is
    the potential's jet at r0, made for the minimum test, which solve()
    reuses."""


def solve_r0(problem: SletProblem):
    """Locate the expansion point.

    Log-spaced scan over the bracket window, then a bracket-guarded Newton
    polish of every sign change, converged to root_tol relative to r.
    Among the roots keep those that are genuine minima of the frozen
    effective energy l̄²/r² + V(r), by its exact curvature 6 l̄²/r⁴ + V''(r),
    and return the one with the lowest E0 = l̄²/r0² + V(r0), together with
    every admissible (r0, E0) pair in search order.
    """
    s = problem.solver
    grid, lhs, w = _scan(problem.potential, s)
    with np.errstate(all="ignore"):
        f = lhs - problem.l + beta_shift(problem.dim, problem.n_radial, w)
        finite = np.isfinite(f)
        changes = np.flatnonzero(_sign_changes(f, finite))

    roots = []
    for i in changes.tolist():
        lo, flo = float(grid[i]), float(f[i])
        if flo == 0.0:
            roots.append(lo)
        else:
            roots.append(_polish_root(problem, lo, float(grid[i + 1]),
                                      flo, float(f[i + 1])))
    if f[-1] == 0.0:
        roots.append(float(grid[-1]))

    if not roots:
        raise _rootless(s, finite.any())

    candidates, jets_there = [], []
    for r0 in roots:
        jet = _jet_at(problem, r0)
        w = _omega(jet, r0)
        lbar = problem.l - beta_shift(problem.dim, problem.n_radial, w)
        if not lbar > 0:
            continue
        if 6.0 * lbar**2 / r0**4 + 2.0 * jet.coeffs[2] > 0:
            candidates.append((r0, lbar**2 / r0**2 + float(jet.coeffs[0])))
            jets_there.append(jet)

    if not candidates:
        raise NoMinimumError(
            "every root of the expansion-point equation sits on a maximum "
            "of the effective energy; no stable expansion point")

    best = _lowest(candidates)
    found = _ExpansionPoint((candidates[best][0], candidates))
    found.jet = jets_there[best]
    return found


# -- anharmonic coefficient tables ----------------------------------------


def appendix_coeffs(dim: int, beta: float, r0: float, Q: float, potjet, w: float):
    """The ten expansion coefficients (eps1..4, dlt1..6) and their scaled
    forms e_j = eps_j / w^(j/2), d_i = dlt_i / w^(i/2).

    potjet holds Taylor coefficients c_k = V^(k)(r0)/k!, which absorb the
    factorials in the derivative terms: r0^5 V'''/6Q = r0^5 c3 / Q etc.
    """
    c = potjet.coeffs
    e3_tail = r0**5 * c[3] / Q
    e4_tail = r0**6 * c[4] / Q
    d5_tail = r0**7 * c[5] / Q
    d6_tail = r0**8 * c[6] / Q
    if dim == 3:
        tb = 2.0 * beta + 1.0
        bb = beta * (1.0 + beta)
        eps = (-2.0 * tb, 3.0 * tb, -4.0 + e3_tail, 5.0 + e4_tail)
        dlt = (-2.0 * bb, 3.0 * bb, -4.0 * tb, 5.0 * tb,
               -6.0 + d5_tail, 7.0 + d6_tail)
    else:
        bb = beta * beta - 0.25
        eps = (-4.0 * beta, 6.0 * beta, -4.0 + e3_tail, 5.0 + e4_tail)
        dlt = (-2.0 * bb, 3.0 * bb, -8.0 * beta, 10.0 * beta,
               -6.0 + d5_tail, 7.0 + d6_tail)
    rw = math.sqrt(w) if isinstance(w, float) else np.sqrt(w)
    e = tuple(eps[j] / rw ** (j + 1) for j in range(4))
    d = tuple(dlt[i] / rw ** (i + 1) for i in range(6))
    return eps, dlt, e, d


def alpha1(n_radial: int, w: float, e) -> float:
    """Second-order energy coefficient of the anharmonic expansion."""
    n = n_radial
    e1, e2, e3, e4 = e
    return ((1 + 2 * n) * e2 + 3 * (1 + 2 * n + 2 * n * n) * e4
            - (e1 * e1 + 6 * (1 + 2 * n) * e1 * e3
               + (11 + 30 * n + 30 * n * n) * e3 * e3) / w)


def alpha2(n_radial: int, w: float, e, d) -> float:
    """Fourth-order energy coefficient, grouped by inverse powers of w."""
    n = n_radial
    e1, e2, e3, e4 = e
    d1, d2, d3, d4, d5, d6 = d
    n2 = n * n
    n3 = n2 * n

    g0 = ((1 + 2 * n) * d2
          + 3 * (1 + 2 * n + 2 * n2) * d4
          + 5 * (3 + 8 * n + 6 * n2 + 4 * n3) * d6)

    g1 = ((1 + 2 * n) * e2 * e2
          + 12 * (1 + 2 * n + 2 * n2) * e2 * e4
          + 2 * e1 * d1
          + 2 * (21 + 59 * n + 51 * n2 + 34 * n3) * e4 * e4
          + 6 * (1 + 2 * n) * e1 * d3
          + 30 * (1 + 2 * n + 2 * n2) * e1 * d5
          + 6 * (1 + 2 * n) * e3 * d1
          + 2 * (11 + 30 * n + 30 * n2) * e3 * d3
          + 10 * (13 + 40 * n + 42 * n2 + 28 * n3) * e3 * d5)

    g2 = (4 * e1 * e1 * e2
          + 36 * (1 + 2 * n) * e1 * e2 * e3
          + 8 * (11 + 30 * n + 30 * n2) * e2 * e3 * e3
          + 24 * (1 + 2 * n) * e1 * e1 * e4
          + 8 * (31 + 78 * n + 78 * n2) * e1 * e3 * e4
          + 12 * (57 + 189 * n + 225 * n2 + 150 * n3) * e3 * e3 * e4)

    g3 = (8 * e1**3 * e3
          + 108 * (1 + 2 * n) * e1 * e1 * e3 * e3
          + 48 * (11 + 30 * n + 30 * n2) * e1 * e3**3
          + 30 * (31 + 109 * n + 141 * n2 + 94 * n3) * e3**4)

    return g0 - g1 / w + g2 / (w * w) - g3 / (w * w * w)


# -- assembly --------------------------------------------------------------


def _energy_terms(dim, l, n_radial, r0, jet, w, term_order) -> dict:
    """Every SletBreakdown field but the candidates, from the potential's
    jet at r0 and the frequency w there. Elementwise: l, n_radial, r0, w
    and the jet's coefficients may be arrays of one shape."""
    n = n_radial
    beta = beta_shift(dim, n, w)
    lbar = l - beta
    Q = lbar * lbar
    E0 = Q / r0**2 + jet.coeffs[0]

    if dim == 3:
        first_order = 2.0 * beta + 1.0 + (n + 0.5) * w
        second_shift = beta * (1.0 + beta)
    else:
        first_order = 2.0 * beta + (n + 0.5) * w
        second_shift = beta * beta - 0.25
    E1 = (Q / r0**2) * first_order

    eps, dlt, e, d = appendix_coeffs(dim, beta, r0, Q, jet, w)
    a1 = alpha1(n, w, e)
    a2 = alpha2(n, w, e, d)

    E2_term = (second_shift + a1) / r0**2
    E3_term = a2 / (lbar * r0**2)

    E_total = E0
    if term_order in (TERM_E2, TERM_E3):
        E_total = E_total + E2_term
    if term_order == TERM_E3:
        E_total = E_total + E3_term

    return dict(
        r0=r0, w=w, beta=beta, lbar=lbar, Q=Q,
        E0=E0, E1=E1, E2_over_lbar2=E2_term, E3_over_lbar3=E3_term,
        E_total=E_total, alpha1=a1, alpha2=a2,
        eps=eps, dlt=dlt, e=e, d=d,
    )


def solve(problem: SletProblem) -> SletBreakdown:
    """Full eigenvalue breakdown for one (l, n) level. Raises
    InvalidExpansionPointError where an energy term is not finite."""
    # through the module-level name, which per-layer tracing wraps
    found = solve_r0(problem)
    (r0, candidates), jet = found, found.jet
    terms = _energy_terms(problem.dim, problem.l, problem.n_radial, r0, jet,
                          _omega(jet, r0), problem.solver.term_order)
    for name in ("E0", "E1", "E2_over_lbar2", "E3_over_lbar3", "E_total"):
        if not math.isfinite(terms[name]):
            raise InvalidExpansionPointError(
                f"{name} = {terms[name]} at r0 = {r0}; the energy is not finite")
    return SletBreakdown(**terms, candidates=tuple(candidates))


# -- many levels of one potential at once ----------------------------------


def _equation_with_slope_arrays(dim, potential, l, n, r):
    """F(r) and F'(r) of _lbar_equation_with_slope, elementwise over lanes
    with their own l and n, from one array jet. F is nan on a lane where
    the scalar form raises."""
    c = potential.eval_jet(r).coeffs
    vp, vpp, vppp = c[1], 2.0 * c[2], 6.0 * c[3]
    g = np.where(vp > 0, 3.0 + r * vpp / vp, np.nan)
    s = np.sqrt(r**3 * vp / 2.0)
    f = s - l + beta_shift(dim, n, 2.0 * np.sqrt(g))
    f = np.where((g > 0) & np.isfinite(f), f, np.nan)
    q = vpp / vp
    dg = q + r * vppp / vp - r * q * q
    dbeta = beta_shift(dim, n, 1.0) - beta_shift(dim, n, 0.0)
    fp = (3.0 * r * r * vp + r**3 * vpp) / (4.0 * s) + dbeta * dg / np.sqrt(g)
    return f, fp


def _polish_roots(dim, potential, l, n, lo, hi, flo, fhi, tol):
    """_polish_root on every lane at once, with one array jet per pass.

    Each lane takes the steps of the scalar iteration and stops where it
    stops. A lane whose F cannot be evaluated stops with a nan root. The
    scalar search keeps its own loop: run through _brackets and this one,
    it made `slet sweep` 1.20x and `slet solve` 1.17x slower.
    """
    root = np.full(lo.shape, np.nan)
    lane = np.arange(lo.size)
    x = lo - flo * (hi - lo) / (fhi - flo)
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    last_step = hi - lo
    while lane.size:
        f, fp = _equation_with_slope_arrays(dim, potential, l, n, x)
        on_root = f == 0.0
        root[lane[on_root]] = x[on_root]
        same = (f < 0.0) == (flo < 0.0)
        lo, flo = np.where(same, x, lo), np.where(same, f, flo)
        hi = np.where(same, hi, x)
        step = np.where((fp != 0.0) & np.isfinite(fp), f / fp, np.nan)
        x_new = x - step
        bisect = ~((lo <= x_new) & (x_new <= hi)) | (
            (abs(step) > 0.5 * last_step) & (abs(step) > tol * x))
        x_new = np.where(bisect, 0.5 * (lo + hi), x_new)
        last_step = abs(x_new - x)
        live = np.isfinite(f) & ~on_root
        done = live & ((last_step <= tol * x) | (hi - lo <= tol * x))
        root[lane[done]] = x_new[done]
        go = live & ~done
        lane, l, n, lo, hi, flo, x, last_step = (
            a[go] for a in (lane, l, n, lo, hi, flo, x_new, last_step))
    return root


def _brackets(dim, grid, lhs, w, levels):
    """Every bracket of every (index, l, n) level: the owning index, that
    level's l and n, the left grid cell and F at both ends of the cell.

    F is built one radial number at a time, as a (levels of that n) x grid
    array; one array for all levels raised `spectrum` peak RSS from 30.8
    to 31.6 MB. A level's brackets come in the scalar search's order: its
    sign changes left to right, then a zero on the last grid point (a cell
    of its own whose F is 0 at both ends). F = 0 at the left end marks a
    root on the grid.
    """
    by_n = {}
    for i, l, n in levels:
        by_n.setdefault(n, []).append((i, l))
    owner, ls, ns, cell, f_lo, f_hi = [], [], [], [], [], []
    for n, members in by_n.items():
        f = lhs - np.array([l for _, l in members], dtype=float)[:, None] \
            + beta_shift(dim, n, w)
        rows, cols = np.nonzero(_sign_changes(f, np.isfinite(f)))
        ends = np.flatnonzero(f[:, -1] == 0.0)
        for k in rows.tolist() + ends.tolist():
            owner.append(members[k][0])
            ls.append(members[k][1])
            ns.append(n)
        none = np.zeros(ends.size)
        cell.append(np.concatenate([cols, np.full(ends.size, grid.size - 1)]))
        f_lo.append(np.concatenate([f[rows, cols], none]))
        f_hi.append(np.concatenate([f[rows, cols + 1], none]))
    return (owner, np.array(ls, dtype=float), np.array(ns, dtype=float),
            *(np.concatenate(a) for a in (cell, f_lo, f_hi)))


def _solve_batch(dim, potential, settings, levels) -> dict:
    """{index: SletBreakdown or SletError} of the (index, l, n) levels
    that the batch search settles. A level without a bracket gets the
    scalar search's error at once. A level is left out when a lane of it
    hit a point where F cannot be evaluated, or it has no admissible
    minimum, or one of its energy terms is not finite. Raises the scan's
    NoBoundStateError, which the scalar search raises for every level too."""
    grid, lhs, w_grid = _scan(potential, settings)
    owner, l, n, cell, f_lo, f_hi = _brackets(dim, grid, lhs, w_grid, levels)
    bracketed, out = set(owner), {}
    for i, li, ni in levels:
        if i not in bracketed:
            f = lhs - li + beta_shift(dim, ni, w_grid)
            out[i] = _rootless(settings, np.isfinite(f).any())
    if not owner:
        return out

    roots = grid[cell]
    lanes = f_lo != 0.0
    if lanes.any():
        tol = max(settings.root_tol, 2.0 * sys.float_info.epsilon)
        roots[lanes] = _polish_roots(
            dim, potential, l[lanes], n[lanes], roots[lanes],
            grid[cell[lanes] + 1], f_lo[lanes], f_hi[lanes], tol)

    # one jet at every root: the frequency, the exact-curvature minimum
    # test and E0 = lbar^2/r0^2 + V(r0), as in the scalar search
    ok = np.isfinite(roots)
    roots = np.where(ok, roots, 1.0)
    coeffs = [c if np.ndim(c) else np.full(roots.shape, float(c))
              for c in potential.eval_jet(roots).coeffs]
    vp, c2 = coeffs[1], coeffs[2]
    radicand = 3.0 + roots * (2.0 * c2) / vp
    ok &= (vp > 0) & (radicand > 0)
    w = 2.0 * np.sqrt(radicand)
    lbar = l - beta_shift(dim, n, w)
    is_min = (lbar > 0) & (6.0 * lbar**2 / roots**4 + 2.0 * c2 > 0)
    e0 = lbar**2 / roots**2 + coeffs[0]

    slots = {}
    for s, i in enumerate(owner):
        slots.setdefault(i, []).append(s)
    ok, is_min = ok.tolist(), is_min.tolist()
    r_list, e0_list = roots.tolist(), e0.tolist()
    chosen, candidates = [], {}
    for i, mine in slots.items():
        admissible = [s for s in mine if is_min[s]]
        if all(ok[s] for s in mine) and admissible:
            candidates[i] = [(r_list[s], e0_list[s]) for s in admissible]
            chosen.append(admissible[_lowest(candidates[i])])
    if not chosen:
        return out

    chosen = np.array(chosen)
    terms = _energy_terms(dim, l[chosen], n[chosen], roots[chosen],
                          Jet(c[chosen] for c in coeffs), w[chosen],
                          settings.term_order)
    # one flat list of columns; each field takes one, each tuple its width
    layout, columns = [], []
    for t in terms.values():
        layout.append((len(columns), len(t) if isinstance(t, tuple) else 0))
        columns += t if isinstance(t, tuple) else (t,)
    finite = np.logical_and.reduce([np.isfinite(c) for c in columns])
    for s, ok_j, row in zip(chosen.tolist(), finite.tolist(),
                            zip(*(c.tolist() for c in columns))):
        if ok_j:
            fields = [row[a:a + k] if k else row[a] for a, k in layout]
            out[owner[s]] = SletBreakdown(
                **dict(zip(terms, fields)),
                candidates=tuple(candidates[owner[s]]))
    return out


def solve_levels(dim: int, potential: Potential, levels,
                 settings: SolverSettings) -> list:
    """solve() for every (l, n_radial) pair of `levels`, one potential.

    The levels share one order-6 jet on the scan grid. A guarded Newton
    steps every (level, bracket) pair at once, with one array jet per
    pass; one more jet at all the roots serves the minimum test, and the
    energies are assembled elementwise. The scan's error and that of a
    level without a bracket are the scalar search's and need no second
    scan. A level the batch does not settle otherwise (no admissible
    minimum, a point where F cannot be evaluated, an energy term that is
    not finite) is solved again by the scalar solve(), so that its outcome
    and its error text are the scalar path's. The results agree with
    solve() to within a few units in the last place, since numpy's and the
    C library's pow may round apart.

    Each entry is the level's SletBreakdown, or the SletError solve()
    raises for it, or the ValueError SletProblem raises for a level it
    rejects.
    """
    results = [None] * len(levels)
    problems = {}
    for i, (l, n) in enumerate(levels):
        try:
            problems[i] = SletProblem(dim, l, n, potential, settings)
        except ValueError as exc:
            results[i] = exc
    batch = {}
    if problems:
        try:
            with np.errstate(all="ignore"):
                batch = _solve_batch(dim, potential, settings, [
                    (i, p.l, p.n_radial) for i, p in problems.items()])
        except NoBoundStateError as exc:  # the scan's, the same for every level
            batch = dict.fromkeys(problems, exc)
        except (SletError, ArithmeticError):
            batch = {}
    for i, problem in problems.items():
        try:
            results[i] = batch[i] if i in batch else solve(problem)
        except SletError as exc:
            results[i] = exc
    return results
