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
back to bisection whenever a step leaves the bracket. Every root where w is
defined is a minimum: there l̄² = r0³V'/2, so the effective energy's
curvature 6 l̄²/r0⁴ + V'' equals V' w²/(4 r0) > 0, and l̄ = l + 1/2
+ (n + 1/2) w/2 > 0 as l ≥ −1/2; the root of lowest E0 is taken. The energy
is then assembled from the zeroth-order term plus second- and third-order
corrections driven by the anharmonicity coefficients alpha1, alpha2.

One dimension rule: as (l − 1/2)(l + 1/2) = l² − 1/4, a 2D level at l is the
3D level at l − 1/2 (SletProblem.l_eff), and every level is solved so. Only
the reported β keeps the 2D convention: the 3D shift plus 1/2.

Two paths share that method. solve() and solve_r0() take one level with
scalar jets. solve_levels() takes many levels at once, as lanes with their
own l, n and parameters (an array parameter holds one entry per level): F
depends on (l, n) only through l and the linear beta(n, w), so one scan
jet, a row per parameter row, serves every level; one array jet per
Newton pass steps every (level, bracket) pair; the energy assembly
(_energy_terms, shared with solve) runs elementwise and gives the levels'
LEVEL_FIELDS as columns. A level the batch cannot settle falls back to
solve(), which keeps its outcome and error text. A `spectrum` is the
one-row case; a `sweep` a donor over gammas.

All arithmetic is plain 64-bit floating point.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InvalidExpansionPointError,
    NoBoundStateError,
    NoRootError,
    SletError,
    require_dim,
    require_index,
    require_integer,
)
from .jets import Jet
from .potentials import Potential

TERM_E0 = "E0_only"
TERM_E2 = "through_E2"
TERM_E3 = "through_E3"
TERM_ORDERS = (TERM_E0, TERM_E2, TERM_E3)

# the SletBreakdown fields that solve_levels gives as columns
LEVEL_FIELDS = ("r0", "w", "beta", "lbar", "E0", "E2_over_lbar2",
                "E3_over_lbar3", "E_total")
# the energies a level needs finite; every other field feeds one of them
_ENERGIES = ("E0", "E1", "E2_over_lbar2", "E3_over_lbar3", "E_total")

# levels solved as one batch. An array of the batch search holds 256 x 400
# scan points x 8 bytes, 0.8 MB, and about five are alive at its peak.
# 1000-level blocks were no faster on a 10^4-row sweep and took 10 MB more.
_BLOCK_LEVELS = 256
# the most scan points a search may take, 25x the default; more is a usage
# error, not an allocation attempt, as oracle._MAX_GRID_POINTS is for the
# oracle. A block's array then holds 256 x 10^4 x 8 bytes, 20 MB, and about
# five are alive at its peak, about 100 MB.
_MAX_SCAN_POINTS = 10**4


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
        if not (0 < self.bracket_lo < self.bracket_hi < math.inf):
            raise ValueError("need 0 < bracket_lo < bracket_hi < inf")
        require_integer("scan_points", self.scan_points)
        if not 16 <= self.scan_points <= _MAX_SCAN_POINTS:
            raise ValueError(
                f"scan_points must lie in [16, {_MAX_SCAN_POINTS}]")
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
        require_dim(self.dim)
        require_index("l", self.l)
        require_index("n_radial", self.n_radial)
        self.potential.check_level(self.dim, self.l)

    @property
    def l_eff(self):
        """The l of the 3D level this level is solved as."""
        return self.l + (self.dim - 3) / 2


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
    candidates: tuple  # (r0, E0) of every root of F, search order


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
    """Shift removing the first-order energy term, elementwise on n_radial
    and w: the 3D shift, plus 1/2 in 2D."""
    require_dim(dim)
    return _shift(n_radial, w) + (3 - dim) / 2


def _shift(n_radial, w):
    """The 3D shift -(2 + (2n + 1) w)/4, exactly; slope in w: -(n + 1/2)/2."""
    return -(0.5 + (n_radial + 0.5) / 2.0 * w)


def _frequency(r, vp, c2):
    """w = 2 sqrt(3 + r V''/V') elementwise, from the jet's c1 = V' and
    c2 = V''/2; nan exactly where V' <= 0 or the radicand is not positive."""
    radicand = 3.0 + (2.0 * r) * c2 / vp
    return np.where((vp > 0) & (radicand > 0), 2.0 * np.sqrt(radicand),
                    np.nan)


def _scan(potential: Potential, settings: SolverSettings):
    """The log-spaced scan grid over the bracket window, with sqrt(r^3 V'/2)
    and w(r) on it from one jet, nan where undefined, without a warning,
    and whether V' is finite and positive anywhere on the grid. A level's
    F(r) is the first term minus l plus beta(w). Parameters held as
    columns give one row of each, and of the flag, per parameter row."""
    r = np.logspace(math.log10(settings.bracket_lo),
                    math.log10(settings.bracket_hi), settings.scan_points)
    with np.errstate(all="ignore"):
        # with a row per parameter row, every array here is rows x grid:
        # each is dropped once used, to keep the peak memory down
        _, vp, c2, *_ = potential.eval_jet(r).coeffs
        vp = np.asarray(vp, dtype=float)
        w = _frequency(r, vp, np.asarray(c2, dtype=float))
        del c2
        lhs = np.sqrt(r**3 * vp / 2.0)
    rising = np.atleast_1d(np.isfinite(vp) & (vp > 0)).any(axis=-1)
    return r, lhs, w, rising


def _cells(f, finite):
    """Mask of the scan cells along the last axis that bracket a root of F.
    Cell i is [i, i+1] where F is finite at both ends and changes sign or
    is exactly 0 at i; the last grid point is a cell of its own where F is
    exactly 0 there. `finite` is np.isfinite(f)."""
    cells = f == 0.0
    cells[..., :-1] |= f[..., :-1] * f[..., 1:] < 0.0
    cells[..., :-1] &= finite[..., :-1] & finite[..., 1:]
    return cells


def _jet_at(problem: SletProblem, r: float):
    """Scalar jet of the potential at r; a failure there (a singular
    expression, or a float error such as Python's ZeroDivisionError)
    becomes InvalidExpansionPointError."""
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
    vp = c[1]
    g = 3.0 + r * (2.0 * c[2]) / vp if vp > 0 else math.nan
    if not g > 0:
        raise InvalidExpansionPointError(
            f"equation not evaluable at r = {r}: V' = {vp}, "
            f"3 + r V''/V' = {g}")
    f, fp = _equation(c, r, math.sqrt(r**3 * vp / 2.0), 2.0 * math.sqrt(g),
                      problem.l_eff, problem.n_radial)
    if not math.isfinite(f):
        raise InvalidExpansionPointError(
            f"equation not evaluable at r = {r}: F = {f}")
    return f, fp


def _equation(c, r, s, w, l, n):
    """F and F' from the jet's coefficients c at r, s = sqrt(r^3 V'/2) and
    w = 2 sqrt(g), on floats and arrays alike; 0.5 w is sqrt(g) to the
    bit."""
    vp, vpp, vppp = c[1], 2.0 * c[2], 6.0 * c[3]
    q = vpp / vp
    dg = q + r * vppp / vp - r * q * q
    dbeta = -(n + 0.5) / 2.0
    fp = (3.0 * r * r * vp + r**3 * vpp) / (4.0 * s) + dbeta * dg / (0.5 * w)
    return s - l + _shift(n, w), fp


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


def _rootless(settings: SolverSettings, rising, defined) -> SletError:
    """The error of a level whose F has no bracket on the scan grid: V' is
    nowhere positive (not `rising`), or F is nowhere finite (not
    `defined`), or it never changes sign. No text depends on the level."""
    if not rising:
        return NoBoundStateError(
            "V' is nowhere positive on the bracket window; "
            "the potential admits no expansion point")
    if not defined:
        return InvalidExpansionPointError(
            "frequency undefined across the whole bracket window")
    return NoRootError(
        f"no root of the expansion-point equation in "
        f"[{settings.bracket_lo:g}, {settings.bracket_hi:g}]; widen the "
        f"bracket window or increase scan_points")


class _ExpansionPoint(tuple):
    """The (r0, candidates) pair solve_r0 returns. Its `jet` attribute is
    the potential's jet at r0, made for w and E0 there, which solve()
    reuses."""


def solve_r0(problem: SletProblem):
    """Locate the expansion point.

    Log-spaced scan over the bracket window, then a bracket-guarded Newton
    polish of every sign change, converged to root_tol relative to r.
    Every root is a minimum of the effective energy l̄²/r² + V(r) (module
    docstring). Returns the root of lowest E0 = l̄²/r0² + V(r0), and every
    root's (r0, E0) pair in search order.
    """
    s = problem.solver
    grid, lhs, w, rising = _scan(problem.potential, s)
    with np.errstate(all="ignore"):
        f = lhs - problem.l_eff + _shift(problem.n_radial, w)
        finite = np.isfinite(f)
        cells = np.flatnonzero(_cells(f, finite))
        # a float error in the polish ends as an F that is not finite, which
        # raises, or a slope that is not finite, which bisects
        roots = []
        for i in cells.tolist():
            lo, flo = float(grid[i]), float(f[i])
            if flo == 0.0:
                roots.append(lo)
            else:
                roots.append(_polish_root(problem, lo, float(grid[i + 1]),
                                          flo, float(f[i + 1])))

    if not roots:
        raise _rootless(s, rising, finite.any())

    candidates, jets = [], []
    for r0 in roots:
        jet = _jet_at(problem, r0)
        lbar = problem.l_eff - _shift(problem.n_radial, _omega(jet, r0))
        candidates.append((r0, lbar**2 / r0**2 + float(jet.coeffs[0])))
        jets.append(jet)

    # the lowest E0; the first of equal ones wins
    best = min(range(len(candidates)), key=lambda k: candidates[k][1])
    found = _ExpansionPoint((candidates[best][0], candidates))
    found.jet = jets[best]
    return found


# -- anharmonic coefficient tables ----------------------------------------


def appendix_coeffs(dim: int, beta: float, r0: float, Q: float, potjet, w: float):
    """The ten expansion coefficients (eps1..4, dlt1..6) and their scaled
    forms e_j = eps_j / w^(j/2), d_i = dlt_i / w^(i/2); in 2D, at beta - 1/2.

    potjet holds Taylor coefficients c_k = V^(k)(r0)/k!, which absorb the
    factorials in the derivative terms: r0^5 V'''/6Q = r0^5 c3 / Q etc.
    """
    require_dim(dim)
    beta = beta - (3 - dim) / 2
    c = potjet.coeffs
    e3_tail = r0**5 * c[3] / Q
    e4_tail = r0**6 * c[4] / Q
    d5_tail = r0**7 * c[5] / Q
    d6_tail = r0**8 * c[6] / Q
    tb = 2.0 * beta + 1.0
    bb = beta * (1.0 + beta)
    eps = (-2.0 * tb, 3.0 * tb, -4.0 + e3_tail, 5.0 + e4_tail)
    dlt = (-2.0 * bb, 3.0 * bb, -4.0 * tb, 5.0 * tb,
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
    """Every SletBreakdown field but the candidates, of the 3D level at l,
    from the potential's jet at r0 and the frequency w there; beta is
    reported as beta_shift(dim, ...). Elementwise: l, n_radial, r0, w and
    the jet's coefficients may be same-shape arrays."""
    n = n_radial
    beta = _shift(n, w)
    lbar = l - beta
    Q = lbar * lbar
    E0 = Q / r0**2 + jet.coeffs[0]
    E1 = (Q / r0**2) * (2.0 * beta + 1.0 + (n + 0.5) * w)

    eps, dlt, e, d = appendix_coeffs(3, beta, r0, Q, jet, w)
    a1 = alpha1(n, w, e)
    a2 = alpha2(n, w, e, d)

    E2_term = (beta * (1.0 + beta) + a1) / r0**2
    E3_term = a2 / (lbar * r0**2)

    E_total = E0
    if term_order in (TERM_E2, TERM_E3):
        E_total = E_total + E2_term
    if term_order == TERM_E3:
        E_total = E_total + E3_term

    return dict(
        r0=r0, w=w, beta=beta_shift(dim, n, w), lbar=lbar, Q=Q,
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
    terms = _energy_terms(problem.dim, problem.l_eff, problem.n_radial, r0,
                          jet, _omega(jet, r0), problem.solver.term_order)
    for name in _ENERGIES:
        if not math.isfinite(terms[name]):
            raise InvalidExpansionPointError(
                f"{name} = {terms[name]} at r0 = {r0}; the energy is not finite")
    return SletBreakdown(**terms, candidates=tuple(candidates))


# -- many levels at once ---------------------------------------------------


def _lanes(potential: Potential, index) -> Potential:
    """`potential` with every array parameter indexed by `index`; an
    integer index gives that lane's own numbers as plain floats. A
    parameter that all lanes share is a plain number and stays as it is."""
    own = {k: v[index] for k, v in potential.params.items()
           if isinstance(v, np.ndarray)}
    if not own:
        return potential
    own = {k: v if np.ndim(v) else v.item() for k, v in own.items()}
    return replace(potential, params={**potential.params, **own})


def _equation_with_slope_arrays(potential, l, n, r):
    """F(r) and F'(r) of _lbar_equation_with_slope, elementwise over lanes
    with their own l and n, from one array jet. F is not finite on a lane
    where the scalar form raises."""
    c = potential.eval_jet(r).coeffs
    w = _frequency(r, c[1], c[2])
    return _equation(c, r, np.sqrt(r**3 * c[1] / 2.0), w, l, n)


def _polish_roots(potential, l, n, lo, hi, flo, fhi, tol):
    """_polish_root on every lane at once, with one array jet per pass.

    A lane is one bracket: l, n, lo, hi, flo and fhi hold one entry per
    lane, and so does each array parameter of `potential`; the lanes that
    go on keep theirs. Each lane takes the steps of the scalar iteration
    and stops where it stops. The result holds each lane's root, nan where
    its F could not be evaluated. The scalar search keeps its own loop:
    run through _brackets and this one, it made `slet solve` 1.17x slower.
    """
    root = np.full(lo.shape, np.nan)
    lane = np.arange(lo.size)
    x = lo - flo * (hi - lo) / (fhi - flo)
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    last_step = hi - lo
    while lane.size:
        f, fp = _equation_with_slope_arrays(potential, l, n, x)
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
        potential = _lanes(potential, go)
    return root


def _brackets(lhs, w, l, n):
    """The brackets of every level k, whose F comes from its scan rows
    lhs[k], w[k] and its own l[k], n[k]. Per bracket, in the scalar
    search's order: the level, the cell of _cells and F at both ends of it
    (F = 0 at the left end marks a root on the grid). Per level: whether F
    is finite anywhere. F is built one n at a time, as a (levels of that
    n) x grid array; one array for all levels raised `spectrum` peak RSS
    from 30.84 to 31.85 MB."""
    level, cell, f_lo, f_hi = [], [], [], []
    defined = np.empty(l.shape, dtype=bool)
    width = lhs.shape[-1]
    for nk in dict.fromkeys(n.tolist()):
        at = np.flatnonzero(n == nk)
        f = lhs[at] - l[at, None] + _shift(nk, w[at])
        finite = np.isfinite(f)
        defined[at] = finite.any(axis=-1)
        # np.nonzero of the 2-D mask takes about 10x longer
        hits, cols = np.divmod(np.flatnonzero(_cells(f, finite)), width)
        level.append(at[hits])
        cell.append(cols)
        f_lo.append(f[hits, cols])
        f_hi.append(f[hits, np.minimum(cols + 1, width - 1)])
    return (*(np.concatenate(a) for a in (level, cell, f_lo, f_hi)), defined)


def _solve_batch(dim, potential, settings, levels):
    """One batch search over the (index, l_eff, n) levels. Returns
    {index: SletError} of the levels without a bracket, the indices of the
    levels it solves, and their LEVEL_FIELDS as {field: array} in the
    order of those indices; dim sets only the reported beta. `potential`
    holds one entry per index in each array parameter; a level takes its
    index's. A level without a bracket gets the scalar search's error at
    once, the scan's NoBoundStateError among them. A level is left out
    when a lane of it hit a point where F or w cannot be evaluated, or one
    of its _ENERGIES is not finite."""
    index, l, n = zip(*levels)
    l, n = np.array(l, dtype=float), np.array(n, dtype=float)
    # each level's own lane; a potential without lanes stays as it is, and
    # its one scan row serves every level
    potential = _lanes(potential, np.array(index))
    grid, lhs, w_grid, rising = _scan(_lanes(potential, (slice(None), None)),
                                      settings)
    lhs, w_grid = (np.broadcast_to(a, (l.size, grid.size))
                   for a in (lhs, w_grid))
    level, cell, f_lo, f_hi, defined = _brackets(lhs, w_grid, l, n)
    rising = np.broadcast_to(rising, l.shape)
    bracketed = set(level.tolist())
    errors = {i: _rootless(settings, rising[k], defined[k])
              for k, i in enumerate(index) if k not in bracketed}
    if not level.size:
        return errors, np.empty(0, dtype=int), {}

    l, n, potential = l[level], n[level], _lanes(potential, level)
    roots = grid[cell]
    lanes = f_lo != 0.0
    if lanes.any():
        tol = max(settings.root_tol, 2.0 * sys.float_info.epsilon)
        roots[lanes] = _polish_roots(
            _lanes(potential, lanes), l[lanes], n[lanes], roots[lanes],
            grid[cell[lanes] + 1], f_lo[lanes], f_hi[lanes], tol)

    # one jet at every root: the frequency and E0 = lbar^2/r0^2 + V(r0),
    # as in the scalar search. A +inf frequency stays, as there.
    ok = np.isfinite(roots)
    roots = np.where(ok, roots, 1.0)
    coeffs = [c if np.ndim(c) else np.full(roots.shape, float(c))
              for c in potential.eval_jet(roots).coeffs]
    w = _frequency(roots, coeffs[1], coeffs[2])
    ok &= ~np.isnan(w)
    e0 = (l - _shift(n, w))**2 / roots**2 + coeffs[0]

    # per level, the root of lowest E0, the first of equal ones in search
    # order, as in solve_r0 (the sort is stable); none where a root of the
    # level could not be evaluated
    order = np.lexsort((e0, level))
    chosen = order[np.r_[True, np.diff(level[order]) != 0]]
    broken = np.zeros(len(index), dtype=bool)
    broken[level[~ok]] = True
    chosen = chosen[~broken[level[chosen]]]
    terms = _energy_terms(dim, l[chosen], n[chosen], roots[chosen],
                          Jet(c[chosen] for c in coeffs), w[chosen],
                          settings.term_order)
    good = np.logical_and.reduce([np.isfinite(terms[k]) for k in _ENERGIES])
    return (errors, np.array(index)[level[chosen[good]]],
            {f: terms[f][good] for f in LEVEL_FIELDS})


def solve_levels(dim: int, potential: Potential, levels,
                 settings: SolverSettings) -> tuple:
    """solve() for every (l, n_radial) pair of `levels`, as columns.

    `potential` serves every level. A parameter it holds as a 1-D array
    has one entry per level, as in a sweep's donor over an array of
    gammas, and the batch search runs on these lanes; an array of any
    other shape is a ValueError. The levels are solved in blocks of
    _BLOCK_LEVELS, each with its slice of the array parameters, so the
    search's memory stays bounded however many levels there are.

    The scan is one order-6 jet on its grid, with a row per parameter
    row. A guarded Newton steps every (level, bracket) pair at once, with
    one array jet per pass; one more jet at all the roots gives w and E0
    there, each root being a minimum, and the energies are assembled
    elementwise. The scan's error and that of a level without a bracket
    are the scalar search's and need no second scan. A level the batch
    does not settle otherwise (a point where F or w cannot be evaluated,
    an energy that is not finite) is solved again by the scalar solve()
    with its own parameters, so that its outcome and its error text are
    the scalar path's. The results agree with solve() to within a few
    units in the last place, since numpy's and the C library's pow may
    round apart.

    Returns (columns, errors). `columns` maps each of LEVEL_FIELDS to a
    float array with one entry per level, nan where the level failed.
    errors[i] is None, or the SletError solve() raises for level i, or
    the ValueError SletProblem raises for a level it rejects.
    """
    for k, v in potential.params.items():
        if isinstance(v, np.ndarray) and v.shape != (len(levels),):
            raise ValueError(f"parameter {k} holds {v.shape} entries for "
                             f"{len(levels)} levels")
    columns = {f: np.full(len(levels), np.nan) for f in LEVEL_FIELDS}
    errors = [None] * len(levels)
    for start in range(0, len(levels), _BLOCK_LEVELS):
        chunk = levels[start:start + _BLOCK_LEVELS]
        block = _lanes(potential, slice(start, start + len(chunk)))
        problems = {}
        for i, (l, n) in enumerate(chunk):
            try:  # checks l and n; only solve() needs a lane of its own
                problems[i] = SletProblem(dim, l, n, block, settings)
            except ValueError as exc:
                errors[start + i] = exc
        bad, done, cols = {}, np.empty(0, dtype=int), {}
        if problems:
            try:
                with np.errstate(all="ignore"):
                    bad, done, cols = _solve_batch(dim, block, settings, [
                        (i, p.l_eff, p.n_radial) for i, p in problems.items()])
            except (SletError, ArithmeticError):
                pass  # every level of the block goes to solve()
        for f, col in cols.items():
            columns[f][start + done] = col
        for i, exc in bad.items():
            errors[start + i] = exc
        for i in sorted(problems.keys() - bad.keys() - set(done.tolist())):
            try:
                bd = solve(replace(problems[i], potential=_lanes(block, i)))
            except SletError as exc:
                errors[start + i] = exc
                continue
            for f in LEVEL_FIELDS:
                columns[f][start + i] = getattr(bd, f)
    return columns, errors
