"""Brute-force reference eigensolver.

Discretizes the radial equation with second differences on a uniform grid
over (0, R] and locates the k-th eigenvalue of the resulting symmetric
tridiagonal matrix by Sturm-count bisection. Completely independent of
the expansion machinery: shares only the potential, its evaluation and
its level rule (Potential.check_level), and the input checks of errors.

Each dimension discretizes its own equation, whose effective potential is
V + l(l + dim - 2)/r^2 (effective_potential):

- 3D: the reduced equation -u'' + (V + l(l + 1)/r^2) u = E u for u = r R,
  the 3-point second difference on r_i = i h, Dirichlet at both ends.
- 2D: the flux form -(1/rho)(rho R')' + (V + m^2/rho^2) R = E R on the
  cell centres rho_i = (i - 1/2) h, symmetrized with sqrt(rho_i). The
  axis face rho = 0 carries zero flux by construction and R vanishes at
  the outer face. Unlike the u = sqrt(rho) R form, whose attractive
  -1/(4 rho^2) term at m = 0 makes the 3-point scheme converge only
  logarithmically (and to a wrong value), this scheme is second order for
  every m (Mohseni & Colonius, J. Comput. Phys. 157, 2000).

One wall rule serves every grid. With w = dim - 2, N points at spacing h
span a box of radius (N + w) h: the wall is the node after the last point
in 3D and the face after the last cell in 2D. So h = R/(N + w), the h/2
grid has 2(N + w) - w points, and the box about 1.5x larger at the same h
has round(1.5 (N + w)) - w.

Every result carries its own error estimates: the same eigenvalue on a
halved spacing (h -> h/2) and in that larger box, whose radius is a whole
number of steps of the very same h, so that the box shift holds no grid
change. The result counts as converged only when both shifts are below
eig_tol. Both schemes gain a factor ~4 per grid doubling, so
energy_extrapolated (Richardson) is typically far more accurate than
either raw value.

One seeding rule serves every search. The (h, energy) results on the box
form one growing list, coarsest first, and a search's first window comes
from the last three (_window): their extrapolation in h^2 and h^4
(Neville) is the guess, and the window reaches twice its distance from
the extrapolation of the last two to either side. With fewer than two
results the search starts from the Gershgorin window. Three coarse grids
(about N/32, N/16 and N/8 points) come first, so the N/8 grid is seeded
from two of them, the N-point grid and the larger box from all three,
and the h/2 grid from the N/16, N/8 and N-point energies.

Every search is one bisection (Barth, Martin & Wilkinson, Numer. Math. 9,
1967) with one-shift Sturm walks (sturm_walk). It counts at both ends of
its window, so the window is certified by its own counts; a window whose
counts do not bracket k moves to the side the level lies on and doubles
its width, up to the Gershgorin window. It then halves the window until
it is no wider than eig_tol/4, or until float resolution stops the
halving, and returns the midpoint.

A search asks only whether a count exceeds k, so every walk stops once
that is settled (sturm_walk): when its count reaches k + 1, or when the
tail bound shows that no later pivot is negative, which happens a few
rows into the classically forbidden tail. Neither exit changes what a
search reads, so each probes the same shifts and returns the same float
as with full walks. The error of an escaped index recounts its window's
ends in full, so it reports the full counts.

The larger box costs about half a grid: at the same h, the N-point
operator is the box's leading N rows (in 2D its last row also carries the
outer-face term), so each walk keeps its count and q after rows 0..N-2,
by shift, and goes on from there through the rows of its own grid. The
box is searched like the N-point grid and from the same window, so the
two bisections probe the same shifts until their counts part, and there
the box walks only its own rows. Where they never part, both return the
same midpoint and the box shift reads exactly 0.0. Both grids' walks are
bounded by the box's tail: those bounds hold for the N-point rows too,
because in 2D only their last diagonal is larger. So a walk over rows
0..N-2 that settles settles both counts.

For the k-th eigenvalue under a fixed centrifugal term, k equals the number
of radial nodes, i.e. the radial quantum number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

# sturm_counts is not called here; perfbench's tracer wraps it by this name
from ._kernels import sturm_counts, sturm_walk, tail_bounds  # noqa: F401
from .errors import OracleError, require_dim, require_index, require_integer
from .potentials import Potential

# the most grid points one config may ask for (the h/2 grid takes twice
# as many); more is a usage error, not an allocation attempt
_MAX_GRID_POINTS = 10**6

# the coarsest eigenvalue tolerance a config may ask for; a coarser one
# stops the searches so early that the shifts they compare say little, and
# would certify any value as converged
_MAX_EIG_TOL = 1e-2


@dataclass(frozen=True)
class OracleConfig:
    box_radius: float = 40.0
    grid_points: int = 4000
    eig_tol: float = 1e-5

    def __post_init__(self):
        if not (self.box_radius > 0 and math.isfinite(self.box_radius)):
            raise ValueError("box_radius must be positive and finite")
        require_integer("grid_points", self.grid_points)
        if self.grid_points < 100:
            raise ValueError("grid_points must be at least 100")
        if self.grid_points > _MAX_GRID_POINTS:
            raise ValueError(f"grid_points must be at most {_MAX_GRID_POINTS}")
        if not (0 < self.eig_tol <= _MAX_EIG_TOL):
            raise ValueError(f"eig_tol must lie in (0, {_MAX_EIG_TOL:g}]")


@dataclass(frozen=True)
class OracleResult:
    """The k-th level on the N-point and h/2 grids, and its move in the
    box about 1.5x larger (box_shift). Each level is the midpoint of a
    bisection to within eig_tol/8; the N-point and box searches start from
    one window, so box_shift reads exactly 0.0 when their counts agree at
    every shift either probes."""
    k: int
    energy: float
    energy_refined: float
    box_shift: float
    converged: bool

    @property
    def energy_extrapolated(self) -> float:
        """Richardson extrapolation of the h and h/2 values, in a form
        that stays finite where 4 * energy_refined would overflow."""
        return self.energy_refined \
            + (self.energy_refined - self.energy) / 3.0


def effective_potential(dim: int, l: int, potential: Potential, r):
    """V(r) + l(l + dim - 2)/r^2, the effective potential of the equation
    each scheme discretizes: l(l + 1)/r^2 for u = r R in 3D, m^2/rho^2 for
    R itself in 2D (l = |m|)."""
    require_dim(dim)
    r = np.asarray(r, dtype=float)
    out = l * (l + dim - 2) / r**2 + potential.value(r)
    return float(out) if np.ndim(out) == 0 else out


def _spacing(dim, box_radius, n):
    """Grid spacing h of n points whose wall lies at box_radius: N points
    at spacing h span a box of radius (N + dim - 2) h."""
    h = box_radius / (n + dim - 2)
    # h**4 and 1/h**4 must both be normal floats, at h and on the h/2 grid
    if not 2e-75 < h < 1e75:
        raise OracleError(f"grid spacing {h:g} of {n} points is out of range")
    return h


def _operator(dim, l, potential, h, n):
    """Diagonal and squared off-diagonal of the operator on the grid of n
    points at spacing h, whose wall lies at (n + dim - 2) h."""
    if dim == 2:
        i = np.arange(1, n + 1, dtype=float)
        rho = (i - 0.5) * h
        diag = 2.0 / h**2 + effective_potential(dim, l, potential, rho)
        diag[-1] += _outer_face(n, h)
        # rho_{i+1/2} / sqrt(rho_i rho_{i+1}) / h^2, squared
        off2 = i[:-1] ** 2 / (i[:-1] ** 2 - 0.25) / h**4
    else:
        r = h * np.arange(1, n + 1, dtype=float)
        diag = 2.0 / h**2 + effective_potential(dim, l, potential, r)
        off2 = np.full(n - 1, 1.0 / h**4)
    if not np.all(np.isfinite(diag)):
        raise OracleError("effective potential not finite on the grid")
    return diag, off2


def _outer_face(n, h):
    """The 2D diagonal term of R = 0 at the outer face, on row n - 1."""
    return n / (n - 0.5) / h**2


def _pivmin(off2):
    return np.finfo(np.float64).tiny * max(1.0, float(np.max(off2)))


def _kth_eigenvalue(diag, off2, k, tol, window=None, count=None):
    """The k-th eigenvalue of the operator to within tol/2, by Sturm
    bisection.

    The search starts from window where it meets the Gershgorin window,
    which holds every eigenvalue, and from the Gershgorin window without
    one. count is the function shift -> Sturm count; by default sturm_walk
    on the operator. The search only asks whether a count exceeds k, so
    count may cap its counts at k + 1; the error of an escaped index
    recounts its ends in full.
    """
    reach = 2.0 * math.sqrt(float(np.max(off2)))
    # one float outward, so that a reach below half an ulp of the diagonal
    # does not round a bound onto a diagonal entry, whose zero pivot counts
    g_lo = math.nextafter(float(np.min(diag)) - reach, -math.inf)
    g_hi = math.nextafter(float(np.max(diag)) + reach, math.inf)
    pivmin = _pivmin(off2)
    if count is None:
        tail = tail_bounds(diag, off2)

        def count(shift):
            return sturm_walk(diag, off2, shift, pivmin, limit=k + 1,
                              tail=tail)[0]

    lo, hi = g_lo, g_hi
    if window is not None:
        s_lo, s_hi = window
        if g_lo < s_hi and s_lo < g_hi:
            lo, hi = max(s_lo, g_lo), min(s_hi, g_hi)
    ends = count(lo), count(hi)
    # a window that does not bracket the level moves to the side the level
    # lies on and doubles its width, by at least one float step, so that a
    # window rounding has closed (a seed's guess with a half-width below its
    # ulp) still moves
    while not ends[0] <= k < ends[1]:
        grow = max(2.0 * (hi - lo), math.ulp(lo), math.ulp(hi))
        if ends[0] > k and lo > g_lo:
            lo, hi = max(g_lo, lo - grow), lo
            ends = count(lo), ends[0]
        elif ends[1] <= k and hi < g_hi:
            lo, hi = hi, min(g_hi, hi + grow)
            ends = ends[1], count(hi)
        else:
            ends = [sturm_walk(diag, off2, s, pivmin)[0] for s in (lo, hi)]
            raise OracleError(
                f"eigenvalue {k} escaped the Gershgorin window "
                f"[{g_lo:g}, {g_hi:g}] (counts {ends[0]}, {ends[1]})")
    # halved at tol, or until float resolution stops the halving; the
    # halves sum without overflow where lo + hi would not
    mid = 0.5 * lo + 0.5 * hi
    while hi - lo > tol and lo < mid < hi:
        lo, hi = (lo, mid) if count(mid) > k else (mid, hi)
        mid = 0.5 * lo + 0.5 * hi
    return mid


def _extrapolate(points, h):
    """The value at spacing h of the polynomial in h^2 through points, a
    sequence of (h, energy) pairs (Neville's scheme)."""
    x = h * h
    xs = [p * p for p, _ in points]
    col = [e for _, e in points]
    for d in range(1, len(col)):
        col = [b + (b - a) * (x - xs[i + d]) / (xs[i + d] - xs[i])
               for i, (a, b) in enumerate(zip(col, col[1:]))]
    return col[0]


def _window(points, h, tol):
    """Search window for the level at spacing h, or None, the Gershgorin
    window, from fewer than two points.

    points are (h, energy) results on one box, coarsest first, of which
    the last three serve. Their extrapolation to h is the guess; the
    window reaches twice the guess's distance from the extrapolation
    without the coarsest of them to either side of it, and at least tol.
    At the spacing of the finest point both extrapolations are its energy,
    and the window is the narrowest.
    """
    if len(points) < 2:
        return None
    points = points[-3:]
    guess = _extrapolate(points, h)
    rough = _extrapolate(points[1:], h)
    half = max(2.0 * abs(guess - rough), tol)
    return guess - half, guess + half


def eigenvalue(dim: int, l: int, k: int, potential: Potential,
               config: OracleConfig | None = None) -> OracleResult:
    """k-th bound level (k >= 0) for fixed l, with convergence diagnostics.
    Refuses, with a ValueError, the levels that engine.SletProblem refuses."""
    require_index("l", l)
    require_index("k", k)
    require_dim(dim)
    potential.check_level(dim, l)
    cfg = config or OracleConfig()
    tol = cfg.eig_tol / 4.0
    box, n, w = cfg.box_radius, cfg.grid_points, dim - 2
    # the N-point spacing first, so that one out of range names N
    h = _spacing(dim, box, n)
    points = []  # (h, energy) on this box, coarsest first

    def level(m, h_m):
        op = _operator(dim, l, potential, h_m, m)
        return h_m, _kth_eigenvalue(*op, k, tol, _window(points, h_m, tol))

    # the coarse grids only place windows: when one is too small to hold
    # the level, or hits a singularity the N-point grid misses, the
    # searches start from their Gershgorin windows instead
    try:
        for m in (n // 32, n // 16, n // 8):
            points.append(level(m, _spacing(dim, box, m)))
    except OracleError:
        points.clear()

    # a box of about 1.5 R at exactly the same h, whose leading n rows are
    # the N-point grid's
    box_op = _operator(dim, l, potential, h, round(1.5 * (n + w)) - w)
    diag, off2 = box_op[0][:n].copy(), box_op[1][:n - 1]
    if dim == 2:
        diag[-1] += _outer_face(n, h)
    # off2 is a prefix of the box's and peaks at its first row (constant in
    # 3D), so the two grids have one pivmin
    pivmin = _pivmin(off2)
    # the box's bounds hold for the N-point rows too: its leading rows, of
    # which only the 2D last diagonal is larger
    tail = tail_bounds(*box_op)
    heads = {}  # shift -> (count, q) of rows 0..n-2, which both grids share

    def go_on(op, shift):
        # the count on op, N-point grid or box, capped at k + 1, from the q
        # of rows 0..n-2; a head that settled settles both
        if shift not in heads:
            heads[shift] = sturm_walk(diag, off2, shift, pivmin, stop=n - 1,
                                      limit=k + 1, tail=tail)
        c, q = heads[shift]
        if q is None:
            return c
        return c + sturm_walk(*op, shift, pivmin, q=q, start=n - 1,
                              limit=k + 1 - c, tail=tail)[0]

    # both searches start from one window, so they probe the same shifts
    # until their counts part, and the box walks only its own rows there
    seed = _window(points, h, tol)
    energy = _kth_eigenvalue(diag, off2, k, tol, seed,
                             partial(go_on, (diag, off2)))
    boxed = _kth_eigenvalue(*box_op, k, tol, seed, partial(go_on, box_op))
    points.append((h, energy))
    refined = level(2 * (n + w) - w, h / 2)[1]
    box_shift = float(boxed - energy)
    # plain bool: the numpy one is not JSON serializable
    converged = bool(abs(refined - energy) < cfg.eig_tol
                     and abs(box_shift) < cfg.eig_tol)
    return OracleResult(k=k, energy=float(energy), energy_refined=float(refined),
                        box_shift=box_shift, converged=converged)
