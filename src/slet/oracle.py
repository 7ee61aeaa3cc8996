"""Brute-force reference eigensolver.

Discretizes the radial equation with second differences on a uniform grid
over (0, R] and locates the k-th eigenvalue of the resulting symmetric
tridiagonal matrix by Sturm-count multisection. Completely independent of
the expansion machinery: shares only the potential evaluation.

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
results the search starts from the Gershgorin window. Three coarse grids (about N/32,
N/16 and N/8 points) come first, so the N/8 grid is seeded from two of
them and the N-point grid from all three; the larger box, when it needs a
search of its own, and the h/2 grid are seeded from the N/16, N/8 and
N-point energies.

Each multisection pass lays _PROBES = 255 evenly spaced probes over its
window, the window's endpoints among them, and narrows the window to the
cell that ends at the first probe whose count exceeds k. It counts at
the two endpoints, so every pass certifies its own window, and bisects
the probe indices between them, which the count's monotonicity in the
shift allows: about log2(254) = 8 one-shift walks (sturm_walk) find the
cell a count at all 255 probes would. Counts are kept by shift, so an
endpoint that was a probe of the pass before is not walked again. A
window whose counts do not bracket k is widened towards the Gershgorin
window. The search stops when the window is no wider than eig_tol/4, or
stops shrinking at float resolution.

The larger box costs about half a grid: at the same h, the N-point
operator is the box's leading N rows (in 2D its last row also carries the
outer-face term), so each N-point walk keeps its count and q after rows
0..N-2 and goes on from there through the N-point grid's last row; the
box goes on from the same q through its remaining rows. Interlacing puts
the box level at or below the N-point one, so on the last N-point pass
whose probes lie at most eig_tol/4 apart, the box counts bracket k unless
the box level lies below that pass's window; the box then bisects the same
probes, and only in the other case is it searched on its own.

For the k-th eigenvalue under a fixed centrifugal term, k equals the number
of radial nodes, i.e. the radial quantum number.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

# sturm_counts is not called here; perfbench's tracer wraps it by this name
from ._kernels import sturm_counts, sturm_walk  # noqa: F401
from .errors import OracleError
from .potentials import Potential

# Probes per multisection pass. A pass counts at its two ends and bisects
# the indices between them, about log2(254) = 8 walks, so the number sets
# the lattice rather than the cost; 255 keeps the lattice, and with it
# every output, of the full count at every probe.
_PROBES = 255

# the most grid points one config may ask for (the h/2 grid takes twice
# as many); more is a usage error, not an allocation attempt
_MAX_GRID_POINTS = 10**6

# the coarsest eigenvalue tolerance a config may ask for; a coarser one is
# met by the first multisection pass from the Gershgorin window, and would
# certify any value as converged
_MAX_EIG_TOL = 1e-2


@dataclass(frozen=True)
class OracleConfig:
    box_radius: float = 40.0
    grid_points: int = 4000
    eig_tol: float = 1e-5

    def __post_init__(self):
        if not (self.box_radius > 0 and math.isfinite(self.box_radius)):
            raise ValueError("box_radius must be positive and finite")
        if isinstance(self.grid_points, bool) \
                or not isinstance(self.grid_points, (int, np.integer)):
            raise ValueError("grid_points must be an integer")
        if self.grid_points < 100:
            raise ValueError("grid_points must be at least 100")
        if self.grid_points > _MAX_GRID_POINTS:
            raise ValueError(f"grid_points must be at most {_MAX_GRID_POINTS}")
        if not (0 < self.eig_tol <= _MAX_EIG_TOL):
            raise ValueError(f"eig_tol must lie in (0, {_MAX_EIG_TOL:g}]")


@dataclass(frozen=True)
class OracleResult:
    """The k-th level on the N-point and h/2 grids, and its move in the
    box about 1.5x larger (box_shift). Where one multisection pass counts
    both grids, each level is the midpoint of its cell among the same
    probes, spaced at most eig_tol/4 apart: box_shift reads exactly 0.0 when
    both levels fall in one cell, and a whole number of probe spacings
    otherwise. A box level below that pass's window is located on its own,
    to eig_tol/8."""
    k: int
    energy: float
    energy_refined: float
    box_shift: float
    converged: bool

    @property
    def energy_extrapolated(self) -> float:
        """Richardson extrapolation of the h and h/2 values."""
        return (4.0 * self.energy_refined - self.energy) / 3.0


def effective_potential(dim: int, l: int, potential: Potential, r):
    """V(r) + l(l + dim - 2)/r^2, the effective potential of the equation
    each scheme discretizes: l(l + 1)/r^2 for u = r R in 3D, m^2/rho^2 for
    R itself in 2D (l = |m|)."""
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    r = np.asarray(r, dtype=float)
    out = l * (l + dim - 2) / r**2 + potential.value(r)
    return float(out) if np.ndim(out) == 0 else out


def _spacing(dim, box_radius, n):
    """Grid spacing h of n points whose wall lies at box_radius: N points
    at spacing h span a box of radius (N + dim - 2) h."""
    h = box_radius / (n + dim - 2)
    # h**4 and 1/h**4 must both be normal floats
    if not 1e-75 < h < 1e75:
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


def _cell(k, probes, count):
    """The cell (probes[j - 1], probes[j]) of the first of a pass's probes
    whose count exceeds k, given count(probes[0]) <= k < count(probes[-1]).
    Sturm counts are monotone in the shift, so bisection over the indices
    finds the probe that counting every probe would, in about
    log2(_PROBES - 1) = 8 walks."""
    i, j = 0, _PROBES - 1
    while j - i > 1:
        mid = (i + j) // 2
        i, j = (i, mid) if count(probes[mid]) > k else (mid, j)
    return probes[j - 1], probes[j]


def _kth_eigenvalue(diag, off2, k, tol, window=None, count=None):
    """The k-th eigenvalue of the operator to within tol/2.

    The search starts from window where it meets the Gershgorin window,
    which holds every eigenvalue, and from the Gershgorin window without
    one. count(probes) is called once per pass with the pass's probes and
    returns the function shift -> Sturm count; by default sturm_walk on
    the operator.
    """
    reach = 2.0 * math.sqrt(float(np.max(off2)))
    g_lo, g_hi = float(np.min(diag)) - reach, float(np.max(diag)) + reach
    if count is None:
        pivmin = _pivmin(off2)

        def count(probes):
            return lambda shift: sturm_walk(diag, off2, shift, pivmin)[0]

    known = {}  # count by shift: a pass's ends are probes of the pass before
    lo, hi = g_lo, g_hi
    if window is not None:
        s_lo, s_hi = window
        if g_lo < s_hi and s_lo < g_hi:
            lo, hi = max(s_lo, g_lo), min(s_hi, g_hi)
    # multisection: keep the subinterval whose right edge first reaches
    # count > k, until the window is narrower than tol; a window that does
    # not bracket the level grows on the side the level lies, by at least
    # one float step, so that a window rounding has closed (a seed's guess
    # with a half-width below its ulp) still moves
    while True:
        probes = np.linspace(lo, hi, _PROBES).tolist()
        walk = count(probes)

        def at(shift):
            if shift not in known:
                known[shift] = walk(shift)
            return known[shift]

        ends = at(probes[0]), at(probes[-1])
        grow = max((_PROBES - 1) * (hi - lo), float(np.spacing(abs(lo))))
        if ends[0] > k:
            if lo == g_lo:
                break
            lo, hi = max(g_lo, lo - grow), lo
        elif ends[1] <= k:
            if hi == g_hi:
                break
            lo, hi = hi, min(g_hi, hi + grow)
        else:
            window = _cell(k, probes, at)
            # done at tol, or where float resolution stops the shrinking
            if window[1] - window[0] <= tol or window == (lo, hi):
                return 0.5 * (window[0] + window[1])
            lo, hi = window
    raise OracleError(
        f"eigenvalue {k} escaped the Gershgorin window "
        f"[{g_lo:g}, {g_hi:g}] (counts {ends[0]}, {ends[1]})")


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
    without the coarsest of them to either side of it, and at least so
    far that a single multisection pass resolves it to tol (0.45 rather
    than 0.5, so rounding cannot leave the subinterval a hair wider than
    tol). At the spacing of the finest point both extrapolations are its
    energy, and the window is the narrowest.
    """
    if len(points) < 2:
        return None
    points = points[-3:]
    guess = _extrapolate(points, h)
    rough = _extrapolate(points[1:], h)
    half = max(2.0 * abs(guess - rough), 0.45 * (_PROBES - 1) * tol)
    return guess - half, guess + half


def _require_index(name, value):
    # l(l + 1) is the same at l and -1 - l, so a negative l would solve
    # another level
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < 0:
        raise ValueError(f"{name} must be a non-negative integer")
    if value > sys.float_info.max:
        raise ValueError(f"{name} is beyond the float range")


def eigenvalue(dim: int, l: int, k: int, potential: Potential,
               config: OracleConfig | None = None) -> OracleResult:
    """k-th bound level (k >= 0) for fixed l, with convergence diagnostics."""
    _require_index("l", l)
    _require_index("k", k)
    cfg = config or OracleConfig()
    tol = cfg.eig_tol / 4.0
    box, n, w = cfg.box_radius, cfg.grid_points, dim - 2
    # the N-point spacing first, so that one out of range names N
    h = _spacing(dim, box, n)
    points = []  # (h, energy) on this box, coarsest first

    def level(m):
        h_m = _spacing(dim, box, m)
        op = _operator(dim, l, potential, h_m, m)
        return h_m, _kth_eigenvalue(*op, k, tol, _window(points, h_m, tol))

    # the coarse grids only place windows: when one is too small to hold
    # the level, or hits a singularity the N-point grid misses, the
    # searches start from their Gershgorin windows instead
    try:
        for m in (n // 32, n // 16, n // 8):
            points.append(level(m))
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
    heads = {}  # shift -> (count, q) of rows 0..n-2, which both grids share
    fine = []  # the probes of each pass whose spacing is within tol

    def go_on(op, shift):
        # the count on op, N-point grid or box, from the q of rows 0..n-2
        if shift not in heads:
            heads[shift] = sturm_walk(diag, off2, shift, pivmin, stop=n - 1)
        c, q = heads[shift]
        return c + sturm_walk(*op, shift, pivmin, q=q, start=n - 1)[0]

    def count(probes):
        if probes[-1] - probes[0] <= (_PROBES - 1) * tol:
            fine.append(probes)
        return partial(go_on, (diag, off2))

    energy = _kth_eigenvalue(diag, off2, k, tol, _window(points, h, tol),
                             count)
    points.append((h, energy))
    # the box level is at most the N-point one (interlacing; the 2D face
    # term only raises the N-point grid's last diagonal entry), so it lies
    # in the cell of the last pass whose probes lie at most tol apart, or
    # below that pass's window, where it is searched alone
    box_count = partial(go_on, box_op)
    if fine and box_count(fine[-1][0]) <= k < box_count(fine[-1][-1]):
        cell = _cell(k, fine[-1], box_count)
        boxed = 0.5 * (cell[0] + cell[1])
    else:
        boxed = _kth_eigenvalue(*box_op, k, tol, _window(points, h, tol))
    refined = level(2 * (n + w) - w)[1]
    box_shift = float(boxed - energy)
    # plain bool: the numpy one is not JSON serializable
    converged = bool(abs(refined - energy) < cfg.eig_tol
                     and abs(box_shift) < cfg.eig_tol)
    return OracleResult(k=k, energy=float(energy), energy_refined=float(refined),
                        box_shift=box_shift, converged=converged)
