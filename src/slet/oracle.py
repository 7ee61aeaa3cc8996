"""Brute-force reference eigensolver.

Discretizes the radial equation with second differences on a uniform grid
over (0, R] and locates the k-th eigenvalue of the resulting symmetric
tridiagonal matrix by Sturm-count multisection. Completely independent of
the expansion machinery: shares only the potential evaluation.

The two dimensions use different schemes:

- 3D: the reduced equation -u'' + V_eff(r) u = E u for u = r R, the 3-point
  second difference on r_i = i h, h = R/(N+1), Dirichlet at both ends.
- 2D: the flux form -(1/rho)(rho R')' + m^2/rho^2 R + V R = E R on the cell
  centres rho_i = (i - 1/2) h, h = R/N, symmetrized with sqrt(rho_i). The
  axis face rho = 0 carries zero flux by construction and R vanishes at
  the outer face rho = R. Unlike the u = sqrt(rho) R form, whose attractive
  -1/(4 rho^2) term at m = 0 makes the 3-point scheme converge only
  logarithmically (and to a wrong value), this scheme is second order for
  every m (Mohseni & Colonius, J. Comput. Phys. 157, 2000).

Every result carries its own error estimates: the same eigenvalue on a
halved spacing (h -> h/2) and in a box about 1.5x larger, whose radius is
a whole number of steps of the very same h, so that the box shift holds
no grid change. The result counts as converged only when both shifts are
below eig_tol. Both schemes gain a factor ~4 per grid doubling, so
energy_extrapolated (Richardson) is typically far more accurate than
either raw value.

The search is seeded. Two coarse grids (about N/32 and N/16 points) are
solved from their Gershgorin windows; their h^2 extrapolation places the
first window on the N-point grid, half as wide as the extrapolated move.
The h/2 grid is seeded the same way from the N/16 and N-point energies, the
larger box from the N-point energy. Each multisection pass counts at
_PROBES = 255 evenly spaced shifts (the Sturm kernel's cost per row barely
depends on their number), the window's endpoints among them, so every
pass certifies its own window; a window whose counts do not bracket k is
widened towards the Gershgorin window. The search stops when the window
is no wider than eig_tol/4, or stops shrinking at float resolution.

For the k-th eigenvalue under a fixed centrifugal term, k equals the number
of radial nodes, i.e. the radial quantum number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import sturm_counts
from .errors import OracleError
from .potentials import Potential

# Shifts counted per multisection pass. The kernel's cost per row barely
# depends on the number of shifts, so each pass takes many.
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
        if self.grid_points < 100:
            raise ValueError("grid_points must be at least 100")
        if self.grid_points > _MAX_GRID_POINTS:
            raise ValueError(f"grid_points must be at most {_MAX_GRID_POINTS}")
        if not (0 < self.eig_tol <= _MAX_EIG_TOL):
            raise ValueError(f"eig_tol must lie in (0, {_MAX_EIG_TOL:g}]")


@dataclass(frozen=True)
class OracleResult:
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
    """V(r) plus the centrifugal term of the reduced (u-form) equation."""
    r = np.asarray(r, dtype=float)
    if dim == 3:
        cent = l * (l + 1) / r**2
    elif dim == 2:
        cent = (4 * l * l - 1) / (4.0 * r**2)
    else:
        raise ValueError("dim must be 2 or 3")
    v = potential.value(r)
    out = cent + v
    return float(out) if np.ndim(out) == 0 else out


def _spacing(dim, box_radius, grid_points):
    """Grid spacing h of grid_points points on (0, box_radius]."""
    if dim == 2:
        return box_radius / grid_points
    return box_radius / (grid_points + 1)


def _operator(dim, l, potential, h, grid_points):
    """Diagonal and squared off-diagonal of the operator on the grid of
    grid_points points at spacing h (box radius N h in 2D, (N + 1) h in 3D)."""
    n = grid_points
    # h**4 and 1/h**4 must both be normal floats
    if not 1e-75 < h < 1e75:
        raise OracleError(f"grid spacing {h:g} of {n} points is out of range")
    if dim == 2:
        i = np.arange(1, n + 1, dtype=float)
        rho = (i - 0.5) * h
        # effective_potential carries the u-form's (m^2 - 1/4)/rho^2; the
        # flux form has m^2/rho^2
        diag = 2.0 / h**2 + effective_potential(dim, l, potential, rho) \
            + 0.25 / rho**2
        diag[-1] += n / (n - 0.5) / h**2  # R = 0 at the outer face
        # rho_{i+1/2} / sqrt(rho_i rho_{i+1}) / h^2, squared
        off2 = i[:-1] ** 2 / (i[:-1] ** 2 - 0.25) / h**4
    else:
        r = h * np.arange(1, n + 1, dtype=float)
        diag = 2.0 / h**2 + effective_potential(dim, l, potential, r)
        off2 = np.full(n - 1, 1.0 / h**4)
    if not np.all(np.isfinite(diag)):
        raise OracleError("effective potential not finite on the grid")
    return diag, off2


def _kth_eigenvalue(dim, l, k, potential, h, grid_points, tol, seed=None):
    """(h, E): the grid spacing and the k-th eigenvalue to within tol/2.

    seed is a pair of (h, energy) results on coarser grids, from which the
    first window is extrapolated (see _window); without one the search
    starts from the Gershgorin window, which holds every eigenvalue.
    """
    diag, off2 = _operator(dim, l, potential, h, grid_points)
    reach = 2.0 * math.sqrt(float(np.max(off2)))
    g_lo, g_hi = float(np.min(diag)) - reach, float(np.max(diag)) + reach
    pivmin = np.finfo(np.float64).tiny * max(1.0, float(np.max(off2)))

    lo, hi = g_lo, g_hi
    if seed is not None:
        s_lo, s_hi = _window(*seed, h, tol)
        if g_lo < s_hi and s_lo < g_hi:
            lo, hi = max(s_lo, g_lo), min(s_hi, g_hi)
    # multisection: keep the subinterval whose right edge first reaches
    # count > k, until the window is narrower than tol; a window that does
    # not bracket the level grows on the side the level lies, by at least
    # one float step, so that a window rounding has closed (a seed's guess
    # with a half-width below its ulp) still moves
    while True:
        probes = np.linspace(lo, hi, _PROBES)
        counts = sturm_counts(diag, off2, probes, pivmin)
        grow = max((_PROBES - 1) * (hi - lo), float(np.spacing(abs(lo))))
        if counts[0] > k:
            if lo == g_lo:
                break
            lo, hi = max(g_lo, lo - grow), lo
        elif counts[-1] <= k:
            if hi == g_hi:
                break
            lo, hi = hi, min(g_hi, hi + grow)
        else:
            j = int(np.argmax(counts > k))
            window = float(probes[j - 1]), float(probes[j])
            # done at tol, or where float resolution stops the shrinking
            if window[1] - window[0] <= tol or window == (lo, hi):
                return h, 0.5 * (window[0] + window[1])
            lo, hi = window
    raise OracleError(
        f"eigenvalue {k} escaped the Gershgorin window "
        f"[{g_lo:g}, {g_hi:g}] (counts {counts[0]}, {counts[-1]})")


def _window(coarse, fine, h, tol):
    """Search window for the level at spacing h.

    coarse and fine are (h, energy) results on one box. Their h^2
    extrapolation to h is the guess; the window reaches half the guess's
    distance from the fine energy to either side of it, and at least so far
    that a single multisection pass resolves it to tol (0.45 rather than
    0.5, so rounding cannot leave the subinterval a hair wider than tol).
    """
    (h1, e1), (h2, e2) = coarse, fine
    guess = e2 + (e2 - e1) * (h * h - h2 * h2) / (h2 * h2 - h1 * h1)
    half = max(0.5 * abs(guess - e2), 0.45 * (_PROBES - 1) * tol)
    return guess - half, guess + half


def eigenvalue(dim: int, l: int, k: int, potential: Potential,
               config: OracleConfig | None = None) -> OracleResult:
    """k-th bound level (k >= 0) for fixed l, with convergence diagnostics."""
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    cfg = config or OracleConfig()
    tol = cfg.eig_tol / 4.0
    box, n = cfg.box_radius, cfg.grid_points

    def level(h, grid_points, seed):
        return _kth_eigenvalue(dim, l, k, potential, h, grid_points, tol, seed)

    # the coarse pair only places the first window: when a coarse grid is
    # too small to hold the level, or hits a singularity the N-point grid
    # misses, the search starts from the Gershgorin window instead
    try:
        coarse = tuple(level(_spacing(dim, box, m), m, None)
                       for m in (n // 32, n // 16))
    except OracleError:
        coarse = None
    h = _spacing(dim, box, n)
    first = level(h, n, coarse)
    energy = first[1]

    # the h/2 grid, and a box of about 1.5 R at exactly the same h
    if dim == 2:  # radius N h
        n_fine, n_box = 2 * n, round(1.5 * n)
    else:  # radius (N + 1) h
        n_fine, n_box = 2 * n + 1, round(1.5 * (n + 1)) - 1
    seed = None if coarse is None else (coarse[1], first)
    refined = level(h / 2, n_fine, seed)[1]
    boxed = level(h, n_box, seed)[1]
    box_shift = float(boxed - energy)
    # plain bool: the numpy one is not JSON serializable
    converged = bool(abs(refined - energy) < cfg.eig_tol
                     and abs(box_shift) < cfg.eig_tol)
    return OracleResult(k=k, energy=float(energy), energy_refined=float(refined),
                        box_shift=box_shift, converged=converged)
