"""Analytic results for the worked potential families.

Power-law and logarithmic potentials have fully closed-form expansion
output; Coulomb, oscillator, zero-field donor and Landau systems have exact
spectra. These serve as cross-checks against the generic engine.

The power-law second- and third-order terms are carried exactly in their
published form even though the second-order one is provably wrong (it is
nonzero at nu = 2 where the oscillator result must be exact). They are
flagged and excluded from engine agreement checks; see discrepancy_report().
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

FLAG_E2_E3_INCONSISTENT = (
    "power-law E2/E3 closed forms known inconsistent with the "
    "coefficient-table path; diagnostic only")


@dataclass(frozen=True)
class ClosedFormResult:
    family: str
    r0: float
    lbar: float
    w: float
    E0: float
    E2_over_lbar2: float
    E3_over_lbar3: float
    E_total: float
    flags: tuple = ()


def power_law(A: float, nu: float, l: int, n_r: int) -> ClosedFormResult:
    """V = A r^nu, A > 0, nu > 0, evaluated term by term."""
    lbar = ((2 * n_r + 1) * math.sqrt(nu + 2) + (2 * l + 1)) / 2.0
    r0 = (2.0 * lbar**2 / (A * nu)) ** (1.0 / (nu + 2.0))
    w = 2.0 * math.sqrt(nu + 2.0)

    # shared scale factors: [2 A nu]^(2/(nu+2)) and [2 lbar]^((nu-2)/(nu+2))
    scale = (2.0 * A * nu) ** (2.0 / (nu + 2.0))
    shape = (2.0 * lbar) ** ((nu - 2.0) / (nu + 2.0))

    e0 = scale * (4.0 * lbar) * (nu + 2.0) / (8.0 * nu) * shape

    e2 = -scale * 2.0 * (nu + 1.0) * (nu + 2.0) / (144.0 * (2.0 * lbar)) * shape

    n = n_r
    poly = ((nu + 1.0) * (nu - 2.0)
            + (7 * nu**2 - 31 * nu - 62) * n
            + (5 * nu**2 - 29 * nu - 58) * (3 * n**2 + 2 * n**3))
    e3 = (shape * scale
          * 2.0 * (nu + 1.0) * (nu - 2.0)
          / (12.0**3 * (2.0 * lbar) ** 2 * math.sqrt(nu + 2.0))
          * poly)

    return ClosedFormResult(
        family="power", r0=r0, lbar=lbar, w=w, E0=e0,
        E2_over_lbar2=e2, E3_over_lbar3=e3, E_total=e0 + e2 + e3,
        flags=(FLAG_E2_E3_INCONSISTENT,),
    )


def logarithmic(A: float, b: float, l: int, n_r: int) -> ClosedFormResult:
    """V = A ln(r/b), A > 0, b > 0."""
    lbar = ((2 * l + 1) + (2 * n_r + 1) * math.sqrt(2.0)) / 2.0
    r0 = lbar * math.sqrt(2.0 / A)
    w = 2.0 * math.sqrt(2.0)
    e0 = A * (math.log(lbar / (b * math.sqrt(A / 2.0))) + 0.5)
    n = n_r
    e2 = A * (6 * n**2 + 6 * n + 1) / (72.0 * lbar**2)
    e3 = A * (58 * n**3 + 87 * n**2 + 31 * n + 1) / (864.0 * lbar**3 * math.sqrt(2.0))
    return ClosedFormResult(
        family="log", r0=r0, lbar=lbar, w=w, E0=e0,
        E2_over_lbar2=e2, E3_over_lbar3=e3, E_total=e0 + e2 + e3,
    )


# -- exact limits ----------------------------------------------------------


def coulomb3d(l: int, n_r: int) -> float:
    """Hydrogenic level -1/(n_r+l+1)^2 in effective Rydbergs."""
    return -1.0 / (n_r + l + 1) ** 2


def oscillator3d(B: float, l: int, n_r: int) -> float:
    """B(2 n_r + l + 3/2) for V = B^2 r^2 / 4."""
    return B * (2 * n_r + l + 1.5)


class DonorZeroField(NamedTuple):
    """Both candidate zero-field donor spectra.

    The published value is -(n + |m| + 1)^-2; re-deriving the 2D machinery
    at gamma = 0 gives -(n + |m| + 1/2)^-2, which is also the textbook 2D
    hydrogen spectrum. Kept side by side; the finite-difference oracle
    arbitrates (see discrepancy_report).
    """
    as_printed: float
    derived: float


def donor_zero_field(n_rho: int, m_abs: int) -> DonorZeroField:
    return DonorZeroField(
        as_printed=-1.0 / (n_rho + m_abs + 1) ** 2,
        derived=-1.0 / (n_rho + m_abs + 0.5) ** 2,
    )


def landau(gamma: float, n_rho: int, m: int) -> float:
    """gamma (2 n_rho + |m| + m + 1)."""
    return gamma * (2 * n_rho + abs(m) + m + 1)


# -- discrepancy diagnostics ------------------------------------------------


def discrepancy_report() -> str:
    """Text report on the two known closed-form defects.

    1. The power-law second-order term disagrees with the engine everywhere,
       most visibly at nu = 2 where the engine (and the exact oscillator
       spectrum) gives 0. The third-order term agrees with the engine, so
       only the second-order formula is actually defective.
    2. The zero-field donor level: the finite-difference oracle decides
       between the two printed/derived candidates, at m = 0 and at
       |m| = 1, 2.
    """
    from . import engine, oracle, potentials

    lines = ["closed-form discrepancy report", ""]

    lines.append("power-law second-order term (as printed) vs engine:")
    lines.append("  nu      l  n   closed-form E2       engine E2            |diff|")
    for nu in (0.5, 1.0, 2.0, 3.0, 4.0):
        for (l, n) in ((0, 0), (1, 1)):
            cf = power_law(1.0, nu, l, n)
            bd = engine.solve(engine.SletProblem(
                dim=3, l=l, n_radial=n,
                potential=potentials.power(1.0, nu)))
            diff = abs(cf.E2_over_lbar2 - bd.E2_over_lbar2)
            note = "  <- counterexample: exact oscillator needs 0" \
                if nu == 2.0 and (l, n) == (0, 0) else ""
            lines.append(
                f"  {nu:<6g}  {l}  {n}   {cf.E2_over_lbar2:< 18.12g}  "
                f"{bd.E2_over_lbar2:< 18.12g}  {diff:.3e}{note}")
    lines.append("")

    lines.append("power-law third-order term (as printed) vs engine:")
    for nu in (0.5, 1.0, 3.0, 4.0):
        cf = power_law(1.0, nu, 0, 1)
        bd = engine.solve(engine.SletProblem(
            dim=3, l=0, n_radial=1, potential=potentials.power(1.0, nu)))
        rel = abs(cf.E3_over_lbar3 - bd.E3_over_lbar3) / abs(bd.E3_over_lbar3)
        lines.append(f"  nu={nu:<4g} l=0 n=1: closed {cf.E3_over_lbar3:.12g}  "
                     f"engine {bd.E3_over_lbar3:.12g}  rel diff {rel:.2e}")
    lines.append("  (agrees to roundoff; the second-order formula is the defective one)")
    lines.append("")

    lines.append("zero-field donor ground level, candidates -1 (as printed) "
                 "and -4 (derived):")
    pot = potentials.donor(0.0, 0)
    res = oracle.eigenvalue(2, 0, 0, pot,
                            oracle.OracleConfig(box_radius=60.0,
                                                grid_points=4000))
    cand = donor_zero_field(0, 0)
    pick = (cand.as_printed
            if abs(res.energy_extrapolated - cand.as_printed)
            < abs(res.energy_extrapolated - cand.derived)
            else cand.derived)
    lines.append(f"  oracle (R=60, N=4000): energy {res.energy:.6f}, "
                 f"refined {res.energy_refined:.6f}, "
                 f"extrapolated {res.energy_extrapolated:.6f}, "
                 f"converged={res.converged}")
    lines.append(f"  nearest candidate: {pick}")
    lines.append(
        "  caution: the u = sqrt(rho) R form carries an attractive "
        "-1/(4 rho^2) term at m=0, on which the 3-point scheme converges "
        "only logarithmically and to a wrong value; a nearest-candidate "
        "call from that form is unreliable. The oracle's cell-centred flux "
        "form on R is second order for every m. Its raw h and h/2 values "
        f"differ by {abs(res.energy_refined - res.energy):.1e}, hence "
        f"converged={res.converged}; the extrapolated value decides.")
    lines.append("  cross-check at |m| >= 1, where the raw values settle:")
    for m_abs in (1, 2):
        potm = potentials.donor(0.0, m_abs)
        resm = oracle.eigenvalue(2, m_abs, 0, potm,
                                 oracle.OracleConfig(box_radius=60.0,
                                                     grid_points=4000))
        cm = donor_zero_field(0, m_abs)
        lines.append(
            f"  |m|={m_abs}: oracle extrapolated {resm.energy_extrapolated:.8f}, "
            f"as-printed {cm.as_printed:.8f}, derived {cm.derived:.8f}, "
            f"converged={resm.converged}")
    lines.append("  the derived -(n + |m| + 1/2)^-2 spectrum matches; the "
                 "as-printed form does not.")
    return "\n".join(lines)
