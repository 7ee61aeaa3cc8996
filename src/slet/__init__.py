"""Bound states of radial Schrodinger problems by the shifted large-l
expansion, cross-checked by a finite-difference Sturm-bisection oracle.

Units: energies in effective Rydbergs, lengths in effective Bohr radii
(hbar = 2m = 1); the Coulomb term is -2/r.
"""
__version__ = "0.1.0"

from .closedform import (
    ClosedFormResult,
    DonorZeroField,
    coulomb3d,
    discrepancy_report,
    donor_zero_field,
    landau,
    logarithmic,
    oscillator3d,
    power_law,
)
from .engine import (
    TERM_E0,
    TERM_E2,
    TERM_E3,
    SletBreakdown,
    SletProblem,
    SolverSettings,
    alpha1,
    alpha2,
    appendix_coeffs,
    beta_shift,
    omega,
    solve,
    solve_r0,
)
from .errors import (
    DomainError,
    InvalidExpansionPointError,
    NoBoundStateError,
    NoRootError,
    OracleError,
    ParseError,
    SingularityError,
    SletError,
)
from .jets import Jet, const, seed
from .oracle import (
    OracleConfig,
    OracleResult,
    effective_potential,
    eigenvalue,
)
from .potentials import (
    Potential,
    coulomb,
    donor,
    expression,
    from_name_or_source,
    harmonic,
    log_potential,
    power,
)

__all__ = [
    "__version__",
    "ClosedFormResult", "DonorZeroField", "coulomb3d", "discrepancy_report",
    "donor_zero_field", "landau", "logarithmic", "oscillator3d", "power_law",
    "TERM_E0", "TERM_E2", "TERM_E3", "SletBreakdown", "SletProblem",
    "SolverSettings", "alpha1", "alpha2", "appendix_coeffs", "beta_shift",
    "omega", "solve", "solve_r0",
    "DomainError", "InvalidExpansionPointError", "NoBoundStateError",
    "NoRootError", "OracleError", "ParseError", "SingularityError",
    "SletError",
    "Jet", "const", "seed",
    "OracleConfig", "OracleResult", "effective_potential", "eigenvalue",
    "Potential", "coulomb", "donor", "expression", "from_name_or_source",
    "harmonic", "log_potential", "power",
]
