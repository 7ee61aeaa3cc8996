"""Exception types and input checks shared across the package.

Everything raised deliberately by the library derives from SletError, so
callers (and the CLI) can separate computation failures from programming
errors. Plain ValueError/TypeError remain for misuse of the API itself
(bad argument types, out-of-range indices). Three checks state those
input rules once, for the expansion, the oracle and the CLI alike:
require_index (a quantum number: a non-negative integer within the float
range), require_integer (a count such as a grid size) and require_dim
(2 or 3).
"""
import sys

import numpy as np


class SletError(Exception):
    """Base class for all deliberate solver failures."""


class DomainError(SletError):
    """Input outside the mathematical domain of an operation."""


class SingularityError(SletError):
    """Evaluation hit a pole or a branch-cut violation (div by zero jet,
    log/sqrt of a non-positive leading coefficient, ...)."""


class ParseError(SletError):
    """Expression text rejected by the lexer or parser.

    offset is the 0-based index of the offending character/token into the
    source text; it is a byte offset only for ASCII text.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class NoBoundStateError(SletError):
    """V'(r) <= 0 where a rising potential is required."""


class InvalidExpansionPointError(SletError):
    """The oscillator frequency is undefined (non-positive radicand)."""


class NoRootError(SletError):
    """The expansion-point equation has no sign change on the scan window."""


class OracleError(SletError):
    """Finite-difference eigenvalue bracketing failed."""


def _is_integer(value) -> bool:
    # a bool is an int, but never a count
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_integer(name, value):
    """ValueError unless value is an integer (int or numpy integer)."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer")


def require_index(name, value):
    """ValueError unless value is a non-negative integer within the float
    range. l(l + 1) is the same at l and -1 - l, so a negative l would
    solve another level."""
    if not _is_integer(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer")
    if value > sys.float_info.max:
        raise ValueError(f"{name} is beyond the float range")


def require_dim(dim):
    """ValueError unless dim is 2 or 3."""
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
