"""Exception types shared across the package.

Everything raised deliberately by the library derives from SletError, so
callers (and the CLI) can separate computation failures from programming
errors. Plain ValueError/TypeError remain for misuse of the API itself
(bad argument types, out-of-range indices).
"""


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
