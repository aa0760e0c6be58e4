"""Exception types shared across the package.

Every error that signals a violated precondition or an internal
consistency breach gets its own class so callers (and the CLI) can
distinguish "you asked for something outside the domain" from "the
library caught itself producing nonsense" (InternalError: CLI exit 3).
"""


def _int_text(n: int) -> str:
    """n as a message names it: its decimal text where str allows it,
    else its sign and size, since str refuses an int past Python's digit
    limit."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit int>"


class SymplModuliError(Exception):
    """Base class for all package errors."""


class PoleError(SymplModuliError):
    """Operation undefined on the theta in {0, pi} locus."""


class RangeError(SymplModuliError):
    """Argument outside the admissible range of a branch or interval."""


class ZeroPair(SymplModuliError):
    """The integer pair (0, 0) labels nothing."""


class OutOfRegime(SymplModuliError):
    """Requested quantity only exists when 2*m'^2 > 3*m^2."""


class BoundViolation(SymplModuliError):
    """A polar-end winding exceeds its allowed bound."""


class DegenerateAngle(SymplModuliError):
    """cos^2(theta0) = 1/3: decay constants are not defined there."""


class DomainError(SymplModuliError):
    """Parameter outside the stated domain of a parameterized curve."""


class WrongExample(SymplModuliError):
    """Operation applies to a different invariant-curve family."""


class BranchError(SymplModuliError):
    """A theta interval crosses a fixed angle of the profile equation."""


class PunctureError(SymplModuliError):
    """Model maps are undefined at z = 0 and z = 1."""


class InvalidLabel(SymplModuliError):
    """Label fails the admissibility constraints."""


class InternalError(SymplModuliError):
    """A structural fact the theory guarantees failed to hold."""


class ParityError(InternalError):
    """An expression that must be even came out odd."""


class ResidualError(InternalError):
    """A computed solution failed its defining-equation residual check."""


class ParseError(SymplModuliError):
    """Malformed textual input."""
