"""Exception types shared across the package, and the one text a
message gives a value.

Every error that signals a violated precondition or an internal
consistency breach gets its own class so callers (and the CLI) can
distinguish "you asked for something outside the domain" from "the
library caught itself producing nonsense" (InternalError: CLI exit 3).

A message names an int, a pair or a label only through _text.  An int
inside Python's limit on the digits of an int's text (4,300 by default,
sys.set_int_max_str_digits) is its decimal text, as str writes it;
past the limit, where str raises ValueError, it is its sign and size,
such as -<16610-bit int>.  A pair, a label's pairs or a list of them is
written as Python writes a tuple or a list, each entry so rendered.
"""


def _text(x) -> str:
    """x as a message names it (module docstring): an int as its digits
    or its size, a tuple or list entry by entry, anything else as str
    writes it, so a label, a NamedTuple of pairs, is written as its
    pairs."""
    if isinstance(x, int):
        try:
            return str(x)
        except ValueError:
            return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit int>"
    if isinstance(x, (tuple, list)):
        inner = ", ".join(map(_text, x))
        return f"[{inner}]" if isinstance(x, list) else f"({inner})"
    return str(x)


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
