"""Exception types shared across the package, and the one text a
message gives a value.

One class per CLI exit code: DomainError (exit 1) for input outside
the stated domain of a call, ParseError (exit 2) for malformed text or
flags, InternalError (exit 3) for a structural fact the theory
guarantees that failed to hold, so the library caught itself producing
nonsense.  The message says which rule was broken.  SymplModuliError is
their base, for a caller that wants any package error.

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


class DomainError(SymplModuliError):
    """Input outside the stated domain: a label that fails admissibility,
    an angle on the cone or a pole, a theta range across a fixed angle, a
    puncture of a model map, a value past the float range or a budget.
    CLI exit 1."""


class ParseError(SymplModuliError):
    """Malformed textual input.  CLI exit 2."""


class InternalError(SymplModuliError):
    """A structural fact the theory guarantees failed to hold: a parity,
    a residual, two routes that disagree.  CLI exit 3."""
