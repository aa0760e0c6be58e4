"""Closed Reeb orbits on S^1 x S^2 and their integer labels.

Away from the two poles, a closed Reeb orbit sits at a constant polar
angle theta0 and is labeled by a coprime integer pair (p, p') with

    p' (1 - 3 cos^2 theta0) = p sqrt(6) cos(theta0),
    p' cos(theta0) >= 0,

together with a phase upsilon in R/2piZ fixing the locus
p' t - p phi = upsilon.  The two poles theta = 0 and theta = pi are
distinguished orbits of their own.  The admissible pairs are cut out by
three integer rules; the comparison |p'/p| vs sqrt(3)/sqrt(2) is always
decided exactly as 2 p'^2 vs 3 p^2 (ties are impossible: sqrt(3/2) is
irrational).

For p != 0 the defining quadratic in cos(theta) has two roots of
opposite signs, cos = (sqrt6 a)^{-1} (-1 +- (1 + 2 a^2)^{1/2}) with
a = p'/p: the inner one, |cos| < 1/sqrt3, and the outer one,
|cos| > 1/sqrt3, inside (-1, 1) and an angle only when 2 p'^2 > 3 p^2.
theta0 is the root whose cosine has the sign of p'.  Near
2 p'^2 = 3 p^2 the outer root is within O(1/p^2) of -1 or 1, so it is
taken from its signed pole distance g = 1 - |cos| and the exact
D = 2 p'^2 - 3 p^2: with b = |a|, q = 1 + (1 + 2 b^2)^{1/2} and D / p^2
one rounded int division, 2b - sqrt6 = 2 (D / p^2) / (2b + sqrt6) and
g = 2b (2b - sqrt6) / (sqrt6 b (sqrt6 b + 2 b^2 / q)), which has the
sign of D and no cancellation for any b (2 b^2 / q is
(1 + 2 b^2)^{1/2} - 1).  _pole_distance is its one statement, which
curves reads too.  An angle is theta = 2 asin(sqrt(g / 2)), or pi minus
that.  It is refused only where g leaves the normal floats or pi minus
the angle is below half an ulp of pi (|p| ~ 1.1e16 on where D = 5).
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple, Optional

from .errors import DomainError, _text
from .geometry import _TINY, SQRT6, require_finite


class _EndClassFields(NamedTuple):
    m: int
    m_prime: int


class EndClass(_EndClassFields):
    """An ordered integer pair (m, m') labeling one end of a subvariety.

    The signs of m and m' are those of f and h on the limiting orbit;
    gcd(m, m') is the covering multiplicity, so the pair need not be
    coprime.  (0, 0) labels nothing.  The check runs in __new__, which
    the tuple methods _make and _replace bypass; nothing here calls them.
    """

    __slots__ = ()

    def __new__(cls, m: int, m_prime: int) -> "EndClass":
        if m == 0 and m_prime == 0:
            raise DomainError("(0, 0) is not an end class")
        return super().__new__(cls, m, m_prime)

    @property
    def gcd(self) -> int:
        return math.gcd(self.m, self.m_prime)

    def reduced(self) -> "EndClass":
        g = self.gcd
        return EndClass(self.m // g, self.m_prime // g)

    def as_tuple(self) -> tuple[int, int]:
        return (self.m, self.m_prime)


def _steep(m: int, m_prime: int) -> bool:
    """2 m'^2 > 3 m^2 (|m'/m| > sqrt(3/2)): the package's steep test."""
    return 2 * m_prime * m_prime > 3 * m * m


def _end_pair_ok(m: int, m_prime: int) -> bool:
    """The end-pair rule, m >= 0 or steep: classify_pair's (b) and
    moduli's (c), since 2 m'^2 = 3 m^2 only at m = 0, which passes."""
    return m >= 0 or _steep(m, m_prime)


def _end_pair_text(m: int, m_prime: int) -> str:
    """The one wording of a pair that fails _end_pair_ok, as
    classify_pair's (b) and moduli's (c) write it: 2 m'^2 <= 3 m^2 in
    numbers, a negative entry squared in brackets."""
    mp, mm = (f"({_text(x)})" if x < 0 else _text(x) for x in (m_prime, m))
    return (f"2*{mp}^2 = {_text(2 * m_prime * m_prime)} <= "
            f"{_text(3 * m * m)} = 3*{mm}^2 with m < 0")


def classify_pair(m: int, m_prime: int) -> tuple[bool, list[str]]:
    """Decide whether (m, m') labels a closed Reeb orbit.

    Rules: (a) not both zero, coprime when both non-zero, m' = +-1 when
    m = 0 and m = 1 when m' = 0; (b) 2 m'^2 > 3 m^2 when m < 0;
    (c) m > 0 when 2 m'^2 < 3 m^2.  For integers (b) and (c) are one
    condition, _end_pair_ok, reported once, as (b).  All checks are
    exact integer arithmetic.  Returns (admissible, violated rules).
    """
    violations: list[str] = []
    if m == 0 and m_prime == 0:
        return False, ["(a) both entries are zero"]
    if m == 0 and m_prime not in (-1, 1):
        violations.append(f"(a) m = 0 requires m' = +-1, got m' = "
                          f"{_text(m_prime)}")
    if m_prime == 0 and m != 1:
        violations.append(f"(a) m' = 0 requires m = 1, got m = {_text(m)}")
    if m != 0 and m_prime != 0 and math.gcd(m, m_prime) != 1:
        violations.append(f"(a) gcd{_text((m, m_prime))} = "
                          f"{_text(math.gcd(m, m_prime))} != 1")
    lhs, rhs = 2 * m_prime * m_prime, 3 * m * m
    assert lhs != rhs or m == 0, "2 m'^2 = 3 m^2 impossible for m != 0"
    if not _end_pair_ok(m, m_prime):
        violations.append(f"(b) {_end_pair_text(m, m_prime)}")
    return not violations, violations


def orbit_cosine(p: int, p_prime: int) -> tuple[float, float, float]:
    """cos(theta0), its pole distance g = 1 - |cos(theta0)| and
    |1 - 3 cos^2(theta0)| at the orbit angle of (p, p'), refused where
    solve_theta0 refuses the pair, so also (p, -p') whose angle rounds
    onto pi, although g and the last depend on |p'| alone.  The last is
    1 for p' = 0, 0 for p = 0, and otherwise sqrt6 |cos| / a with
    a = |p'/p|: 2 / (1 + sqrt(1 + 2a^2)) at the inner root and
    (1 + sqrt(1 + 2a^2)) / a^2 at the outer one, never 0.
    """
    return _root(p, p_prime, (p, p_prime))[1:]


def solve_theta0(p: int, p_prime: int) -> float:
    """The orbit angle theta0 for the pair (p, p'), non-coprime too.

    p' = 0 gives pi/2 and p = 0 gives arccos(sign(p')/sqrt3) exactly;
    otherwise the inner root for p > 0, the outer one for p < 0 (module
    docstring).  DomainError when p'/p or 2 (p'/p)^2 is past the float
    range, the pole distance leaves the normal floats or the angle rounds
    onto pi, so theta0 lies strictly inside (0, pi).
    """
    return _root(p, p_prime, (p, p_prime))[0]


def _root(p: int, p_prime: int, given: tuple[int, int]
          ) -> tuple[float, float, float, float]:
    """solve_theta0 and orbit_cosine at once, each DomainError naming
    the pair the caller gave: the inner root as the acos of its cosine,
    the outer one from its pole distance (module docstring)."""
    if p == 0 and p_prime == 0:
        raise DomainError("no orbit angle for (0, 0)")
    if p_prime == 0:
        return math.pi / 2, 0.0, 1.0, 1.0
    if p == 0:
        c = (1.0 if p_prime > 0 else -1.0) / math.sqrt(3.0)
        return math.acos(c), c, 1.0 - abs(c), 0.0
    if not _end_pair_ok(p, p_prime):
        raise DomainError(f"{_text((p, p_prime))} admits no orbit angle")
    try:
        a = abs(p_prime / p)
    except OverflowError:
        raise DomainError(
            f"{_text(given)}: p'/p is past the float range") from None
    if 2.0 * a * a == math.inf:
        # The roots square p'/p: past ~9.5e153 the cosine would be 0 or inf.
        raise DomainError(
            f"{_text(given)}: 2 (p'/p)^2 is past the float range")
    q = 1.0 + math.sqrt(1.0 + 2.0 * a * a)
    if p > 0:
        # The inner root as 2 a / (sqrt6 q), free of the cancellation in
        # -1 + sqrt(1 + 2 a^2).
        c = 2.0 * a / (SQRT6 * q) * (1.0 if p_prime > 0 else -1.0)
        return math.acos(c), c, 1.0 - abs(c), 2.0 / q
    g = _pole_distance(p, p_prime, given)
    near = 2.0 * math.asin(math.sqrt(0.5 * g))      # theta from its pole
    theta, c = (near, 1.0 - g) if p_prime > 0 else (math.pi - near, g - 1.0)
    if theta == math.pi:
        raise DomainError(f"{_text(given)}: the angle rounds onto pi")
    return theta, c, g, q / (a * a)


def _pole_distance(p: int, p_prime: int, given: tuple[int, int]) -> float:
    """g = 1 - |x| at the outer root x of the pair's quadratic, from
    the exact D (module docstring): > 0 where x is a companion cosine,
    < 0 where x lies past +-1.  p' != 0 and p'/p is finite.  DomainError
    naming the given pair where 2 (p'/p)^2 or g leaves the normal floats.
    """
    a = abs(p_prime / p)
    if 2.0 * a * a < _TINY:
        raise DomainError(
            f"{_text(given)}: 2 (p'/p)^2 underflows the normal floats")
    d = (2 * p_prime * p_prime - 3 * p * p) / (p * p)
    q = 1.0 + math.sqrt(1.0 + 2.0 * a * a)
    g = (4.0 * d / (2.0 * a + SQRT6) * a
         / (SQRT6 * a * (SQRT6 * a + 2.0 * a * a / q)))
    if not abs(g) >= _TINY:
        raise DomainError(
            f"{_text(given)}: the pole distance leaves the normal floats")
    return g


class ThetaRoots(NamedTuple):
    """The one or two constant angles attached to a pair (p, p')."""

    theta0: float
    theta0_bar: Optional[float] = None


def theta_roots(p: int, p_prime: int) -> ThetaRoots:
    """The fixed angles of (p, p') besides the poles: theta0
    (solve_theta0), and theta0_bar where p != 0 and 2 p'^2 > 3 p^2.

    theta0_bar, the companion angle, is the other root of the defining
    quadratic, whose cosine has sign opposite to cos(theta0): the orbit
    angle of (-p, -p').  It is found first, so a DomainError for either
    angle names (p, p').
    """
    bar = None
    if p != 0 and _steep(p, p_prime):
        bar = _root(-p, -p_prime, (p, p_prime))[0]
    return ThetaRoots(solve_theta0(p, p_prime), bar)


class OrbitKind(enum.Enum):
    POLE_PLUS = "pole+"     # theta = 0
    POLE_MINUS = "pole-"    # theta = pi
    GENERIC = "generic"


class ReebOrbit(NamedTuple):
    """A closed Reeb orbit, stored with its coprime label and multiplicity."""

    kind: OrbitKind
    pair: Optional[EndClass] = None
    upsilon: float = 0.0
    theta0: Optional[float] = None
    multiplicity: int = 1

    @classmethod
    def pole_plus(cls) -> "ReebOrbit":
        return cls(OrbitKind.POLE_PLUS, theta0=0.0)

    @classmethod
    def pole_minus(cls) -> "ReebOrbit":
        return cls(OrbitKind.POLE_MINUS, theta0=math.pi)

    @classmethod
    def generic(cls, m: int, m_prime: int, upsilon: float = 0.0) -> "ReebOrbit":
        """Build the orbit covered by the (possibly non-coprime) pair;
        ValueError for a nan or infinite upsilon."""
        if not math.isfinite(upsilon):
            require_finite(ValueError, upsilon=upsilon)
        pair = EndClass(m, m_prime)
        reduced = pair.reduced()
        ok, why = classify_pair(reduced.m, reduced.m_prime)
        if not ok:
            raise DomainError(
                f"{_text((m, m_prime))} is not admissible: {'; '.join(why)}")
        return cls(OrbitKind.GENERIC, pair=reduced,
                   upsilon=math.fmod(upsilon, math.tau),
                   theta0=solve_theta0(reduced.m, reduced.m_prime),
                   multiplicity=pair.gcd)
