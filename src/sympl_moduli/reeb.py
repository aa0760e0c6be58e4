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

For a pair with p != 0 the defining quadratic in cos(theta) has the two
roots

    cos = (sqrt6 a)^{-1} (-1 + (1 + 2 a^2)^{1/2}),   |cos| < 1/sqrt(3),
    cos = (sqrt6 a)^{-1} (-1 - (1 + 2 a^2)^{1/2}),   1/sqrt3 < |cos| < 1,

with a = p'/p; the second exists as an angle only when 2 p'^2 > 3 p^2.
The roots have opposite signs, and the orbit angle theta0 is the root
whose cosine agrees in sign with p'.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple, Optional

from .errors import DomainError, InvalidLabel, OutOfRegime, ZeroPair
from .geometry import SQRT6


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
            raise ZeroPair("(0, 0) is not an end class")
        return super().__new__(cls, m, m_prime)

    @property
    def gcd(self) -> int:
        return math.gcd(self.m, self.m_prime)

    def reduced(self) -> "EndClass":
        g = self.gcd
        return EndClass(self.m // g, self.m_prime // g)

    def as_tuple(self) -> tuple[int, int]:
        return (self.m, self.m_prime)


def classify_pair(m: int, m_prime: int) -> tuple[bool, list[str]]:
    """Decide whether (m, m') labels a closed Reeb orbit.

    Rules: (a) not both zero, coprime when both non-zero, m' = +-1 when
    m = 0 and m = 1 when m' = 0; (b) 2 m'^2 > 3 m^2 when m < 0;
    (c) m > 0 when 2 m'^2 < 3 m^2.  All checks are exact integer
    arithmetic.  Returns (admissible, list of violated rules).
    """
    violations: list[str] = []
    if m == 0 and m_prime == 0:
        return False, ["(a) both entries are zero"]
    if m == 0 and m_prime not in (-1, 1):
        violations.append(f"(a) m = 0 requires m' = +-1, got m' = {m_prime}")
    if m_prime == 0 and m != 1:
        violations.append(f"(a) m' = 0 requires m = 1, got m = {m}")
    if m != 0 and m_prime != 0 and math.gcd(m, m_prime) != 1:
        violations.append(
            f"(a) gcd({m}, {m_prime}) = {math.gcd(m, m_prime)} != 1")
    lhs, rhs = 2 * m_prime * m_prime, 3 * m * m
    assert lhs != rhs or m == 0, "2 m'^2 = 3 m^2 impossible for m != 0"
    if m < 0 and lhs <= rhs:
        violations.append(f"(b) 2*{m_prime}^2 = {lhs} <= {rhs} = 3*{m}^2 with m < 0")
    if lhs < rhs and m <= 0:
        violations.append(f"(c) 2*{m_prime}^2 = {lhs} < {rhs} = 3*{m}^2 needs m > 0")
    return not violations, violations


def _cos_inner_root(alpha: float) -> float:
    """The root with |cos| < 1/sqrt3, in the cancellation-free form
    2 a / (sqrt6 (1 + sqrt(1 + 2 a^2)))."""
    return 2.0 * alpha / (SQRT6 * (1.0 + math.sqrt(1.0 + 2.0 * alpha * alpha)))


def _cos_outer_root(alpha: float) -> float:
    """The root with 1/sqrt3 < |cos| < 1 (exists when 2 p'^2 > 3 p^2)."""
    return (-1.0 - math.sqrt(1.0 + 2.0 * alpha * alpha)) / (SQRT6 * alpha)


def solve_theta0(p: int, p_prime: int) -> float:
    """The orbit angle theta0 for the pair (p, p').

    p' = 0 gives pi/2 and p = 0 gives arccos(sign(p')/sqrt3) exactly.
    Otherwise theta0 is the root of p'(1-3cos^2) = p sqrt6 cos whose
    cosine has the sign of p'; for p > 0 that is the inner (|cos| <
    1/sqrt3) root, for p < 0 the outer one.  Accepts non-coprime input
    (the angle only depends on p'/p).  DomainError when p'/p is past
    the float range or the cosine rounds outside [-1, 1].
    """
    if p == 0 and p_prime == 0:
        raise ZeroPair("no orbit angle for (0, 0)")
    if p_prime == 0:
        return math.pi / 2.0
    if p == 0:
        return math.acos(math.copysign(1.0, p_prime) / math.sqrt(3.0))
    try:
        alpha = p_prime / p
    except OverflowError:
        raise DomainError(f"({p}, {p_prime}): p'/p is past the float "
                          f"range") from None
    if p > 0:
        c = _cos_inner_root(alpha)
    else:
        if 2 * p_prime * p_prime <= 3 * p * p:
            raise InvalidLabel(f"({p}, {p_prime}) admits no orbit angle")
        c = _cos_outer_root(alpha)
        if not -1.0 <= c <= 1.0:
            # Just past 2 p'^2 = 3 p^2 the outer root is within rounding
            # of -1 or 1, and for p past ~1e9 it can round outside.
            raise DomainError(f"({p}, {p_prime}): the orbit cosine rounds "
                              f"to {c!r}, outside [-1, 1]")
    return math.acos(c)


def _has_companion(p: int, p_prime: int) -> bool:
    return p != 0 and 2 * p_prime * p_prime > 3 * p * p


def solve_theta0_bar(p: int, p_prime: int) -> float:
    """The companion constant angle for (p, p').

    Defined only when p != 0 and 2 p'^2 > 3 p^2: the other root of the
    defining quadratic, whose cosine has sign opposite to cos(theta0).
    It is the orbit angle of (-p, -p').
    """
    if not _has_companion(p, p_prime):
        raise OutOfRegime(
            f"({p}, {p_prime}): companion angle needs p != 0 and 2 p'^2 > 3 p^2")
    return solve_theta0(-p, -p_prime)


class ThetaRoots(NamedTuple):
    """The one or two constant angles attached to a pair (p, p')."""

    theta0: float
    theta0_bar: Optional[float] = None


def theta_roots(p: int, p_prime: int) -> ThetaRoots:
    """The fixed angles of (p, p') besides the poles: theta0, and
    theta0_bar when the pair has a companion angle."""
    bar = solve_theta0_bar(p, p_prime) if _has_companion(p, p_prime) else None
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
        """Build the orbit covered by the (possibly non-coprime) pair."""
        pair = EndClass(m, m_prime)
        reduced = pair.reduced()
        ok, why = classify_pair(reduced.m, reduced.m_prime)
        if not ok:
            raise InvalidLabel(f"({m}, {m_prime}) is not admissible: {why}")
        return cls(OrbitKind.GENERIC, pair=reduced,
                   upsilon=math.fmod(upsilon, math.tau),
                   theta0=solve_theta0(reduced.m, reduced.m_prime),
                   multiplicity=pair.gcd)


def orbit_point(orbit: ReebOrbit, tau: float) -> tuple[float, float, float]:
    """The point (t, theta, phi) of the orbit at parameter tau.

    Generic orbits with p != 0 are traversed as (t = tau, theta =
    theta0, phi = phi0 + tau p'/p) with tau periodic of period 2 pi |p|
    and phi0 = -upsilon/p, so that p' t - p phi = upsilon identically.
    For p = 0 the circle is (t = upsilon/p', phi = tau).  Angles are
    reduced to [0, 2 pi).
    """
    if orbit.kind is OrbitKind.POLE_PLUS:
        return (tau % math.tau, 0.0, 0.0)
    if orbit.kind is OrbitKind.POLE_MINUS:
        return (tau % math.tau, math.pi, 0.0)
    assert orbit.pair is not None and orbit.theta0 is not None
    p, pp = orbit.pair.m, orbit.pair.m_prime
    if p == 0:
        t = (orbit.upsilon / pp) % math.tau
        return (t, orbit.theta0, tau % math.tau)
    tau = math.fmod(tau, math.tau * abs(p))
    phi0 = -orbit.upsilon / p
    return (tau % math.tau, orbit.theta0, (phi0 + tau * pp / p) % math.tau)
