"""Integer and spectral invariants of the moduli labels and catalog curves.

The double-point count of the immersed model curve attached to a label
is computed two independent ways:

  * closed form: 2 m_C = Delta - gcd(p, p') - gcd(q, q') -
    gcd(p+q, p'+q') + 2, an exact integer identity;
  * oracle: half the number of ordered pairs (eta, eta') of Delta-th
    roots of unity, eta != eta', neither 1, with
    eta^p eta'^q = eta^{p'} eta'^{q'} = 1.  Writing eta = exp(2 pi i a /
    Delta), eta' = exp(2 pi i b / Delta) this is the count of residue
    pairs (a, b) mod Delta, a, b in {1, ..., Delta-1}, a != b, with
    p a + q b = 0 and p' a + q' b = 0 (mod Delta), so the oracle is
    exact modular arithmetic, never floating point.  The solutions form
    a lattice (_lattice), and the count depends on nothing else, so a
    process walks each distinct lattice once and keeps its count in a
    memo bounded at 2^17 lattices, more than any command meets.

A label is read only through its pairs(): the two pairs (p, p'), (q, q')
of a two-end label, or the three pairs of an ordered three-end label,
whose first two play the same role.  Every number of a sphere report is
a closed expression in the first two pairs, and two of them need no
machinery of their own:

  * the intersection count between the curve and a small generic
    translate, 1 + 2 m_C + (g1 - 1) + (g2 - 1) + (g3 - 1) with
    (g1, g2, g3) the gcd triple, equals Delta: substitute the gcd
    identity for 2 m_C;
  * the sphere has chi = -1, <c1> = 0 and only generic ends, so the
    index below is 1 + aleph, where aleph = len(label.pairs()) counts
    the convex ends (a two-end label's third end (k, k') is concave).

An end E is read only by end_windings(E) = (alpha_-, alpha_+), the
windings of the largest negative and the smallest positive eigenvalue
of its asymptotic operator.  The Fredholm index of the deformation
operator is -chi - 2 <c1> plus alpha_- + alpha_+ over the convex ends
and minus it over the concave ends.  The pairing <c1, [C]> is -nu0 plus
the polar-end windings nu(E), bounded above by alpha_-(E) on the convex
side and -alpha_+(E) on the concave side.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .budgets import MAX_WALK_DELTA
from .errors import DomainError, InternalError, _text
from .moduli import Label2, OrderedLabel3
from .reeb import EndClass

LabelLike = Union[Label2, OrderedLabel3]


def _closed_form(pairs) -> tuple[int, tuple[int, int, int], int]:
    """(Delta, gcd triple, m_C) from a label's pairs().

    m_C comes from the gcd identity, whose 2 m_C must be even and
    >= 0.  gcd is always positive, and gcd(0, n) = |n|.
    """
    p, pp = pairs[0]
    q, qp = pairs[1]
    d = p * qp - q * pp
    g1 = math.gcd(p, pp)
    g2 = math.gcd(q, qp)
    g3 = math.gcd(p + q, pp + qp)
    twice = d - g1 - g2 - g3 + 2
    if twice % 2:
        raise InternalError(
            f"Delta - gcds + 2 = {_text(twice)} is odd for {_text(pairs)}")
    if twice < 0:
        raise InternalError(f"negative double-point count "
                            f"{_text(twice // 2)} for {_text(pairs)}")
    return d, (g1, g2, g3), twice // 2


def double_points_formula(label: LabelLike) -> int:
    """m_C from the gcd identity; asserts the expression is even and >= 0."""
    return _closed_form(label.pairs())[2]


def _lattice(label: LabelLike) -> tuple[int, int, int, int]:
    """(Delta, g, Delta/g, b1) of the residue-pair lattice of a label
    (see residue_pairs); DomainError past MAX_WALK_DELTA, before any
    walk.

    M adj(M) = Delta I for M = [[p, q], [p', q']], so the lattice is
    spanned by the adjugate's columns (q', -p') and (q, -p).  With
    g = gcd(Delta, q, q') and h = gcd(q', Delta), y q = g (mod h) and
    x q' = g - y q (mod Delta) make x (q', -p') + y (q, -p) the pair
    over a = g; both inverses exist, and a modulus of 1 gives 0.
    """
    (p, pp), (q, qp) = label.pairs()[:2]
    d = p * qp - q * pp
    if d < 1:
        raise InternalError(f"Delta = {_text(d)} < 1")
    if d > MAX_WALK_DELTA:
        raise DomainError(f"Delta = {_text(d)} exceeds "
                          f"{_text(MAX_WALK_DELTA)}, the budget of the "
                          f"residue walk; use the gcd formula")
    g = math.gcd(d, q, qp)
    h = math.gcd(qp, d)
    y = pow(q // g, -1, h // g)
    x = (g - y * q) // h * pow(qp // h, -1, d // h)
    coset = d // g
    return d, g, coset, -(x * pp + y * p) % coset


def residue_pairs(label: LabelLike) -> Iterator[tuple[int, int]]:
    """Ordered residue pairs (a, b) mod Delta encoding the double points,
    yielded one at a time.

    These are the pairs with a, b in {1, ..., Delta-1}, a != b, and
    p a + q b = p' a + q' b = 0 (mod Delta), ordered by a, then b.

    The solutions (a, b) mod Delta form a subgroup of order Delta, the
    kernel of the label's matrix.  Its pairs with a = 0 are the b with
    q b = q' b = 0, the multiples of Delta/g for g = gcd(Delta, q, q'),
    so g of them, and the a that occur are the Delta/g multiples of g.
    Once one solution (g, b1) is known, the pairs over a = j g are the
    coset b = j b1 (mod Delta/g).  b1 is read off the adjugate of the
    label's matrix (see _lattice); the walk over a = g, 2g, ... then
    visits only solutions, dropping b = 0 and b = a.  All of it is
    exact modular arithmetic, independent of the gcd formula.

    The lattice, and so the budget's DomainError, comes at the call;
    the walk runs as the iterator is read, and no list of pairs is
    kept, so a caller that keeps one record per pair holds only those.
    """
    d, g, coset, b1 = _lattice(label)
    if g == 1:
        # One b per a: a flat walk saves the inner range of every a,
        # ~9 % of double-points throughput.
        return ((a, b) for a in range(1, d) if (b := a * b1 % d) and b != a)
    return ((a, b) for a in range(g, d, g)
            for b in range(a // g * b1 % coset, d, coset) if b and b != a)


# The bound keeps a long-lived library caller from growing the memo
# without limit.  It is above the 88,200 lattices of the 637,046 two-end
# labels at MAX_ENUM_BOUND, the most any command walks, so every CLI
# input behaves as if the memo were unbounded.
@functools.lru_cache(maxsize=1 << 17)
def _walk_count(d: int, g: int, coset: int, b1: int) -> int:
    """The number of ordered residue-pair solutions of the lattice
    (Delta, g, Delta/g, b1) of _lattice, by the same walk as
    residue_pairs, keeping only a 1 per pair: the pairs are counted,
    never built, and no residue outlives its step of the walk."""
    if g == 1:
        return len([1 for a in range(1, d) if (b := a * b1 % d) and b != a])
    return len([1 for a in range(g, d, g)
                for b in range(a // g * b1 % coset, d, coset)
                if b and b != a])


def double_points_bruteforce(label: LabelLike) -> int:
    """m_C as half the number of ordered residue-pair solutions.

    The walk over the label's lattice (_walk_count) is exact and visits
    every residue pair of the lattice.  Each distinct lattice is walked
    once per process: labels with the same lattice share its count,
    labels that only share Delta do not.  The memo holds at most 2^17
    lattices, so a long-lived caller's memory stays bounded, and every
    command's lattices fit.  The budget is checked before any walk, and
    the parity per label."""
    count = _walk_count(*_lattice(label))
    if count % 2:
        raise InternalError(f"odd ordered-solution count {_text(count)} for "
                            f"{_text(label.pairs())}")
    return count // 2


class Side(enum.Enum):
    CONCAVE = "concave"   # s -> +infinity
    CONVEX = "convex"     # s -> -infinity


class EndDescriptor(NamedTuple):
    """One end of a subvariety: its side and the kind of limit orbit.

    Generic ends optionally carry their end class; polar ends carry the
    covering multiplicity m(E) >= 1 and, when known, the winding nu(E)
    used in the c1 decomposition.
    """

    side: Side
    kind: str                                  # "generic" | "polar"
    end_class: Optional[EndClass] = None       # generic ends
    multiplicity: Optional[int] = None         # polar ends, m(E) >= 1
    winding: Optional[int] = None              # polar ends, nu(E)

    @classmethod
    def generic(cls, side: Side, end_class: Optional[EndClass] = None):
        return cls(side, "generic", end_class=end_class)

    @classmethod
    def polar(cls, side: Side, multiplicity: int, winding: Optional[int] = None):
        """A polar end; end_windings refuses it unless multiplicity >= 1."""
        return cls(side, "polar", multiplicity=multiplicity, winding=winding)


def end_windings(e: EndDescriptor) -> tuple[int, int]:
    """(alpha_-, alpha_+): the windings of the largest negative and the
    smallest positive eigenvalue of the end's asymptotic operator.

    A polar end of multiplicity m has -sqrt(3/2) + n/m at winding n,
    negative exactly where 2 n^2 < 3 m^2, so alpha_- is the integer
    square root of 3 m^2 // 2 and alpha_+ = alpha_- + 1.  A generic
    (Morse-Bott) end's 0 counts as negative on a convex end, (0, 1), and
    as positive on a concave end, (0, 0).  The parity is alpha_+ -
    alpha_- and CZ = alpha_- + alpha_+ (HWZ 1995).  DomainError for a
    side that is not a Side, a kind other than "generic" and "polar", or
    a polar multiplicity that is not an int >= 1.
    """
    if not isinstance(e.side, Side):
        raise DomainError(f"end side {_text(e.side)} is not a Side")
    if e.kind == "generic":
        return (0, 1) if e.side is Side.CONVEX else (0, 0)
    if e.kind != "polar":
        raise DomainError(f"end kind {_text(e.kind)} is not generic or polar")
    m = e.multiplicity
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"polar multiplicity {_text(m)} is not an int >= 1")
    below = math.isqrt(3 * m * m // 2)
    return below, below + 1


def c1_pairing(nu0: int, ends: Iterable[EndDescriptor]) -> int:
    """<c1, [C]> = -nu0 + sum of polar-end windings.

    nu0 >= 0 counts intersections with the polar locus.  Each end is read
    by end_windings.  Generic ends contribute nothing.  DomainError for
    a negative nu0, an end that end_windings refuses, a polar end with
    no stored winding, or a polar winding nu above its bound, alpha_- on
    a convex end or -alpha_+ on a concave one.
    """
    if nu0 < 0:
        raise DomainError("nu0 is a non-negative intersection count")
    total = -nu0
    for e in ends:
        below, above = end_windings(e)
        if e.kind == "generic":
            continue
        if e.winding is None:
            raise DomainError(f"{e.side.value} polar end of multiplicity "
                              f"{_text(e.multiplicity)} has no stored winding")
        bound, name = ((below, "alpha_-") if e.side is Side.CONVEX
                       else (-above, "-alpha_+"))
        if e.winding > bound:
            raise DomainError(
                f"{e.side.value} polar winding {_text(e.winding)} > "
                f"{name} = {_text(bound)}")
        total += e.winding
    return total


def fredholm_index(chi: int, c1: int, ends: Iterable[EndDescriptor]) -> int:
    """index(D) = -chi - 2 c1 + sum of +-(alpha_- + alpha_+) over the ends,
    + on a convex one: 1 per convex generic end, +-(2 alpha_- + 1) per polar
    end.  DomainError for no ends or an end that end_windings refuses."""
    ends = list(ends)
    if not ends:
        raise DomainError("a subvariety has at least one end")
    index = -chi - 2 * c1
    for e in ends:
        below, above = end_windings(e)
        index += below + above if e.side is Side.CONVEX else -below - above
    return index


def index_lower_bound(g: int, Q: int, aleph: int, aleph0cc: int,
                      aleph0cv: int, alephc: int) -> int:
    """2(-1 + g + Q + aleph + aleph0cc + aleph0cv) + alephc."""
    return 2 * (-1 + g + Q + aleph + aleph0cc + aleph0cv) + alephc


def adjunction_e_pairing(chi: int, c1: int, m_c: int) -> int:
    """<e, [C]> = -chi - <c1, [C]> + 2 m_C (the adjunction identity)."""
    return -chi - c1 + 2 * m_c


class InvariantReport(NamedTuple):
    """The invariant bundle of one moduli label, in printed order."""

    delta: int
    gcd_triple: tuple[int, int, int]
    m_c: int
    index: int
    aleph: int
    e_pairing: int
    c1_pairing: int
    chi: int


def sphere_report(label: LabelLike) -> InvariantReport:
    """Invariants of the label's sphere: chi = -1, c1 = 0 and only
    generic ends, of which len(label.pairs()) are convex."""
    chi, c1 = -1, 0
    pairs = label.pairs()
    d, gcds, m_c = _closed_form(pairs)
    aleph = len(pairs)
    # InvariantReport checks nothing, so tuple.__new__ builds the same
    # record, in field order, without the generated __new__.
    return tuple.__new__(InvariantReport, (
        d, gcds, m_c, -chi - 2 * c1 + aleph, aleph,
        adjunction_e_pairing(chi, c1, m_c), c1, chi))
