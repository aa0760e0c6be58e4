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
    exact modular arithmetic, never floating point.

A label is read only through its pairs(): the two pairs (p, p'), (q, q')
of a two-end label, or the three pairs of an ordered three-end label,
whose first two play the same role.  Every number of a sphere report is
a closed expression in the first two pairs, and two of them need no
machinery of their own:

  * the intersection count between the curve and a small generic
    translate, 1 + 2 m_C + (g1 - 1) + (g2 - 1) + (g3 - 1) with
    (g1, g2, g3) the gcd triple, equals Delta: substitute the gcd
    identity for 2 m_C;
  * the sphere has chi = -1, <c1> = 0 and only generic ends, so
    aleph_+ = aleph_- = 0 and the index below is 1 + aleph, where
    aleph = len(label.pairs()) counts the convex ends (a two-end
    label's third end (k, k') is concave).

The Fredholm index of the deformation operator is
    index = -chi - 2 <c1> + aleph + aleph_+ + aleph_-
with aleph the number of convex generic ends, aleph_+ the sum of
1 - 2 m0(E) over concave polar ends and aleph_- the sum of 2 m0(E) - 1
over convex polar ends; m0(E) is the least integer n with
2 n^2 > 3 m(E)^2.  The pairing <c1, [C]> decomposes as -nu0 plus the
polar-end windings nu(E), which are bounded above by -m0(E) on the
concave side and m0(E) - 1 on the convex side.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, NamedTuple, Optional, Union

from .errors import (BoundViolation, DegenerateAngle, DomainError,
                     InternalError, ParityError, ZeroPair)
from .geometry import SQRT6
from .moduli import Label2, OrderedLabel3
from .reeb import EndClass

LabelLike = Union[Label2, OrderedLabel3]


def delta(label: LabelLike) -> int:
    """Delta = p q' - q p' from the first two pairs of the label."""
    (p, pp), (q, qp) = label.pairs()[:2]
    return p * qp - q * pp


def _closed_form(pairs) -> tuple[int, tuple[int, int, int], int]:
    """(Delta, gcd triple, m_C) from a label's pairs().

    m_C comes from the gcd identity, whose 2 m_C must be even and
    >= 0.  gcd is always positive, and gcd(0, n) = |n|.
    """
    (p, pp), (q, qp) = pairs[:2]
    d = p * qp - q * pp
    gcds = (math.gcd(p, pp), math.gcd(q, qp), math.gcd(p + q, pp + qp))
    twice = d - sum(gcds) + 2
    if twice % 2:
        raise ParityError(f"Delta - gcds + 2 = {twice} is odd for {pairs}")
    if twice < 0:
        raise InternalError(f"negative double-point count {twice // 2} for {pairs}")
    return d, gcds, twice // 2


def double_points_formula(label: LabelLike) -> int:
    """m_C from the gcd identity; asserts the expression is even and >= 0."""
    return _closed_form(label.pairs())[2]


#: The largest Delta the O(Delta) routes accept: the oracle's walk and
#: the model map's ~Delta residue pairs and points grow with it.  2^20
#: admits README's 997,3;5,999 (Delta 995,988).  The gcd formula has no
#: budget.
MAX_WALK_DELTA = 2 ** 20


def _lattice(label: LabelLike) -> tuple[int, int, int, int]:
    """(Delta, g, Delta/g, b1) of the residue-pair lattice of a label
    (see residue_pairs); DomainError past MAX_WALK_DELTA, before any
    walk."""
    (p, pp), (q, qp) = label.pairs()[:2]
    d = p * qp - q * pp
    if d < 1:
        raise InternalError(f"Delta = {d} < 1")
    if d > MAX_WALK_DELTA:
        raise DomainError(f"Delta = {d} exceeds {MAX_WALK_DELTA}, the "
                          f"budget of the residue walk; use the gcd formula")
    g = math.gcd(d, q, qp)
    coset = d // g
    return d, g, coset, _solve_at(g, p, pp, q, qp, d) % coset


def residue_pairs(label: LabelLike) -> list[tuple[int, int]]:
    """Ordered residue pairs (a, b) mod Delta encoding the double points.

    These are the pairs with a, b in {1, ..., Delta-1}, a != b, and
    p a + q b = p' a + q' b = 0 (mod Delta), listed by a, then b.

    The solutions (a, b) mod Delta form a subgroup of order Delta, the
    kernel of the label's matrix.  Its pairs with a = 0 are the b with
    q b = q' b = 0, the multiples of Delta/g for g = gcd(Delta, q, q'),
    so g of them, and the a that occur are the Delta/g multiples of g.
    Once one solution (g, b1) is known, the pairs over a = j g are the
    coset b = j b1 (mod Delta/g).  b1 is found by solving
    q b = -p g (mod Delta) exactly and keeping the solution that meets
    the second congruence; the walk over a = g, 2g, ... then visits
    only solutions, dropping b = 0 and b = a.  All of it is exact
    modular arithmetic, independent of the gcd formula.
    """
    d, g, coset, b1 = _lattice(label)
    if g == 1:
        # One b per a: a flat walk saves the inner range of every a,
        # ~9 % of double-points throughput.
        return [(a, b) for a in range(1, d) if (b := a * b1 % d) and b != a]
    return [(a, b) for a in range(g, d, g)
            for b in range(a // g * b1 % coset, d, coset) if b and b != a]


def _solve_at(a: int, p: int, pp: int, q: int, qp: int, d: int) -> int:
    """One b with p a + q b = p' a + q' b = 0 (mod d), by solving the
    first congruence and testing its gcd(q, d) solutions on the second."""
    gq = math.gcd(q, d)
    step = d // gq
    rhs = (-p * a) % d
    if rhs % gq == 0:
        b0 = (rhs // gq) * pow(q // gq, -1, step) % step if step > 1 else 0
        for b in range(b0, d, step):
            if (pp * a + qp * b) % d == 0:
                return b
    raise InternalError(f"no residue pair over a = {a} mod {d}")


def double_points_bruteforce(label: LabelLike) -> int:
    """m_C as half the number of ordered residue-pair solutions.

    The same walk as residue_pairs over the same lattice, keeping only
    each pair's b: the pairs are counted, never built."""
    d, g, coset, b1 = _lattice(label)
    if g == 1:
        count = len([b for a in range(1, d) if (b := a * b1 % d) and b != a])
    else:
        count = len([b for a in range(g, d, g)
                     for b in range(a // g * b1 % coset, d, coset)
                     if b and b != a])
    if count % 2:
        raise ParityError(f"odd ordered-solution count {count} for {label}")
    return count // 2


def m0_of(m: int) -> int:
    """Least integer n with 2 n^2 > 3 m^2, i.e. the first n > m sqrt(3/2)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    # isqrt gives the largest n with 2 n^2 <= 3 m^2 (never equal for m >= 1).
    return math.isqrt(3 * m * m // 2) + 1


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
        if multiplicity < 1:
            raise ValueError("polar multiplicity must be >= 1")
        return cls(side, "polar", multiplicity=multiplicity, winding=winding)


def c1_pairing(nu0: int, ends: Iterable[EndDescriptor]) -> int:
    """<c1, [C]> = -nu0 + sum of polar-end windings.

    nu0 >= 0 counts intersections with the polar locus.  Each polar
    winding is validated against its bound: nu <= -m0 on concave ends,
    nu <= m0 - 1 on convex ends.  Generic ends contribute nothing.
    """
    if nu0 < 0:
        raise ValueError("nu0 is a non-negative intersection count")
    total = -nu0
    for e in ends:
        if e.kind != "polar":
            continue
        if e.winding is None:
            raise ValueError(f"polar end {e} has no stored winding")
        m0 = m0_of(e.multiplicity)
        if e.side is Side.CONCAVE and e.winding > -m0:
            raise BoundViolation(
                f"concave polar winding {e.winding} > -m0 = {-m0}")
        if e.side is Side.CONVEX and e.winding > m0 - 1:
            raise BoundViolation(
                f"convex polar winding {e.winding} > m0 - 1 = {m0 - 1}")
        total += e.winding
    return total


def aleph_counts(ends: Iterable[EndDescriptor]) -> tuple[int, int, int]:
    """(aleph, aleph_+, aleph_-) for the index formula."""
    aleph = aleph_plus = aleph_minus = 0
    for e in ends:
        if e.kind == "generic":
            if e.side is Side.CONVEX:
                aleph += 1
        else:
            m0 = m0_of(e.multiplicity)
            if e.side is Side.CONCAVE:
                aleph_plus += 1 - 2 * m0
            else:
                aleph_minus += 2 * m0 - 1
    return aleph, aleph_plus, aleph_minus


def fredholm_index(chi: int, c1: int, ends: Iterable[EndDescriptor]) -> int:
    """index(D) = -chi - 2 c1 + aleph + aleph_+ + aleph_-."""
    ends = list(ends)
    if not ends:
        raise ValueError("a subvariety has at least one end")
    a, ap, am = aleph_counts(ends)
    return -chi - 2 * c1 + a + ap + am


def index_lower_bound(g: int, Q: int, aleph: int, aleph0cc: int,
                      aleph0cv: int, alephc: int) -> int:
    """2(-1 + g + Q + aleph + aleph0cc + aleph0cv) + alephc."""
    return 2 * (-1 + g + Q + aleph + aleph0cc + aleph0cv) + alephc


def adjunction_e_pairing(chi: int, c1: int, m_c: int) -> int:
    """<e, [C]> = -chi - <c1, [C]> + 2 m_C (the adjunction identity)."""
    return -chi - c1 + 2 * m_c


class AsymptoticData(NamedTuple):
    """Decay data of an end: the decay constant zeta of the linearized
    operator, the chart rate kappa, and the end exponent sigma0."""

    zeta: float
    kappa: float
    sigma0: Optional[float] = None


#: |cos^2(theta0) - 1/3| below which asymptotic_constants refuses the angle.
_DEGENERATE_TOL = 1e-12


def asymptotic_constants(theta0: float,
                         end_class: Optional[EndClass] = None) -> AsymptoticData:
    """Evaluate (zeta, kappa, sigma0) at the orbit angle theta0.

    zeta = sqrt6 sin^2 (1 + 3 cos^2)(1 + 3 cos^4)^{-1/2} |1 - 3 cos^2|^{-1}
    kappa = 6^{-1/2} (1 + 3 cos^4)^{-1/2} |1 - 3 cos^2|
    sigma0 = 4 |cos| |m'/m| (1 + (m'/m)^2 sin^2)^{-1}   (needs m != 0)

    Both zeta and kappa degenerate where cos^2(theta0) = 1/3.
    """
    c = math.cos(theta0)
    if abs(c * c - 1.0 / 3.0) < _DEGENERATE_TOL:
        raise DegenerateAngle("cos^2(theta0) = 1/3: no decay constants")
    if not 0.0 < theta0 < math.pi:
        raise ValueError("theta0 must lie in (0, pi)")
    s2 = math.sin(theta0) ** 2
    root = math.sqrt(1.0 + 3.0 * c ** 4)
    dev = abs(1.0 - 3.0 * c * c)
    zeta = SQRT6 * s2 * (1.0 + 3.0 * c * c) / root / dev
    kappa = dev / (SQRT6 * root)
    sigma0 = None
    if end_class is not None:
        if end_class.m == 0:
            raise ZeroPair("sigma0 needs m != 0")
        ratio = end_class.m_prime / end_class.m
        sigma0 = 4.0 * abs(c) * abs(ratio) / (1.0 + ratio * ratio * s2)
    return AsymptoticData(zeta=zeta, kappa=kappa, sigma0=sigma0)


class GenericSpectrumCase(NamedTuple):
    """Linearized operator at a generic orbit: decay constant zeta and
    the period m|p| of the covering parameterization."""

    zeta: float
    period: int


class PolarSpectrumCase(NamedTuple):
    """Linearized operator at a polar orbit covered m times."""

    m: int


def l0_spectrum(case: GenericSpectrumCase | PolarSpectrumCase,
                n_max: int) -> list[tuple[float, int]]:
    """Eigenvalues of the asymptotic operator, with multiplicities.

    Generic orbit: { (-zeta +- sqrt(zeta^2 + 4 n^2 / T^2)) / 2,
    0 <= n <= n_max }; the two n = 0 eigenvalues (0 and -zeta) are
    simple, all n > 0 ones are double.  Polar orbit covered m times:
    { -sqrt(3/2) + n/m, |n| <= n_max }, all double -- in particular
    never zero, since sqrt(3/2) is irrational.  Returned sorted by
    eigenvalue.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out: list[tuple[float, int]] = []
    if isinstance(case, GenericSpectrumCase):
        if case.period < 1:
            raise ValueError("period must be >= 1")
        out.append((0.0, 1))
        out.append((-case.zeta, 1))
        for n in range(1, n_max + 1):
            disc = math.sqrt(case.zeta ** 2 + 4.0 * n * n / case.period ** 2)
            out.append((0.5 * (-case.zeta + disc), 2))
            out.append((0.5 * (-case.zeta - disc), 2))
    else:
        if case.m < 1:
            raise ValueError("m must be >= 1")
        base = -math.sqrt(1.5)
        for n in range(-n_max, n_max + 1):
            out.append((base + n / case.m, 2))
    return sorted(out)


class InvariantReport(NamedTuple):
    """The invariant bundle of one moduli label (or catalog curve)."""

    delta: int
    gcd_triple: tuple[int, int, int]
    m_c: int
    index: int
    aleph: int
    chi: int
    c1_pairing: int
    e_pairing: int

    def to_json(self, label: LabelLike | None = None) -> dict:
        out: dict = {}
        if label is not None:
            out["label"] = {"pairs": [list(p) for p in label.pairs()]}
        out.update({
            "delta": self.delta,
            "gcds": list(self.gcd_triple),
            "m_C": self.m_c,
            "index": self.index,
            "aleph": self.aleph,
            "e_pairing": self.e_pairing,
            "c1": self.c1_pairing,
            "chi": self.chi,
        })
        return out


def sphere_report(label: LabelLike) -> InvariantReport:
    """Invariants of the label's sphere: chi = -1, c1 = 0 and only
    generic ends, of which len(label.pairs()) are convex."""
    chi, c1 = -1, 0
    pairs = label.pairs()
    d, gcds, m_c = _closed_form(pairs)
    aleph = len(pairs)
    return InvariantReport(
        delta=d,
        gcd_triple=gcds,
        m_c=m_c,
        index=-chi - 2 * c1 + aleph,
        aleph=aleph,
        chi=chi,
        c1_pairing=c1,
        e_pairing=adjunction_e_pairing(chi, c1, m_c),
    )
