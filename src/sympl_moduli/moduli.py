"""Admissibility and enumeration of moduli-component labels.

A two-ended (three-punctured, one concave end) component is labeled by
an ordered set {(p, p'), (q, q')} of integer pairs; the concave end
carries the derived pair (k, k') = (p + q, p' + q').  Admissibility:

  1. no pair vanishes identically;
  (a) Delta = p q' - q p' > 0 (this fixes the canonical ordering: the
      swap flips the sign of Delta);
  (b) q' - p' > 0 unless p' q' > 0 (for integers, "p' q' > 0" is the
      same as "both non-zero with equal signs");
  (c) each end pair (m, m'), including (k, k'), satisfies the quadrant
      rule: m > 0 when 2 m'^2 < 3 m^2, and 2 m'^2 > 3 m^2 when m < 0.

A three-convex-ended component is labeled by an unordered set of three
pairs summing to (0, 0) componentwise that can be ordered so that the
last pair (k, k') has 2 k'^2 > 3 k^2 while the first two form an
admissible two-end label; an admissible set has precisely two such
orderings, both cyclic shifts of its counterclockwise order, and the
two-end labels they begin with are its two boundary degenerations.

Everything here is exact integer arithmetic; no floating point enters
any admissibility decision.

The rules live in one boolean core, ``_admissible2``, which decides and
builds nothing; rule (c) is reeb's end-pair rule.  Every decision --
``Label2.make``, ``validate_label3`` and the enumeration -- goes
through it.  ``validate_label2`` is the explainer:
it asks the core and, only for a rejected label, words each violated
rule once, for the CLI's ``classify`` report and ``DomainError``.  A
failed rule (c) is worded by reeb, as classify_pair words its (b), after
the end that fails it: ``(c) k = (-1, 1): 2*1^2 = 2 <= 3 = 3*(-1)^2
with m < 0``.  Every int and pair a message names is rendered by
errors._text.

Enumeration constructs labels rather than filtering the whole box: the
pairs of the box that pass rule (c) are listed once, in lexicographic
order, and a two-end label is each ordered couple of them the core
accepts.  Three-end labels come from the same couples with the derived
pair steep and inside the box: each such couple (x, y) is one valid
ordering (x, y, -x-y) of its triple.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from .budgets import MAX_ENUM_BOUND
from .errors import DomainError, InternalError, _text
from .reeb import EndClass, _end_pair_ok, _end_pair_text, _steep

Pair = tuple[int, int]


def _as_pair(x) -> Pair:
    """x as a pair of exact ints; an entry that is not an integer (a
    float, even 2.0) raises TypeError instead of being truncated."""
    m, mp = x
    return (index(m), index(mp))


def _admissible2(p: int, pp: int, q: int, qp: int) -> bool:
    """The admissibility core: rules (1), (a), (b) and (c) of the module
    docstring for the ordered label {(p, p'), (q, q')}.

    Rule (1) is implied by (a): Delta = 0 whenever a pair is (0, 0), and
    also when (k, k') = (0, 0), since then (q, q') = -(p, p').  Rule (c)
    for (k, k') is implied by the rest: an integer pair fails (c) iff it
    lies in the open cone {m < 0, 2 m'^2 < 3 m^2}, which is narrower
    than pi.  If p and q lie outside it, Delta > 0 and p + q inside it,
    the cone lies strictly between p and q, so p' > 0 > q' and (b) fails.
    """
    return (p * qp - q * pp > 0
            and (qp > pp or pp * qp > 0)
            and _end_pair_ok(p, pp) and _end_pair_ok(q, qp))


def _violations2(p: int, pp: int, q: int, qp: int) -> list[str]:
    """Every rule a rejected two-end label violates, worded for a report."""
    violations: list[str] = []
    if (p, pp) == (0, 0):
        violations.append("(1) first pair is (0, 0)")
    if (q, qp) == (0, 0):
        violations.append("(1) second pair is (0, 0)")
    if violations:
        return violations

    d = p * qp - q * pp
    if d <= 0:
        violations.append(f"(a) Delta = {_text(p)}*{_text(qp)} - "
                          f"{_text(q)}*{_text(pp)} = {_text(d)} <= 0")
    if not (qp - pp > 0 or pp * qp > 0):
        violations.append(f"(b) q' - p' = {_text(qp - pp)} <= 0 and p'q' = "
                          f"{_text(pp * qp)} <= 0")
    k, kp = p + q, pp + qp
    if (k, kp) == (0, 0):
        violations.append("(1) derived pair (p+q, p'+q') is (0, 0)")
    for tag, m, mp in (("p", p, pp), ("q", q, qp), ("k", k, kp)):
        if not _end_pair_ok(m, mp):      # k = (0, 0) passes
            violations.append(f"(c) {tag} = {_text((m, mp))}: "
                              f"{_end_pair_text(m, mp)}")
    return violations


def validate_label2(p_pair, q_pair) -> tuple[bool, list[str]]:
    """Check an ordered two-end label; returns (ok, violated rules)."""
    p, pp = _as_pair(p_pair)
    q, qp = _as_pair(q_pair)
    if _admissible2(p, pp, q, qp):
        return True, []
    return False, _violations2(p, pp, q, qp)


class Label2(NamedTuple):
    """An admissible ordered two-end label (Delta > 0 ordering)."""

    p_pair: EndClass
    q_pair: EndClass

    @classmethod
    def make(cls, p_pair, q_pair) -> "Label2":
        p, pp = _as_pair(p_pair)
        q, qp = _as_pair(q_pair)
        if not _admissible2(p, pp, q, qp):
            raise DomainError("; ".join(_violations2(p, pp, q, qp)))
        return cls(EndClass(p, pp), EndClass(q, qp))

    def pairs(self) -> "Label2":
        """The label itself: it is the tuple of its two pairs."""
        return self


Ordering3 = tuple[Pair, Pair, Pair]


def validate_label3(pairs) -> tuple[bool, list[Ordering3]]:
    """Check an unordered set of three pairs; returns (ok, valid orderings).

    An ordering ((p,p'), (q,q'), (k,k')) is valid when the three pairs
    sum to zero, 2 k'^2 > 3 k^2 (k = 0 passes: the ratio |k'/k| is then
    infinite, and rejecting it would leave some admissible sets with a
    single valid ordering, contradicting the two-orderings structure),
    and the first two pairs form an admissible two-end label.  ok iff
    exactly two orderings are valid.

    For u + v + w = 0 the cyclic shifts share Delta and the reversed
    order has -Delta, failing rule (a); so only the shifts of the
    counterclockwise order (first two pairs swapped if Delta(u, v) < 0)
    are tried, and Delta = 0 (a zero or repeated pair) leaves none.
    Both orderings of an admissible set share Delta, gcds and m_C.
    """
    ps = [_as_pair(x) for x in pairs]
    if len(ps) != 3:
        raise DomainError("a three-end label needs exactly three pairs")
    (p, pp), (q, qp), (k, kp) = ps
    if p + q + k != 0 or pp + qp + kp != 0:
        return False, []
    if p * qp - q * pp < 0:
        ps[0], ps[1] = ps[1], ps[0]
    orderings: list[Ordering3] = []
    for i in range(3):
        (p, pp), (q, qp), (k, kp) = shift = tuple(ps[i:] + ps[:i])
        if _steep(k, kp) and _admissible2(p, pp, q, qp):
            orderings.append(shift)
    return len(orderings) == 2, sorted(orderings)


class Label3(NamedTuple):
    """An admissible unordered three-end label, stored sorted."""

    pairs: tuple[EndClass, EndClass, EndClass]

    @classmethod
    def make(cls, pairs) -> "Label3":
        return OrderedLabel3.make(pairs).label

    def orderings(self) -> list[Ordering3]:
        return validate_label3(self.pairs)[1]


class OrderedLabel3(NamedTuple):
    """A three-end label together with one of its two valid orderings."""

    label: Label3
    ordering: Ordering3

    @classmethod
    def make(cls, pairs, which: int = 0) -> "OrderedLabel3":
        ok, orderings = validate_label3(pairs)
        if not ok:
            ps = [_as_pair(p) for p in pairs]
            total = (sum(m for m, _ in ps), sum(mp for _, mp in ps))
            why = (f"the pairs sum to {_text(total)}, not (0, 0)"
                   if total != (0, 0) else
                   f"{len(orderings)} valid orderings, 2 needed")
            raise DomainError(f"{_text(ps)} is not admissible: {why}")
        if not 0 <= which < len(orderings):
            raise DomainError(f"ordering index {_text(which)} out of range")
        canon = tuple(EndClass(*p) for p in sorted(_as_pair(p) for p in pairs))
        return cls(Label3(canon), orderings[which])  # type: ignore[arg-type]

    def pairs(self) -> Ordering3:
        return self.ordering


def delta(label: Label2 | OrderedLabel3) -> int:
    """Delta = p q' - q p' of rule (a), from the label's first two pairs."""
    (p, pp), (q, qp) = label.pairs()[:2]
    return p * qp - q * pp


def boundary_labels(l3: Label3 | OrderedLabel3) -> tuple[Label2, Label2]:
    """The two two-end labels compactifying a three-end component.

    They are formed by the first two pairs of the two valid orderings;
    the theory guarantees they are distinct, which is asserted.
    """
    label = l3.label if isinstance(l3, OrderedLabel3) else l3
    ok, orderings = validate_label3(label.pairs)
    if not ok:
        raise DomainError("not an admissible three-end label")
    out = tuple(Label2.make(o[0], o[1]) for o in orderings)
    if out[0] == out[1]:
        raise InternalError(
            f"boundary labels coincide for {_text(label.pairs)}")
    return out  # type: ignore[return-value]


def _end_classes(bound: int) -> list[tuple[int, int, EndClass]]:
    """(m, m', EndClass(m, m')) for the pairs with entries in
    [-bound, bound] that pass rule (c), in lexicographic order; (0, 0)
    is left out.  The EndClass objects are frozen, so labels share them."""
    rng = range(-bound, bound + 1)
    return [(m, mp, EndClass(m, mp)) for m in rng for mp in rng
            if (m, mp) != (0, 0) and _end_pair_ok(m, mp)]


def enumerate_labels(bound: int, ends: int) -> list[Label2] | list[Label3]:
    """All admissible labels with every entry in [-bound, bound].

    Labels are built from the rules, not filtered out of the box.  The
    end pairs that pass the quadrant rule are listed once in
    lexicographic order, with one shared EndClass each.  A two-end
    label is an ordered couple (x, y) of them that the admissibility
    core accepts; it comes out in its canonical Delta > 0 ordering (the
    swap never appears), and the labels are in lexicographic order of
    (p, p', q, q').  A three-end label is a triple {x, y, -x-y} with
    exactly two valid orderings; each accepted couple whose derived
    pair (k, k') = x + y has 2 k'^2 > 3 k^2 and lies in the box is one
    valid ordering (x, y, -k).  Three-end labels are unordered sets,
    stored sorted and returned in sorted order.  DomainError, before any
    candidate is built, for a bound below 1 or past MAX_ENUM_BOUND, or
    ends other than 2 and 3.
    """
    if bound < 1:
        raise DomainError("bound must be >= 1")
    if bound > MAX_ENUM_BOUND:
        raise DomainError(f"bound = {_text(bound)} exceeds "
                          f"{_text(MAX_ENUM_BOUND)}, the budget of the "
                          f"enumeration")
    if ends not in (2, 3):
        raise DomainError("ends must be 2 or 3")
    classes = _end_classes(bound)
    if ends == 2:
        # Label2 checks nothing, so tuple.__new__ builds the same label
        # without the generated __new__.
        return [tuple.__new__(Label2, (ex, ey))
                for p, pp, ex in classes for q, qp, ey in classes
                if _admissible2(p, pp, q, qp)]
    orderings: dict[tuple[Pair, Pair, Pair], int] = {}
    for p, pp, _ in classes:
        for q, qp, _ in classes:
            k, kp = p + q, pp + qp
            if (abs(k) <= bound and abs(kp) <= bound and _steep(k, kp)
                    and _admissible2(p, pp, q, qp)):
                triple = tuple(sorted(((p, pp), (q, qp), (-k, -kp))))
                orderings[triple] = orderings.get(triple, 0) + 1
    # The two orderings of an admissible triple end in different pairs
    # ((x, y, c) and (y, x, c) cannot both have Delta > 0), so each of
    # its pairs opens an accepted couple and has its EndClass here.
    end = {(m, mp): e for m, mp, e in classes}
    return [Label3(tuple(end[x] for x in triple))
            for triple in sorted(orderings) if orderings[triple] == 2]
