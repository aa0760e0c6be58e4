"""The benchmark's own statement of label admissibility.

A transcription of the exact integer rules in the moduli module's
docstring, kept apart from the library so that input generation and
the expected label totals do not lean on the code being measured.
"""

from __future__ import annotations

import itertools


def quadrant_ok(m: int, mp: int) -> bool:
    """Rule (c): m > 0 when 2 m'^2 < 3 m^2; 2 m'^2 > 3 m^2 when m < 0."""
    lhs, rhs = 2 * mp * mp, 3 * m * m
    return not ((m < 0 and lhs <= rhs) or (lhs < rhs and m <= 0))


def admissible2(p: int, pp: int, q: int, qp: int) -> bool:
    """An ordered two-end label {(p, p'), (q, q')}."""
    k, kp = p + q, pp + qp
    if (p, pp) == (0, 0) or (q, qp) == (0, 0) or (k, kp) == (0, 0):
        return False
    if p * qp - q * pp <= 0:
        return False
    if not (qp - pp > 0 or pp * qp > 0):
        return False
    return quadrant_ok(p, pp) and quadrant_ok(q, qp) and quadrant_ok(k, kp)


def orderings3(triple) -> set:
    """Valid orderings of three pairs summing to zero: the last pair has
    2 k'^2 > 3 k^2 and the first two form an admissible two-end label."""
    return {perm for perm in itertools.permutations(triple)
            if 2 * perm[2][1] ** 2 > 3 * perm[2][0] ** 2
            and admissible2(*perm[0], *perm[1])}


def count_labels(bound: int, ends: int) -> int:
    """Admissible labels with every entry in [-bound, bound]."""
    rng = range(-bound, bound + 1)
    if ends == 2:
        return sum(admissible2(p, pp, q, qp) for p, pp, q, qp
                   in itertools.product(rng, repeat=4))
    pairs = [(m, mp) for m in rng for mp in rng if (m, mp) != (0, 0)]
    seen = set()
    for a, b in itertools.product(pairs, pairs):
        c = (-a[0] - b[0], -a[1] - b[1])
        if c != (0, 0) and abs(c[0]) <= bound and abs(c[1]) <= bound:
            seen.add(tuple(sorted((a, b, c))))
    return sum(len(orderings3(t)) == 2 for t in seen)
