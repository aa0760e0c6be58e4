import itertools

import pytest

from sympl_moduli import enumerate_labels, validate_label3


@pytest.fixture(scope="session")
def labels2_bound10():
    """Every admissible two-end label with entries up to 10."""
    return enumerate_labels(10, 2)


@pytest.fixture(scope="session")
def label3_candidates_bound8():
    """Every sum-zero triple of pairs with entries up to 8, with its
    list of valid orderings (admissible or not)."""
    rng = range(-8, 9)
    pairs = [(m, mp) for m in rng for mp in rng if (m, mp) != (0, 0)]
    seen = set()
    out = []
    for a, b in itertools.product(pairs, pairs):
        c = (-a[0] - b[0], -a[1] - b[1])
        if c == (0, 0) or abs(c[0]) > 8 or abs(c[1]) > 8:
            continue
        canon = tuple(sorted((a, b, c)))
        if canon in seen:
            continue
        seen.add(canon)
        out.append((canon, validate_label3(canon)[1]))
    return out


def double_points_lattice(label):
    """m_C as the number of interior lattice points of the Newton
    triangle 0, (p, p'), (p+q, p'+q') (Pick 1899), counted row by row in
    exact integers.  It uses no gcd and no residue arithmetic, so it is
    independent of both the gcd formula and the root-of-unity oracle."""
    (p, pp), (q, qp) = label.pairs()[:2]
    verts = [(0, 0), (p, pp), (p + q, pp + qp)]   # counterclockwise: Delta > 0
    edges = [(verts[i], verts[(i + 1) % 3]) for i in range(3)]
    count = 0
    for y in range(min(v[1] for v in verts), max(v[1] for v in verts) + 1):
        # (x, y) is strictly left of an edge (x0, y0) -> (x1, y1) iff
        # ey x < ex (y - y0) + ey x0, with (ex, ey) the edge vector.
        lo, hi, empty = [], [], False
        for (x0, y0), (x1, y1) in edges:
            ex, ey = x1 - x0, y1 - y0
            rhs = ex * (y - y0) + ey * x0
            if ey > 0:
                hi.append((rhs - 1) // ey)          # largest x with ey x < rhs
            elif ey < 0:
                lo.append((-rhs) // (-ey) + 1)      # smallest x with ey x < rhs
            elif rhs <= 0:
                empty = True                        # on or right of a level edge
        if not empty:
            count += max(0, min(hi) - max(lo) + 1)
    return count
