import itertools

import pytest
from hypothesis import reject
from hypothesis import strategies as st

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
    exact integers, along the shorter axis of the triangle.  It uses no
    gcd and no residue arithmetic, so it is independent of both the gcd
    formula and the root-of-unity oracle."""
    (p, pp), (q, qp) = label.pairs()[:2]
    verts = [(0, 0), (p, pp), (p + q, pp + qp)]   # counterclockwise: Delta > 0
    xs, ys = [x for x, _ in verts], [y for _, y in verts]
    if max(xs) - min(xs) < max(ys) - min(ys):
        # The mirror image in the diagonal has the same interior points;
        # listed in reverse, it is counterclockwise again.
        verts = [(y, x) for x, y in reversed(verts)]
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


def decay_constants_mpmath(m, m_prime):
    """(zeta, kappa, sigma0) of the orbit of (m, m'), m and m' != 0: the
    cosine of the inner root (m > 0) or the outer one (m < 0) in closed
    form, then asymptotic_constants' formulas, at 400 digits, so that
    1 - 3 cos^2 keeps over 200 of them for |m'/m| up to the float range."""
    mpm = pytest.importorskip("mpmath")
    with mpm.workdps(400):
        a = mpm.mpf(m_prime) / m
        r = mpm.sqrt(1 + 2 * a * a)
        c = (r - 1 if m > 0 else -1 - r) / (mpm.sqrt(6) * a)
        dev = abs(1 - 3 * c * c)
        root = mpm.sqrt(1 + 3 * c ** 4)
        return (mpm.sqrt(6) * (1 - c * c) * (1 + 3 * c * c) / root / dev,
                dev / (mpm.sqrt(6) * root),
                4 * abs(c) * abs(a) / (1 + a * a * (1 - c * c)))


def bezout(m, n):
    """(s, t) with m s + n t = gcd(m, n) >= 0."""
    if n == 0:
        return (1 if m >= 0 else -1), 0
    s, t = bezout(n, m % n)
    return t, s - (m // n) * t


@st.composite
def label_pairs(draw, entry, max_delta, ends=2):
    """The pairs of a candidate label with entries up to entry and
    0 < Delta <= max_delta: a first pair (p, p'), a multiple Delta of
    g = gcd(p, p'), and the second pair at that Delta nearest the
    origin, moved a few steps along (p, p') / g.  With ends=3 the third
    pair -(p + q, p' + q') closes the set.  Admissibility is the
    caller's to check."""
    p = draw(st.integers(-entry, entry))
    pp = draw(st.integers(-entry, entry))
    s, t = bezout(p, pp)
    g = p * s + pp * t
    if not 0 < g <= max_delta:
        reject()
    k = draw(st.integers(1, max_delta // g))
    q, qp = -k * t, k * s                   # p q' - q p' = k g
    u, v = p // g, pp // g
    j = -q // u if abs(u) >= abs(v) else -qp // v
    j += draw(st.integers(-2, 2))
    q, qp = q + j * u, qp + j * v
    pairs = (p, pp), (q, qp)
    if ends == 3:
        pairs += (-p - q, -pp - qp),
    if max(abs(x) for pair in pairs[1:] for x in pair) > entry:
        reject()
    return pairs
