import itertools
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import reject
from hypothesis import strategies as st

from sympl_moduli import Label2, enumerate_labels, validate_label3
from sympl_moduli.curves import CurveSpec, _anchored, _log_sums
from sympl_moduli.errors import DomainError
from sympl_moduli.geometry import fh_rows
from sympl_moduli.model_maps import DoublePoint

import shadow


#: The desk labels of the double-point tests.
L_SYM = Label2.make((2, 1), (1, 2))      # Delta = 3, embedded
L_41 = Label2.make((4, 1), (1, 1))       # Delta = 3, one double point
L_5 = Label2.make((1, -1), (1, 4))       # Delta = 5, two double points

#: The message of a DomainError that refuses a label as not admissible:
#: Label2.make lists the rules it violates, "(1)" and "(a)" to "(c)",
#: and Label3.make and OrderedLabel3.make name the set and then its
#: pairs' sum, or its count of valid orderings.
_INT = r"-?(?:\d+|<\d+-bit int>)"
INADMISSIBLE = re.compile(
    rf"^\([1abc]\) |is not admissible: (?:the pairs sum to "
    rf"\({_INT}, {_INT}\), not \(0, 0\)|\d+ valid orderings, 2 needed)$")


def profile_refusal(exc) -> str:
    """The rule a DomainError of a profile trace or point names: "clip"
    where the clip leaves no angles on the range or rounds onto one of
    its ends, "point" where fh_rows or fh_at refuses an s or the curve
    does not reach the u asked for.  An assertion fails on any other
    refusal."""
    text = str(exc)
    if re.search(r"^clip \S+ (leaves no angles|rounds onto the end) ", text):
        return "clip"
    assert re.search(r"^u = | at theta = ", text), text
    return "point"


def loaded_after(statement, cwd=None):
    """The sympl_moduli submodules loaded once `statement` has run in a
    fresh -I -S -B interpreter in cwd, on the probe's last stdout line:
    no site packages, no PYTHON* variables and no .pyc files written."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = ("import sys; sys.path.insert(0, sys.argv[1])\n"
             f"{statement}\n"
             "print(*sorted(m for m in sys.modules "
             "if m.startswith('sympl_moduli.')))")
    out = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", probe, src],
        capture_output=True, text=True, check=True, timeout=60, cwd=cwd)
    return set(out.stdout.splitlines()[-1].split())


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


def double_points_json(points: list[DoublePoint]) -> list[dict]:
    return [{"a": dp.a, "b": dp.b,
             "z": [dp.z.real, dp.z.imag],
             "w": [dp.w.real, dp.w.imag],
             "residual": dp.residual} for dp in points]


def profile_ode_residual(spec: CurveSpec, theta: float) -> float:
    """|dh/du - (p'/p) sin^2 theta| at one point of a profile curve.

    dh/du is a central finite difference of h with respect to u between
    two points of the curve, with the theta step 3e-4 times the
    distance from the nearest fixed angle (h and u grow like a power of
    that distance, so a fixed step would measure resolution, not the
    curve).  DomainError where fh_rows refuses s at a step.
    """
    rng = spec.theta_range()
    dist = min(theta - rng.lo, rng.hi - theta)
    if not dist > 0:
        raise DomainError("theta outside the open range")
    terms, base = _anchored(spec)
    step = 3e-4 * dist
    thetas = (theta - step, theta + step)
    s_values = [base + x for x in _log_sums(terms, thetas)]
    _, (f_lo, f_hi), (h_lo, h_hi) = fh_rows(s_values, thetas)
    fd = (h_hi - h_lo) / (f_hi - f_lo)
    return abs(fd - (spec.p_prime / spec.p) * math.sin(theta) ** 2)


def trace_outcome(p, p_prime, rid, n_samples):
    """integrate_profile of one range at the default clip, s anchored at
    0, against shadow.profile_s: "traced" where every row's s lies
    within one unit of the twelfth digit of max(|s|, 1) of the exact
    value at its angle; "refused" where fh_rows refuses a row whose
    exact e^{-sqrt6 s} also lies outside [_TINY, _E_MAX]."""
    from sympl_moduli import curves, geometry
    from sympl_moduli.errors import DomainError
    rng = curves.classify_branches(p, p_prime)[rid]
    ref = 0.5 * (rng.lo + rng.hi)
    try:
        rows = curves.integrate_profile(p, p_prime, rid,
                                        n_samples=n_samples).samples
    except DomainError as exc:
        refused = re.fullmatch(r"(f, h or g overflow a float|f and h "
                               r"underflow the normal floats) at theta = "
                               r"(\S+) \(s = \S+\)", str(exc))
        assert refused, exc
        theta = float(refused[2])
        exact, = shadow.profile_s(p, p_prime, ref, [theta])
        e = shadow.fh(exact, theta)[0]
        assert not geometry._TINY <= e <= geometry._E_MAX, exc
        return "refused"
    exact = shadow.profile_s(p, p_prime, ref, [row.theta for row in rows])
    for row, want in zip(rows, exact):
        unit = 10.0 ** (math.floor(math.log10(max(abs(want), 1))) - 11)
        assert abs(row.s - want) <= unit, (p, p_prime, rid, row)
    return "traced"


def sigma(pair):
    """The reflection sigma(s, t, theta, phi) = (s, t, pi - theta, -phi)
    on an end class: (m, m') -> (m, -m')."""
    m, mp = pair
    return (m, -mp)


def m0(m):
    """The least n with 2 n^2 > 3 m^2, for m >= 1, in closed form: isqrt
    gives the largest n with 2 n^2 <= 3 m^2, never equal for m >= 1.  A
    polar end of multiplicity m has its first positive eigenvalue
    -sqrt(3/2) + n/m at winding n = m0(m).  The tests' oracle for
    invariants.end_windings, which it does not call."""
    return math.isqrt(3 * m * m // 2) + 1


def boundary_pairs(max_p=10**12, max_d=100):
    """The coprime pairs 0 < p <= max_p with 0 < |2 p'^2 - 3 p^2| <= max_d
    that grow from a solution with p <= 30 under (p, p') -> (5p + 4p',
    6p + 5p'), which keeps 2 p'^2 - 3 p^2, each in both signs of p':
    where the outer root of the profile quadratic is within O(1/p^2) of
    x = +-1, to p^2 / |D| ~ 1e22."""
    out = []
    for p in range(1, 31):
        base = math.isqrt(3 * p * p // 2)
        for pp in range(max(base - 3, 1), base + 4):
            if not 0 < abs(2 * pp * pp - 3 * p * p) <= max_d:
                continue
            q, qp = p, pp
            while q <= max_p:
                if math.gcd(q, qp) == 1:
                    out += [(q, qp), (q, -qp)]
                q, qp = 5 * q + 4 * qp, 6 * q + 5 * qp
    return sorted(set(out))


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
