"""The digits gate: every float the package returns, against the shadow
(tests/shadow.py) at its singular loci.

ROWS has one row for each export of sympl_moduli.__all__ whose return
hint holds a float or a complex (tests/test_source.py checks the list
against __all__).  A row's cases sample the export where its formula
can cancel or blow up: the poles, the cone angles, the equator, the
orbit angles theta0 and theta0_bar, the regime boundary 2 p'^2 = 3 p^2
through the Pell-like pairs (40, +-49), (12641, 15482) and (83739041,
102558961), the model map's punctures, 2 n^2 near 3 m^2 for the polar
spectrum, and lambda near 0 and +-huge on each branch; at offsets
10^-k, k = 2..15, on both sides of each locus, plus seeded uniform
draws.  Each case yields (got, want, scale, where) for every float the
call returns, and its error is |got - want| in eps of scale, a size that
carries the quantity's conditioning (zero where the value is exactly
zero, which must then come out exact).  A row's bound is at most four
times the worst error measured on its cases, and at most 2^10.

Afterwards a new cancellation is a failing row, not a hand search.
"""

import math
import random
import sys
from typing import Callable, Iterator, NamedTuple

import pytest

from sympl_moduli import (BranchId, CurveSpec, EndClass, Label2,
                          ModelMapParams, Point4, ReebOrbit, Tangent4,
                          apply_J, asymptotic_constants, classify_branches,
                          classify_pair, contact_eval, coord_functions,
                          eval_invariant_curve, generic_spectrum,
                          immersion_residual, integrate_profile,
                          lambda_of_theta, omega_eval, orbit_point,
                          phi_double_points, phi_eval, polar_spectrum,
                          profile_ds_dtheta, reeb_vector, s_max, s_of_theta,
                          solve_theta0, theta_from_lambda, theta_roots)
from sympl_moduli.errors import BranchError, DomainError
from sympl_moduli.geometry import THETA_C

import shadow

EPS = 2.0 ** -52
TINY = sys.float_info.min
SQRT6_ = math.sqrt(6.0)

#: The offsets from each locus, as a share of the distance that scales it.
OFFSETS = [10.0 ** -k for k in range(2, 16)]


def _draws(n, seed):
    """n seeded uniform draws from [0, 1)."""
    rnd = random.Random(seed)
    return [rnd.random() for _ in range(n)]


def _around(locus, lo=0.0, hi=math.pi):
    """locus and locus +- 10^-k, kept inside [lo, hi]."""
    return [x for x in [locus] + [locus + side * d for d in OFFSETS
                                  for side in (-1.0, 1.0)] if lo <= x <= hi]


#: The poles, the cone angles and the equator, each with its offsets,
#: and 40 seeded uniform angles.
ANGLES = sorted({x for locus in (0.0, THETA_C, 0.5 * math.pi,
                                 math.pi - THETA_C, math.pi)
                 for x in _around(locus)}
                | {math.pi * r for r in _draws(40, 20261020)})
INNER_ANGLES = [x for x in ANGLES if 0.0 < x < math.pi]

#: Profile pairs: p' = 0, both signs of p' on either side of the regime
#: boundary, and the Pell-like pairs next to it.
PROFILE_PAIRS = [(1, 0), (1, 2), (1, -2), (2, 5), (5, -6), (7, 9), (7, -9),
                 (40, 49), (40, -49), (12641, 15482), (12641, -15482),
                 (83739041, 102558961)]

#: Orbit pairs: the equator, the cone orbits, small pairs of each kind,
#: steep ones whose angle nears the cone, and the Pell-like pairs in each
#: admissible sign, whose outer root nears a pole.
ORBIT_PAIRS = [pair for pair in (
    [(1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (1, 2), (2, -5), (2, 3),
     (-1, 2), (-1, -2), (-2, 5), (31, 85)]
    + [(s, t * 10 ** k) for k in (3, 9, 11, 12, 17, 150) for s in (1, -1)
       for t in (1, -1)]
    + [(sp * p, s * pp) for p, pp in ((40, 49), (12641, 15482),
                                     (83739041, 102558961),
                                     (121378881, 148658162))
       for sp in (1, -1) for s in (1, -1)]) if classify_pair(*pair)[0]]


def _range_angles(rng, n_uniform=8, seed=7):
    """The range's ends at offsets 10^-k of its width, and uniform
    angles inside, each strictly inside the range."""
    width = rng.hi - rng.lo
    thetas = ([rng.lo + width * d for d in OFFSETS]
              + [rng.hi - width * d for d in OFFSETS]
              + [rng.lo + width * r for r in _draws(n_uniform, seed)])
    return [x for x in thetas if rng.lo < x < rng.hi]


def _relative(got, want, where):
    """Each of got against want on the scale |want|."""
    for x, y in zip(got, want, strict=True):
        yield x, y, abs(y), where


def _angle_gap(got, want):
    """got - want reduced to (-pi, pi]: angles in [0, 2 pi) that agree
    across the wrap."""
    gap = got - want
    return gap - 2 * shadow.mpf(math.pi) * round(float(gap) / math.tau)


# -- at a point --------------------------------------------------------

def _lambda_of_theta():
    for theta in ANGLES:
        yield from _relative([lambda_of_theta(theta)], [shadow.lam(theta)],
                             theta)


#: lambda at 0, near 0 and +-huge on each branch, with seeded draws.
_LAMBDAS = ([0.0, 1e-300, 1e300] + [10.0 ** k for k in range(-15, 16)]
            + [10.0 ** (30 * r - 15) for r in _draws(6, 5)])


def _theta_from_lambda():
    for branch, signs in ((BranchId.A, (-1.0,)), (BranchId.B, (1.0, -1.0)),
                          (BranchId.C, (1.0,))):
        for lam in _LAMBDAS:
            for sign in signs:
                want = shadow.branch_angle(sign * lam, branch.value)
                yield (theta_from_lambda(sign * lam, branch), want, abs(want),
                       (branch, sign * lam))


_FRAME = [Tangent4(v_s=1.0), Tangent4(v_t=1.0), Tangent4(v_theta=1.0),
          Tangent4(v_phi=1.0)]
_MIXED = Tangent4(0.3, -1.7, 0.2, 2.5)


def _contact_eval():
    for theta in ANGLES:
        at_pole = theta in (0.0, math.pi)
        for v in _FRAME + [_MIXED]:
            if not (at_pole and v.v_phi):
                p = Point4(0.3, 0.0, theta, 0.0)
                yield (contact_eval(p, v), *shadow.alpha(theta, v),
                       (theta, v))


def _reeb_vector():
    for theta in ANGLES:
        yield from _relative(reeb_vector(Point4(0.0, 0.0, theta, 0.0)),
                             shadow.reeb(theta), theta)


def _omega_eval():
    """omega on pairs of frame vectors and of mixed ones; e^{-sqrt6 s}
    rounds sqrt6 s."""
    pairs = [(w, v) for i, v in enumerate(_FRAME) for w in _FRAME[i + 1:]]
    pairs.append((_MIXED, Tangent4(-0.6, 0.4, 1.3, -0.9)))
    for s in (0.0, -3.7):
        for theta in INNER_ANGLES[::1 if s == 0.0 else 4]:
            p = Point4(s, 0.0, theta, 0.0)
            for v, w in pairs:
                want, size = shadow.omega(s, theta, v, w)
                yield (omega_eval(p, v, w), want,
                       size * max(1.0, SQRT6_ * abs(s)), (s, theta, v, w))


def _apply_J():
    """J on the frame, each component a single term, on its own scale."""
    for theta in INNER_ANGLES:
        p = Point4(0.0, 0.0, theta, 0.0)
        for v in _FRAME:
            yield from _relative(apply_J(p, v), shadow.apply_J(theta, v),
                                 (theta, v))


def _coord_points():
    """ANGLES at six heights to the ends of fh_rows' range, TestFhRows'
    angles within 1e-10 of each cone angle at s = 0.25, and the 20 seeded
    points of the class this row took over from TestCoordFunctions."""
    cones = (THETA_C, math.pi - THETA_C)
    rnd = random.Random(1)
    return ([(s, theta) for s in (-289.1, -2.0, 0.0, 0.25, 1.0, 289.1)
             for theta in ANGLES]
            + [(0.25, base + k * 1e-11) for base in cones
               for k in range(-10, 11)]
            + [(0.25, math.nextafter(base, toward)) for base in cones
               for toward in (0.0, 4.0)]
            + [(rnd.uniform(-2, 2), rnd.uniform(0.05, math.pi - 0.05))
               for _ in range(20)])


def _coord_functions():
    for s, theta in _coord_points():
        carry = max(1.0, SQRT6_ * abs(s))   # e^{-sqrt6 s} rounds sqrt6 s
        for x, y in zip(coord_functions(Point4(s, 0.0, theta, 0.0)),
                        shadow.coords(s, theta), strict=True):
            yield x, y, abs(y) * carry, (s, theta)


# -- along a profile ---------------------------------------------------

def _profile_cases():
    """(p, p', range, mid, angles) over PROFILE_PAIRS."""
    for p, pp in PROFILE_PAIRS:
        for rng in classify_branches(p, pp):
            yield p, pp, rng, 0.5 * (rng.lo + rng.hi), _range_angles(rng)


def _s_values(p, pp, ref, thetas, anchor=0.0):
    """(s, its scale) at each of thetas, s = anchor at ref: the scale is
    max(|s|, 1), or the sum of the sizes of s's log terms where that is
    larger."""
    for ds, size in shadow.profile_s_sized(p, pp, ref, thetas):
        yield anchor + ds, max(abs(anchor + ds), 1, size)


def _s_of_theta():
    for p, pp, _, mid, thetas in _profile_cases():
        for theta, (s, scale) in zip(thetas, _s_values(p, pp, mid, thetas)):
            yield s_of_theta(p, pp, mid, 0.0, theta), s, scale, (p, pp, theta)


def _profile_ds_dtheta():
    """ds/dtheta at the range ends, and at the cone angles and the
    equator, where 1 - 3 cos^2 or cos in its numerator vanishes."""
    inner = [x for locus in (THETA_C, 0.5 * math.pi, math.pi - THETA_C)
             for x in _around(locus)]
    for p, pp, rng, _, thetas in _profile_cases():
        for theta in thetas + [x for x in inner if rng.lo < x < rng.hi]:
            want, scale = shadow.ds_dtheta(p, pp, theta)
            yield profile_ds_dtheta(p, pp, theta), want, scale, (p, pp, theta)


def _integrate_profile():
    for p, pp in PROFILE_PAIRS:
        for rid, rng in enumerate(classify_branches(p, pp)):
            try:
                rows = integrate_profile(p, pp, rid, s_anchor=0.5,
                                         n_samples=9).samples
            except (BranchError, DomainError):   # the clip's or fh_rows'
                continue
            mid = 0.5 * (rng.lo + rng.hi)
            thetas = [row.theta for row in rows]
            for row, (s, scale) in zip(rows, _s_values(p, pp, mid, thetas,
                                                       0.5)):
                _, f, h = shadow.fh(s, row.theta)
                carry = max(1.0, SQRT6_ * scale)
                where = (p, pp, rid, row.theta)
                yield row.s, s, scale, where
                yield row.f, f, abs(f) * carry, where
                yield row.h, h, abs(h) * carry, where


def _profile_points():
    """Profile points at u exact at angles of each range: the shadow's u
    there, rounded, whose exact crossing is one Newton step away."""
    for p, pp in PROFILE_PAIRS[:6]:
        for rid, rng in enumerate(classify_branches(p, pp)):
            spec = CurveSpec.profile(p, pp, rid, s_anchor=0.5)
            mid = 0.5 * (rng.lo + rng.hi)
            lo, hi = rng.lo + 1e-9, rng.hi - 1e-9
            width = hi - lo
            thetas = ([lo + width * d for d in OFFSETS[::3]]
                      + [hi - width * d for d in OFFSETS[::3]]
                      + [lo + width * r for r in _draws(3, rid)])
            for theta, ds in zip(thetas, shadow.profile_s(p, pp, mid, thetas)):
                e, u, _ = shadow.fh(0.5 + ds, theta)
                if not 1e-300 < abs(u) < 1e300:
                    continue
                _, f_s, f_th, _, _ = shadow.frame(theta)
                slope = e * (f_s * shadow.ds_dtheta(p, pp, theta)[0] + f_th)
                yield spec, float(u), theta, (u - float(u)) / slope


def _eval_invariant_curve():
    # The closed-form families: s and the angle where h/f crosses.
    for example, kappa, sign in ((2, 0.37, 1), (2, 6.5, -1), (3, 0.37, 1),
                                 (3, 6.5, 1), (4, 0.37, 1), (4, -6.5, 1)):
        spec = (CurveSpec.example2(0.2, kappa, sign) if example == 2 else
                CurveSpec.example3(0.2, kappa) if example == 3 else
                CurveSpec.example4(0.2, kappa))
        for k in (-15, -8, -2, 0, 2, 8, 15):
            for su in ((1,) if example == 2 else (1, -1)):
                u = su * abs(kappa) * 10.0 ** k
                pt = eval_invariant_curve(spec, 0.3, u)
                want, s = shadow.static_point(example, kappa, u, sign)
                where = (example, kappa, u, sign)
                yield pt.theta, want, abs(want), where
                yield pt.s, s, max(abs(s), 1), where
    # The orbit cylinders, the poles' among them.
    for p, pp in ORBIT_PAIRS:
        spec = CurveSpec.example1(ReebOrbit.generic(p, pp, upsilon=0.9))
        sign = 1 if (p or pp) > 0 else -1
        for u in (1e-6, 1.0, 1e6):
            pt = eval_invariant_curve(spec, 0.4, sign * u)
            s = shadow.orbit_s(p, pp, sign * u)
            yield pt.s, s, max(abs(s), 1), (p, pp, u)
    for orbit, c in ((ReebOrbit.pole_plus(), 1), (ReebOrbit.pole_minus(), -1)):
        for u in (1e-300, 1.0, 1e300):
            s = shadow.height(c, f=-u)
            pt = eval_invariant_curve(CurveSpec.example1(orbit), 0.4, u)
            yield pt.s, s, max(abs(s), 1), (orbit.kind, u)
    # The profile points: the angle is the midpoint of a bracket
    # narrower than 1e-13, so it is held on the scale 1, and s at it.
    for spec, u, theta, step in _profile_points():
        pt = eval_invariant_curve(spec, 0.3, u)
        where = (spec.p, spec.p_prime, spec.range_id, theta)
        yield (pt.theta - theta) + step, 0, 1.0, where
        rng = spec.theta_range()
        s = 0.5 + shadow.profile_s(spec.p, spec.p_prime,
                                   0.5 * (rng.lo + rng.hi), [pt.theta])[0]
        yield pt.s, s, max(abs(s), 1), where


def _s_max():
    kappas = (1e-300, 1e-8, 0.37, 1.0, 2.0, 6.5, 1e8, 1e300)
    for kappa in kappas:
        for spec, want in (
                (CurveSpec.example2(0.0, kappa, 1), shadow.height(1, f=-kappa)),
                (CurveSpec.example2(0.0, kappa, -1),
                 shadow.height(-1, f=-kappa)),
                (CurveSpec.example3(0.0, kappa), shadow.height(0, f=kappa)),
                (CurveSpec.example4(0.0, kappa),
                 shadow.height(shadow.orbit_cos(0, 1), h=kappa)),
                (CurveSpec.example4(0.0, -kappa),
                 shadow.height(shadow.orbit_cos(0, -1), h=-kappa))):
            yield s_max(spec), want, max(abs(want), 1), (spec.example_id,
                                                        spec.kappa)


# -- orbits --------------------------------------------------------------

def _orbit_point():
    taus = [0.0, 1e-15, -1e-8, 1.0, -2.5, math.tau, 1e3, -1e6]
    for p, pp in ORBIT_PAIRS:
        for upsilon in (0.0, -2.5):
            orbit = ReebOrbit.generic(p, pp, upsilon)
            for tau in taus:
                got = orbit_point(orbit, tau)
                want = shadow.orbit_point(p, pp, orbit.upsilon, tau)
                t_size = abs(orbit.upsilon / pp) if p == 0 else abs(tau)
                phi_size = abs(tau) if p == 0 else abs(
                    tau * pp / p) + abs(orbit.upsilon / p)
                where = (p, pp, upsilon, tau)
                yield _angle_gap(got[0], want[0]), 0, max(t_size, 1), where
                yield got[1], want[1], abs(want[1]), where
                yield _angle_gap(got[2], want[2]), 0, max(phi_size, 1), where


def _classify_branches():
    for p, pp in dict.fromkeys(PROFILE_PAIRS + [
            (p, pp) for p, pp in ORBIT_PAIRS if p > 0]):
        fixed = shadow.fixed_angles(p, pp)
        for rng in classify_branches(p, pp):
            yield from _relative((rng.lo, rng.hi),
                                 (fixed[rng.lo_label], fixed[rng.hi_label]),
                                 (p, pp))


def _steep(p, pp):
    return p != 0 and 2 * pp * pp > 3 * p * p


def _accepted(f, *args):
    """Whether f takes args: an orbit angle that rounds onto pi, or a
    pole distance past the normal floats, is refused."""
    try:
        f(*args)
    except DomainError:
        return False
    return True


def _solve_theta0():
    for p, pp in ORBIT_PAIRS:
        if _accepted(solve_theta0, p, pp):
            want = shadow.orbit_angle(p, pp)
            yield solve_theta0(p, pp), want, want, (p, pp)


def _theta_roots():
    for p, pp in ORBIT_PAIRS:
        if p and _accepted(theta_roots, p, pp):
            want = [shadow.orbit_angle(p, pp)]
            if _steep(p, pp):
                want.append(shadow.orbit_angle(-p, -pp))
            got = [x for x in theta_roots(p, pp) if x is not None]
            yield from _relative(got, want, (p, pp))


def _asymptotic_constants():
    for p, pp in ORBIT_PAIRS:
        if p and _accepted(asymptotic_constants, EndClass(p, pp)):
            yield from _relative(asymptotic_constants(EndClass(p, pp)),
                                 shadow.decay_constants(p, pp), (p, pp))


def _generic_spectrum():
    for zeta in (0.0, 1e-300, 1e-10, 0.5, SQRT6_, 3.8182833799891661, 1e10,
                 1e300):
        for period in (1, 3, 10 ** 6, 10 ** 150):
            got = sorted(ev for ev, mult in generic_spectrum(zeta, period, 4)
                         for _ in range(mult))
            yield from _relative(got, shadow.generic_spectrum(zeta, period, 4),
                                 (zeta, period))


def _polar_spectrum():
    for m in (1, 2, 40, 881):
        n_max = math.isqrt(3 * m * m // 2) + 2      # past 2 n^2 = 3 m^2
        got = [ev for ev, mult in polar_spectrum(m, n_max)]
        yield from _relative(got, shadow.polar_spectrum(m, n_max), m)


# -- model maps ----------------------------------------------------------

_LABELS = [((2, 1), (1, 2)), ((4, 1), (1, 1)), ((1, -1), (1, 4)),
           ((7, 2), (3, 5))]


def _model_points():
    """z at offsets from the punctures 0 and 1, along both axes, far
    out, on the unit circle and at seeded draws."""
    points = [complex(base + d * step)
              for base in (0.0, 1.0) for d in OFFSETS
              for step in (1, -1, 1j, -1j)]
    points += [10.0 ** k * z for k in (2, 8, 15) for z in (1, -1, 1j)]
    points += [complex(math.cos(x), math.sin(x)) for x in (0.5, 2.0, 4.0)]
    rnd = random.Random(3)
    points += [complex(rnd.uniform(-3, 3), rnd.uniform(-3, 3))
               for _ in range(8)]
    return points


def _phi_eval():
    for pairs in _LABELS:
        (p, pp), (q, qp) = pairs
        sizes = (3 + abs(p) + abs(q) + abs(p + q),
                 3 + abs(pp) + abs(qp) + abs(pp + qp))
        a_prime = complex(math.cos(0.3), math.sin(0.3))
        for r in (10.0,):
            params = ModelMapParams(Label2.make(*pairs), r, 1.0, a_prime)
            for z in _model_points():
                try:
                    got = phi_eval(params, z)
                except DomainError:    # a power past the floats
                    continue
                want = shadow.phi(pairs, r, 1.0, a_prime, z)
                where = (pairs, r, z)
                for i, k in ((0, 0), (1, 1)):
                    yield got[i], want[i], abs(want[i]) * sizes[k], where
                    yield got[2 + i], want[2 + i], abs(want[2 + i]) + sizes[k], where
                    yield (_angle_gap(got[4 + i], want[4 + i]), 0,
                           sizes[k], where)


def _immersion_residual():
    for pairs in _LABELS:
        params = ModelMapParams(Label2.make(*pairs))
        for z in _model_points():
            got = immersion_residual(params, z)
            want, sizes = shadow.immersion(pairs, z)
            for x, y, size in zip(got, want, sizes, strict=True):
                yield x, y, size, (pairs, z)


def _phi_double_points():
    for pairs in _LABELS + [((30, 7), (11, 40)), ((60, 1), (1, 60))]:
        label = Label2.make(*pairs)
        points = phi_double_points(ModelMapParams(label))
        d = abs(pairs[0][0] * pairs[1][1] - pairs[0][1] * pairs[1][0])
        for dp in points[:: max(1, len(points) // 40)]:
            z, w, eta = shadow.double_point(dp.a, dp.b, d)
            scale = abs(z) / abs(1 - eta)
            yield dp.z, z, scale, (pairs, dp.a, dp.b)
            yield dp.w, w, scale, (pairs, dp.a, dp.b)


class Row(NamedTuple):
    """One export's cases, and its bound in eps of each case's scale."""

    cases: Callable[[], Iterator[tuple]]
    bound: float


#: Each bound, with the worst error measured on its cases (Python 3.11,
#: mpmath 1.3), is at most 4 times that worst.
ROWS = {
    "apply_J": Row(_apply_J, 8),                            # 5.17
    "asymptotic_constants": Row(_asymptotic_constants, 8),  # 2.54
    "classify_branches": Row(_classify_branches, 3),        # 0.99
    "contact_eval": Row(_contact_eval, 8),                  # 4.07
    "coord_functions": Row(_coord_functions, 8),            # 4.07
    "eval_invariant_curve": Row(_eval_invariant_curve, 512),  # 157.5
    "generic_spectrum": Row(_generic_spectrum, 4),          # 1.12
    "immersion_residual": Row(_immersion_residual, 2),      # 0.83
    "integrate_profile": Row(_integrate_profile, 16),       # 4.75
    "lambda_of_theta": Row(_lambda_of_theta, 8),            # 3.94
    "omega_eval": Row(_omega_eval, 8),                      # 4.52
    "orbit_point": Row(_orbit_point, 8),                    # 2.69
    "phi_double_points": Row(_phi_double_points, 64),       # 30.7
    "phi_eval": Row(_phi_eval, 2),                          # 0.53
    "polar_spectrum": Row(_polar_spectrum, 4),              # 1.39
    "profile_ds_dtheta": Row(_profile_ds_dtheta, 8),        # 3.23
    "reeb_vector": Row(_reeb_vector, 8),                    # 3.25
    "s_max": Row(_s_max, 2),                                # 0.98
    "s_of_theta": Row(_s_of_theta, 64),                     # 25.1
    "solve_theta0": Row(_solve_theta0, 3),                  # 0.99
    "theta_from_lambda": Row(_theta_from_lambda, 3),        # 0.89
    "theta_roots": Row(_theta_roots, 3),                    # 0.99
}


def worst(name):
    """(the worst error of the row in eps of its scales, where, cases).
    No scale is below the smallest normal float, whose eps is the
    spacing of the subnormals, where a value underflows."""
    top, where, count = 0.0, None, 0
    for got, want, scale, at in ROWS[name].cases():
        count += 1
        if scale == 0:
            err = 0.0 if got == want else math.inf
        else:
            err = float(abs(got - want) / max(scale, TINY)) / EPS
        if not err <= top:
            top, where = err, at
    return top, where, count


class TestDigits:
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_row_holds_its_bound(self, name):
        err, where, count = worst(name)
        assert count, name
        assert err <= ROWS[name].bound, (name, err, where)
