import hashlib
import math
import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from sympl_moduli import (CurveSpec, ReebOrbit, TraceSample,
                          classify_branches, classify_pair, coord_functions,
                          eval_invariant_curve, integrate_profile,
                          profile_ds_dtheta, s_max, s_of_theta, solve_theta0,
                          theta_roots)
from sympl_moduli import curves, points
from sympl_moduli.budgets import MAX_TRACE_SAMPLES
from sympl_moduli.curves import profile_log_terms
from sympl_moduli.errors import DomainError
from sympl_moduli.geometry import THETA_C
from sympl_moduli.points import Point4, fh_at

import shadow
from conftest import (boundary_pairs, profile_ode_residual, profile_refusal,
                      trace_outcome)

SQRT6_ = math.sqrt(6.0)

# Pairs covering both regimes (two and three ranges), both signs of p',
# p' = 0, and (4, 5) and (5, -6) on either side of the three-range
# threshold 2 p'^2 = 3 p^2.
CLOSED_FORM_PAIRS = [(1, 0), (1, 1), (1, 2), (1, -2), (2, 5), (4, 5),
                     (12, -19), (5, -6)]

#: The parameter that makes a TestClosedForm identity run over
#: conftest.boundary_pairs: 2 p'^2 - 3 p^2 within 100 of 0, p to 1e12.
NEAR_BOUNDARY = pytest.param(0, 0, id="near-boundary")

# Every admissible coprime pair with 1 <= p <= 40 and |p'| <= 60.
PROPERTY_PAIRS = [(p, pp) for p in range(1, 41) for pp in range(-60, 61)
                  if math.gcd(p, pp) == 1 and classify_pair(p, pp)[0]]


def fh_identity_errors(trace):
    errs = []
    for row in trace.samples:
        f, h, _ = coord_functions(Point4(row.s, row.t, row.theta, row.phi))
        errs.append(abs(row.f - f) / abs(f))
        errs.append(abs(row.h - h) / max(abs(h), 1e-300))
    return errs


class TestClassifyBranches:
    def test_shallow_pair(self):
        ranges = classify_branches(1, 1)
        assert len(ranges) == 2
        th0 = solve_theta0(1, 1)
        assert ranges[0].lo == 0.0 and ranges[0].hi == pytest.approx(th0)
        assert ranges[1].lo == pytest.approx(th0) and ranges[1].hi == math.pi
        assert [r.lo_label for r in ranges] == ["pole0", "theta0"]

    def test_steep_positive(self):
        ranges = classify_branches(1, 2)
        assert [(r.lo_label, r.hi_label) for r in ranges] == [
            ("pole0", "theta0"), ("theta0", "theta0_bar"),
            ("theta0_bar", "polePi")]
        assert ranges[1].hi == pytest.approx(theta_roots(1, 2).theta0_bar)

    def test_steep_negative_mirrored(self):
        ranges = classify_branches(1, -2)
        assert [(r.lo_label, r.hi_label) for r in ranges] == [
            ("pole0", "theta0_bar"), ("theta0_bar", "theta0"),
            ("theta0", "polePi")]

    def test_companion_angle_rounded_onto_a_pole(self):
        # 2 p'^2 - 3 p^2 = 5: the float companion cosine rounds onto -1,
        # but its angle, pi - 7.5208382352e-9 from the pole distance,
        # leaves range 2 non-empty.
        p, pp = 121378881, 148658162
        assert 2 * pp * pp - 3 * p * p == 5
        thb = theta_roots(p, pp).theta0_bar
        assert math.pi - thb == pytest.approx(7.5208382352386064e-9,
                                              rel=1e-7)
        ranges = classify_branches(p, pp)
        assert ranges[1].hi == ranges[2].lo == thb < ranges[2].hi == math.pi

    def test_needs_positive_p(self):
        with pytest.raises(DomainError,
                           match=r"^\(-1, 2\): profile families need p > 0$"):
            classify_branches(-1, 2)
        # An int past Python's digit limit is named by its size, where
        # the message's f-string raised a bare ValueError.
        with pytest.raises(DomainError, match=r"^\(-<16610-bit int>, 1\)"):
            classify_branches(-10**5000, 1)


def _digest(vals):
    return hashlib.sha256("\n".join(map(repr, vals)).encode()).hexdigest()


def _pinned_curve_values():
    """TestPinnedCurves' inputs over every range of CLOSED_FORM_PAIRS:
    s_of_theta at seven angles, and the (spec, u) of five curve points,
    u taken from s_of_theta at five more angles."""
    s_vals, calls = [], []
    for p, pp in CLOSED_FORM_PAIRS:
        for rid, rng in enumerate(classify_branches(p, pp)):
            mid = 0.5 * (rng.lo + rng.hi)
            spec = CurveSpec.profile(p, pp, rid, phi0=0.3, s_anchor=0.2)
            for frac in (1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-6):
                theta = rng.lo + (rng.hi - rng.lo) * frac
                s_vals.append(s_of_theta(p, pp, mid, 0.2, theta))
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                theta = rng.lo + (rng.hi - rng.lo) * frac
                s = s_of_theta(p, pp, mid, 0.2, theta)
                g = 1.0 - 3.0 * math.cos(theta) ** 2
                calls.append((spec, math.exp(-SQRT6_ * s) * g))
    return s_vals, calls


class TestPinnedCurves:
    """The values of _pinned_curve_values, and eval_invariant_curve at
    its points, keep their bits.

    The s_of_theta digest was recorded at the commit before profile
    points were found by Newton iteration instead of bisection, before
    any of that code changed.  The points' digest was re-recorded in the
    commit after 6600161, when every converging Newton step was taken
    and the first probe came from the curve's record: 33 of the 105
    points moved, by at most 4.1e-14 in theta, and every point stays
    within 1e-13 of the bisection's (TestProfilePoint).  Both were
    re-recorded when companion angles came from the pole distance: the
    values of pairs without one kept their bits.  Both were re-recorded
    when a pole of ds/dx and its nearby root became one term: 79 of the
    147 values moved, by at most 8.4e-12 of max(1, |s|), and their
    worst error against the 50-digit oracle went from 8.4e-12 to
    6.9e-16; 86 of the 105 points moved, by at most 6.7e-14 in theta,
    each within 2e-14 of the exact crossing of u (4.6e-14 before).  The
    points' digest was re-recorded when every 1 - 3 cos^2 theta at an
    angle came from geometry._cone_factor, which also takes 3 cos^2 as
    (3 cos) cos far from the cone: 27 of the 105 points moved, by at most
    4.4e-14 in theta, 12 closer to the exact crossing of u and 15
    farther, and the worst error went from 2.0e-14 to 2.3e-14, inside
    the 1e-13 bracket that ends the search.  The points' digest was
    re-recorded when ds/dtheta, which Newton's steps read, took its
    denominator from the log terms' root gaps where the expanded form
    cancels: 2 of the 105 points moved, by at most 1.1e-16 in theta and
    8.9e-16 in s, both closer to the exact crossing of u, and the worst
    error stayed 2.3e-14.
    """

    def test_values_keep_their_bits(self):
        s_vals, _ = _pinned_curve_values()
        assert len(s_vals) == 147
        assert _digest(s_vals) == ("609e52adc3ce47347d0bf9b835739a85"
                                   "d854b6f99102473b981e99de5577e1ad")

    def test_points_keep_their_bits(self):
        vals = []
        for spec, u in _pinned_curve_values()[1]:
            vals.extend(eval_invariant_curve(spec, 0.5, u))
        assert len(vals) == 420
        assert _digest(vals) == ("57e1e499176c6b40cc1ba4f937260894"
                                 "537038ef64fe803a06374fe738b0daaa")


def _profile_domain_values():
    """The values the profile workload computes, over its whole domain:
    every range of every admissible coprime pair with 1 <= p <= 12 and
    |p'| <= 20.  Per range: s_of_theta at five fractions of the range;
    a 50-sample trace at the default clip (1e-4, the workload's) and
    its two end rows at clip 1e-9, where s overflows for some ranges; a
    trace that raises DomainError contributes the string "DomainError".
    Returns those values and the (spec, u) of the curve points at three
    rows of each 50-sample trace."""
    vals, calls = [], []
    for p in range(1, 13):
        for pp in range(-20, 21):
            if math.gcd(p, pp) != 1 or not classify_pair(p, pp)[0]:
                continue
            for rid, rng in enumerate(classify_branches(p, pp)):
                mid = 0.5 * (rng.lo + rng.hi)
                for frac in (1e-5, 0.1, 0.5, 0.9, 1 - 1e-5):
                    theta = rng.lo + (rng.hi - rng.lo) * frac
                    vals.append(s_of_theta(p, pp, mid, 0.2, theta))
                for n_samples, clip in ((50, 1e-4), (2, 1e-9)):
                    try:
                        tr = integrate_profile(p, pp, rid, s_anchor=0.1,
                                               n_samples=n_samples, clip=clip)
                    except DomainError:
                        vals.append("DomainError")
                        continue
                    for row in tr.samples:
                        vals.extend(row)
                    if n_samples == 50:
                        calls += [(tr.spec, tr.samples[i].f)
                                  for i in (3, 25, 46)]
    return vals, calls


@pytest.fixture(scope="module")
def profile_domain():
    return _profile_domain_values()


class TestPinnedDomain:
    """Every value of _profile_domain_values, and eval_invariant_curve
    at its points at the workload's clip, keep their bits, and the same
    calls raise DomainError.

    The values' digest was recorded at the commit before profile points
    were found by Newton iteration instead of bisection, before any of
    that code changed.  The points' digest was re-recorded in the commit
    after 6600161, when every converging Newton step was taken and the
    first probe came from the curve's record: 1,187 of the 2,412 points
    moved, by at most 6.5e-14 in theta, and every point stays within
    1e-13 of the bisection's (TestProfilePoint).  Both were re-recorded
    when companion angles came from the pole distance, within 4 ulp of
    mpmath: every value of a pair without one kept its bits, no value
    changed kind, and trace rows moved by at most 5.6e-15 in theta.
    Both were re-recorded when a pole of ds/dx and its nearby root
    became one term, f took 1 - 3 cos^2 theta near the cone from the
    cone angle and companion angles moved by up to an ulp: 94,798 of
    the 254,764 values moved, and the worst error of s against the
    50-digit oracle, as a share of max(1, |s|), went from 1.0e-11 to
    4.5e-15, of f and h from 7.6e-12 to 2.8e-13 relative; 2,048 of the
    2,412 points moved, by at most 6.6e-14 in theta, each within 4.7e-14
    of the exact crossing of u (4.2e-13 before).  No value changed kind.
    The points' digest was re-recorded when every 1 - 3 cos^2 theta at
    an angle came from geometry._cone_factor: 574 of the 2,412 points
    moved, by at most 6.7e-14 in theta, 268 closer to the exact crossing
    of u and 306 farther, and the worst error went from 4.66e-14 to
    4.71e-14, inside the 1e-13 bracket that ends the search.  The
    points' digest was re-recorded when ds/dtheta, which Newton's steps
    read, took its denominator from the log terms' root gaps where the
    expanded form cancels: 26 of the 2,412 points moved, by at most
    4.0e-14 in theta, 11 closer to the exact crossing of u and 15
    farther, and the worst error stayed 4.71e-14.
    """

    def test_profile_domain_keeps_its_bits(self, profile_domain):
        vals, _ = profile_domain
        assert len(vals) == 254764
        assert vals.count("DomainError") == 20
        assert _digest(vals) == ("5e284b914fb0761215afa748911e10ab"
                                 "5ac0ed2e45702df5165d6d0a1d4968c5")

    def test_points_keep_their_bits(self, profile_domain):
        vals = []
        for spec, u in profile_domain[1]:
            try:
                vals.extend(eval_invariant_curve(spec, 0.3, u, clip=1e-4))
            except DomainError:
                vals.append("DomainError")
        assert len(vals) == 9648
        assert vals.count("DomainError") == 0
        assert _digest(vals) == ("30d43f4c949ad38add8ce4bce9a4703c"
                                 "3c060bd8432019d4db0888435e5b76f8")


def _bisect_reference(spec, tau, u, clip):
    """eval_invariant_curve on a profile family as it was by bisection,
    the reference for _profile_point's bracketed Newton iteration: the
    same u_of decisions (curves._u_of's), halving [lo, hi] until it is
    narrower than 1e-13, and the same fh_at check of the point."""
    lo, hi = curves._point_start(spec, clip)[:2]
    terms, base = curves._anchored(spec)

    def u_of(theta):
        return curves._u_of(terms, base, theta)

    u_lo, u_hi = u_of(lo), u_of(hi)
    sign = 1.0 if u_hi > u_lo else -1.0
    if not min(u_lo, u_hi) <= u <= max(u_lo, u_hi):
        raise DomainError(f"u = {u} outside the clipped range's")
    a, b = lo, hi
    while b - a >= 1e-13:
        mid = 0.5 * (a + b)
        if sign * (u_of(mid) - u) < 0.0:
            a = mid
        else:
            b = mid
    theta = 0.5 * (a + b)
    log_sum, = curves._log_sums(terms, (theta,))
    pt = Point4(s=base + log_sum, t=tau, theta=theta,
                phi=spec.phi0 + tau * spec.p_prime / spec.p)
    fh_at(pt.s, pt.theta)
    return pt


def _log_u_slope(p, pp, theta):
    """d log|u| / dtheta along a profile, u = e^{-sqrt6 s}(1 - 3 cos^2)."""
    c, sn = math.cos(theta), math.sin(theta)
    return (-SQRT6_ * profile_ds_dtheta(p, pp, theta)
            + 6.0 * c * sn / (1.0 - 3.0 * c * c))


def _profile_point_calls(profile_domain):
    """(spec, u, clip) of every profile point of the pinned tests: the
    points of _profile_domain_values at the workload's clip and at the
    default clip, and TestPinnedCurves' points at the default clip."""
    domain = profile_domain[1]
    return ([(spec, u, 1e-4) for spec, u in domain]
            + [(spec, u, 1e-9) for spec, u in domain]
            + [(spec, u, 1e-9) for spec, u in _pinned_curve_values()[1]])


# u near the float limits on ranges where e^{-sqrt6 s} overflows or
# underflows inside the clipped range: some are out of the range's
# reach, some are refused by fh_at at the point found, some are found.
LIMIT_CALLS = [(CurveSpec.profile(p, pp, rid, s_anchor=0.1), u, clip)
               for p, pp, rid in ((4, -5, 0), (4, 5, 2), (5, 6, 1),
                                  (9, -11, 0), (1, 2, 1))
               for u in (1e308, -1e308, 3e-308, -3e-308)
               for clip in (1e-9, 1e-4)]


class TestProfilePoint:
    def test_matches_the_bisection(self, profile_domain):
        """Every pinned profile point, and LIMIT_CALLS, is within 1e-13
        in theta of the bisection's, and the same calls raise
        DomainError."""
        refused = 0
        for spec, u, clip in (_profile_point_calls(profile_domain)
                              + LIMIT_CALLS):
            try:
                want = _bisect_reference(spec, 0.3, u, clip)
            except DomainError:
                refused += 1
                with pytest.raises(DomainError):
                    eval_invariant_curve(spec, 0.3, u, clip=clip)
                continue
            got = eval_invariant_curve(spec, 0.3, u, clip=clip)
            assert abs(got.theta - want.theta) < 1e-13, (spec, u, clip)
            assert (got.t, got.phi) == (want.t, want.phi)
        assert refused == 28         # 20 out of reach, 8 by fh_at

    def test_evaluations_of_s_per_point(self, profile_domain, monkeypatch):
        """s is evaluated at few angles per profile point, where a
        bisection to 1e-13 takes 47-48: the clip ends, the anchor, the
        clipped range's midpoint (the first probe) and the point itself,
        and the Newton probes between.  The first four are the curve's
        _point_start record, so each point is counted cold, with the
        record cache cleared, and a second evaluation of it takes
        exactly 4 fewer.  The counts repeat exactly, so their totals are
        pinned: a counter that misses a call site, or a step that costs
        an evaluation more, fails.  They are the same with ds/dtheta's
        denominator factored over the root gaps, which Newton's slope
        reads (the slope evaluates no s).  Means: 11.87 cold, 7.87
        warm."""
        angles = []
        calls = _profile_point_calls(profile_domain)
        _count_evaluations_of_s(monkeypatch, angles)
        cold, warm = [], []
        for spec, u, clip in calls:
            curves._point_start.cache_clear()
            angles.append(0)
            try:
                eval_invariant_curve(spec, 0.3, u, clip=clip)
            except DomainError:
                continue
            cold.append(angles[-1])
            angles.append(0)
            eval_invariant_curve(spec, 0.3, u, clip=clip)
            warm.append(angles[-1])
        assert len(cold) == 4929
        assert (sum(cold), sum(warm), max(cold)) == (58493, 38777, 19)
        assert [c - w for c, w in zip(cold, warm)] == [4] * len(cold)

    def test_u_zero_is_the_cone_angle(self):
        """u = 0 is reached where 1 - 3 cos^2 theta = 0, where log|u| has
        no value: the point is the cone angle, THETA_C or pi - THETA_C,
        in closed form, within 1e-13 of the bisection's, which takes
        48-49 evaluations of s.  A cold point evaluates s at the 4
        angles of its _point_start record and at the point itself.  On
        (4, 5) range 2 at clip 1e-9 no cone angle lies on the clipped
        range, u_of reaches 0 only where e^{-sqrt6 s} underflows, and
        both refuse the point, this one from the record alone."""
        points, refused = [], []
        for p, pp in CLOSED_FORM_PAIRS:
            for rid in range(len(classify_branches(p, pp))):
                spec = CurveSpec.profile(p, pp, rid, s_anchor=0.1)
                for clip in (1e-4, 1e-9):
                    u_min, u_max = curves._point_start(spec, clip)[5:7]
                    if not u_min <= 0.0 <= u_max:
                        continue
                    got, n = _cold_evaluations(spec, 0.0, clip)
                    want = _reference_outcome(spec, 0.0, clip)
                    if isinstance(want, Point4):
                        assert got.theta in (THETA_C, math.pi - THETA_C)
                        assert abs(got.theta - want.theta) < 1e-13
                        points.append(n)
                    else:
                        assert got[0] == want[0] == "point"
                        refused.append(n)
        assert points == [5] * 32 and refused == [4]

    @pytest.mark.parametrize("p,pp,rid", [(4, -5, 0), (4, 5, 2),
                                          (29, -37, 0)])
    def test_subnormal_u_takes_no_step(self, p, pp, rid):
        """A subnormal u is reached only where e^{-sqrt6 s} underflows,
        and there u_of is u across spans far wider than 4e-14.  A probe
        where u_of is not a normal float takes no Newton step, so these
        points are refused as the bisection's are, in its 45 evaluations
        of s; a 4e-14 step from each such hit took 45-52."""
        spec = CurveSpec.profile(p, pp, rid, s_anchor=0.1)
        for u in (-1e-320, -1e-323, -5e-324):
            got, n = _cold_evaluations(spec, u, 1e-9)
            want = _reference_outcome(spec, u, 1e-9)
            assert got[0] == want[0] == "point"
            assert n <= 45

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(st.data(), st.sampled_from(PROPERTY_PAIRS),
           st.floats(-5.0, 5.0), st.sampled_from([1e-4, 1e-9]),
           st.floats(0.0, 1.0))
    def test_generated_points_match_the_bisection(self, data, pair, s_anchor,
                                                  clip, frac):
        """A profile point at the u of an angle on the range, on either
        side of either clip, is within 1e-13 in theta of the
        bisection's, or both refuse it with the same error type, and it
        takes at most 48 evaluations of s cold, as a bisection does.
        The angle is drawn up to the range's ends, where s diverges."""
        p, pp = pair
        rid = data.draw(st.integers(0, len(classify_branches(p, pp)) - 1))
        spec = CurveSpec.profile(p, pp, rid, s_anchor=s_anchor)
        rng = spec.theta_range()
        theta = rng.lo + (rng.hi - rng.lo) * frac
        try:
            s = s_of_theta(p, pp, spec.anchor_angle(), s_anchor, theta)
            u = math.exp(-SQRT6_ * s) * (1.0 - 3.0 * math.cos(theta) ** 2)
        except OverflowError:                  # no float u
            reject()
        except DomainError as exc:             # a fixed angle
            assert "fixed-angle-free range" in str(exc), exc
            reject()
        got, n = _cold_evaluations(spec, u, clip)
        want = _reference_outcome(spec, u, clip)
        if isinstance(want, Point4):
            assert abs(got.theta - want.theta) < 1e-13
            assert (got.t, got.phi) == (want.t, want.phi)
        else:
            assert got[0] == want[0]
        assert n <= 48

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(st.data(), st.sampled_from(PROPERTY_PAIRS),
           st.floats(-5.0, 5.0), st.sampled_from([1e-4, 1e-9]),
           st.floats(0.05, 0.95))
    def test_point_solves_for_u(self, data, pair, s_anchor, clip, frac):
        """A profile point is refused with DomainError, or lies on the
        clipped range with f = u to the float accuracy of its angle."""
        p, pp = pair
        rid = data.draw(st.integers(0, len(classify_branches(p, pp)) - 1))
        spec = CurveSpec.profile(p, pp, rid, s_anchor=s_anchor)
        lo, hi = curves._point_start(spec, clip)[:2]
        theta = lo + (hi - lo) * frac
        s = s_of_theta(p, pp, spec.anchor_angle(), s_anchor, theta)
        try:
            u = math.exp(-SQRT6_ * s) * (1.0 - 3.0 * math.cos(theta) ** 2)
        except OverflowError:           # no float u at s < -289.77
            reject()
        try:
            pt = eval_invariant_curve(spec, 0.0, u, clip=clip)
        except DomainError:
            return
        assert lo <= pt.theta <= hi
        f = coord_functions(pt)[0]
        slope = _log_u_slope(p, pp, pt.theta)
        assert abs(f - u) <= abs(u) * (1e-13 * abs(slope) + 1e-11)


def _outcome(spec, u, clip):
    """eval_invariant_curve's point at (0.3, u), or the rule that refuses
    it (profile_refusal) and its message."""
    try:
        return eval_invariant_curve(spec, 0.3, u, clip=clip)
    except DomainError as exc:
        return profile_refusal(exc), str(exc)


def _cold_outcome(spec, u, clip):
    curves._point_start.cache_clear()
    return _outcome(spec, u, clip)


def _reference_outcome(spec, u, clip):
    """_bisect_reference's point at (0.3, u), or the rule that refuses it
    (profile_refusal) and its message."""
    try:
        return _bisect_reference(spec, 0.3, u, clip)
    except DomainError as exc:
        return profile_refusal(exc), str(exc)


def _count_evaluations_of_s(patch, angles):
    """Add the number of angles at which s is evaluated to angles[-1]
    from here on: _log_sums, under each name a point's code calls it by,
    points' for the point itself and curves' for its record and probes
    (_point_start, _u_of)."""
    log_sums = curves._log_sums

    def counted(terms, thetas):
        angles[-1] += len(thetas)
        return log_sums(terms, thetas)

    for module in (curves, points):
        patch.setattr(module, "_log_sums", counted)


def _cold_evaluations(spec, u, clip):
    """_cold_outcome, and the number of angles at which s was evaluated
    for it."""
    angles = [0]
    with pytest.MonkeyPatch.context() as patch:
        _count_evaluations_of_s(patch, angles)
        outcome = _cold_outcome(spec, u, clip)
    return outcome, angles[0]


class TestPointStart:
    """A profile point read from a cached _point_start record is the
    point, or the error, that a cold record gives."""

    def test_warm_points_keep_their_bits(self, profile_domain):
        calls = _profile_point_calls(profile_domain) + LIMIT_CALLS
        cold = [_cold_outcome(*call) for call in calls]
        curves._point_start.cache_clear()
        forward = [_outcome(*call) for call in calls]
        again = [_outcome(*call) for call in calls]
        backward = [_outcome(*call) for call in reversed(calls)][::-1]
        assert forward == cold and again == cold and backward == cold
        assert sum(isinstance(x, Point4) for x in cold) == 4929 + 12

    def test_clips_and_anchors_keep_their_own_records(self):
        # One pair and range at two clips and two anchors: the u of one
        # curve is inside or outside the reach of another, and each
        # (spec, clip) gives the point or error it gives alone.
        specs = [CurveSpec.profile(3, 7, 0, s_anchor=a) for a in (0.1, 2.0)]
        us = [row.f for spec in specs
              for row in integrate_profile(3, 7, 0, s_anchor=spec.s_anchor,
                                           n_samples=9).samples]
        calls = [(spec, u, clip) for u in us for spec in specs
                 for clip in (1e-4, 1e-9)]
        alone = [_cold_outcome(*call) for call in calls]
        curves._point_start.cache_clear()
        assert [_outcome(*call) for call in calls] == alone
        assert curves._point_start.cache_info().currsize == 4
        refused = [x for x in alone if not isinstance(x, Point4)]
        assert 0 < len(refused) < len(alone)

    def test_trace_builds_the_record_its_points_read(self):
        curves._point_start.cache_clear()
        trace = integrate_profile(1, 2, 1, n_samples=9, clip=1e-4)
        info = curves._point_start.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
        eval_invariant_curve(trace.spec, 0.3, trace.samples[4].f, clip=1e-4)
        info = curves._point_start.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_warm_record_raises_as_cold(self):
        spec = CurveSpec.profile(1, 2, 1)
        cold = _cold_outcome(spec, 1e12, 1e-9)
        assert cold[0] == "point" and "reachable" in cold[1]
        eval_invariant_curve(spec, 0.0, 0.1)
        assert _outcome(spec, 1e12, 1e-9) == cold
        hits = curves._point_start.cache_info().hits
        assert _outcome(spec, 1e12, 1e-9) == cold
        assert curves._point_start.cache_info().hits == hits + 1
        # A refused clip builds no record, so it is refused every time.
        size = curves._point_start.cache_info().currsize
        for _ in range(2):
            with pytest.raises(DomainError, match="clip 2.0 leaves no"):
                eval_invariant_curve(spec, 0.0, 0.1, clip=2.0)
        assert curves._point_start.cache_info().currsize == size

    @pytest.mark.parametrize("clip,end", [(1e-300, 0), (1.5e-16, 1)])
    def test_clip_below_half_an_ulp_names_the_end_it_rounds_onto(self, clip,
                                                                 end):
        # (1, 2)'s range 1 is [1.15..., 2.52...], with ulps 2.2e-16 and
        # 4.4e-16 at its ends.  1e-300 moves neither end, and the lower
        # one is named; 1.5e-16 moves the lower end and not the upper.
        # The range has angles, so neither is a clip wider than it.
        rng = classify_branches(1, 2)[1]
        want = (f"clip {clip} rounds onto the end {rng[end]} of "
                f"[{rng.lo}, {rng.hi}]")
        for call in (lambda: integrate_profile(1, 2, 1, clip=clip),
                     lambda: eval_invariant_curve(CurveSpec.profile(1, 2, 1),
                                                  0.0, 0.1, clip=clip)):
            with pytest.raises(DomainError) as exc:
                call()
            assert str(exc.value) == want


def _log_sum_by_term(terms, theta):
    """profile_log_terms' record summed one term at a time, as its
    docstring and _log_sums' state the terms."""
    half = 0.5 * theta
    sh, ch = math.sin(half), math.cos(half)
    gap_zero = math.log(2.0) + 2.0 * math.log(sh)
    gap_pi = math.log(2.0) + 2.0 * math.log(ch)
    at_zero, at_pi = terms.at_zero, terms.at_pi
    residue, half_angle, offset = terms.inner
    inner = residue * math.log(abs(
        offset - 2.0 * math.sin(half + half_angle)
        * math.sin(half - half_angle)))
    if terms.outer is None:
        return at_zero * gap_zero + at_pi * gap_pi + inner
    residue, g, zero, half_root, offset, pair = terms.outer
    if pair is not None:
        at_zero, at_pi = (pair, at_pi) if zero else (at_zero, pair)
    w = sh if zero else ch
    u = 2.0 * w * w
    if g < 0.0:
        gap = u - g
    else:
        w_root = math.sin(half_root) if zero else math.cos(half_root)
        quarter = 0.25 * (theta + 2.0 * half_root)
        dw = 2.0 * math.sin(0.25 * (theta - 2.0 * half_root)) * (
            math.cos(quarter) if zero else -math.sin(quarter))
        gap = abs(2.0 * dw * (w + w_root) + offset)
    if pair is None:
        outer = residue * math.log(gap)
    elif u >= 2.0 * abs(g):
        outer = residue * math.log1p(-g / u)
    else:
        outer = residue * math.log(gap / u)
    return at_zero * gap_zero + at_pi * gap_pi + inner + outer


class TestLogTermKinds:
    # (196658561, +-240856564): 2 p'^2 - 3 p^2 = 29, the companion root
    # is within 6.3e-17 of x = -1 (of 1 for p' < 0) while it and its
    # pole stay apart in floats.
    ROUNDED = [(196658561, 240856564), (196658561, -240856564)]

    @pytest.mark.parametrize("p,pp", CLOSED_FORM_PAIRS)
    def test_kinds_decided_once_keep_the_bits(self, p, pp):
        """_log_sums over the record gives the bits of adding its terms
        one by one, one angle per call or all of them in one.  The inner
        term sits at theta0; the outer root's g is positive exactly
        where the pair has a companion angle, whose angle it carries,
        and its pole is x = -sign(p')."""
        terms = profile_log_terms(p, pp)
        ranges = classify_branches(p, pp)
        assert 2.0 * terms.inner[1] == solve_theta0(p, pp)
        assert (terms.outer is None) == (pp == 0)
        if terms.outer is not None:
            _, g, zero, half_root, _, pair = terms.outer
            assert zero == (pp < 0)
            assert (g > 0.0) == (2 * pp * pp > 3 * p * p)
            assert (pair is not None) == (abs(g) < 0.125)
            if g > 0.0:
                assert 2.0 * half_root == theta_roots(p, pp).theta0_bar
        for rng in ranges:
            thetas = [rng.lo + (rng.hi - rng.lo) * frac
                      for frac in (1e-9, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-9)]
            thetas = [theta for theta in thetas if rng.lo < theta < rng.hi]
            expected = [repr(_log_sum_by_term(terms, theta))
                        for theta in thetas]
            assert [repr(curves._log_sums(terms, (theta,))[0])
                     for theta in thetas] == expected
            assert list(map(repr, curves._log_sums(terms, thetas))) == expected

    def test_rounded_companion_traced(self):
        """The angle, from the pole distance, is 1.1e-8 from the pole,
        and the companion root within 2^-52 of x = -1 (of 1): as two
        float residues of order 1e16 they left s no digit (ROADMAP
        defect 10), and the pair was refused.  As one term from the
        exact 2 p'^2 - 3 p^2 they give s to twelve digits, the range
        1.1e-8 wide is refused by the clip, and the two beside it are
        traced or refused by fh_rows where s leaves its band."""
        for p, pp in self.ROUNDED:
            thb = theta_roots(p, pp).theta0_bar
            assert min(thb, math.pi - thb) == pytest.approx(1.1179194e-8,
                                                            rel=1e-7)
            want, = shadow.profile_s(p, pp, 0.3, [0.4])
            got = s_of_theta(p, pp, 0.3, 0.0, 0.4)
            assert abs(got - want) <= 1e-12 * abs(want)
            thin = 2 if pp > 0 else 0
            with pytest.raises(DomainError, match="leaves no angles"):
                integrate_profile(p, pp, thin)
            outcomes = {rid: trace_outcome(p, pp, rid, 50)
                        for rid in {0, 1, 2} - {thin}}
            assert outcomes == ({0: "traced", 1: "refused"} if pp > 0
                                else {1: "refused", 2: "traced"})

    @pytest.mark.parametrize("p,pp", [(129, 158), (1277, 1564)])
    def test_companion_next_to_pi(self, p, pp):
        """theta0_bar lies 7.1e-3 and 7.1e-4 from pi (D = 5), and the
        range between them is traced: on its middle hundredth, where |s|
        reaches 218 and 2.1e4, s_of_theta is within 1e-12 of max(1, |s|)
        of the oracle (worst 1.8e-13).  u - g from sines of quarter
        angles holds this; the half-angle form of the inner term, whose
        sin(half + half_root) rounds an angle near pi, was 5.3e-12 and
        3.1e-10 off."""
        rng = classify_branches(p, pp)[2]
        mid = 0.5 * (rng.lo + rng.hi)
        thetas = [mid + (rng.hi - rng.lo) * 1e-2 * (k / 20.0 - 0.5)
                  for k in range(21)]
        exact = shadow.profile_s(p, pp, mid, thetas)
        for theta, want in zip(thetas, exact):
            got = s_of_theta(p, pp, mid, 0.0, theta)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), theta

    @pytest.mark.parametrize("p,pp", CLOSED_FORM_PAIRS)
    def test_sign_flip_keeps_the_record(self, p, pp):
        # s depends on p'/p only.
        assert profile_log_terms(-p, -pp) == profile_log_terms(p, pp)

    def test_one_record_per_pair(self):
        assert profile_log_terms(2, 5) is profile_log_terms(2, 5)


class TestMergedPoles:
    """Pairs whose root of the quadratic rounds onto the pole x = +-1 it
    approaches (or 2 p'/p onto +-sqrt6), where the two residues have no
    float value and were refused with DomainError.  Their summed
    residue and the root's, from the pole distance, give s to twelve
    digits of the exact value: range 0 is traced, or refused by fh_rows
    where s leaves its band, and s_of_theta agrees with the oracle."""

    @pytest.mark.parametrize("p,pp,x", [
        (121378881, 148658162, -1.0), (83739041, 102558961, -1.0),
        (83739041, -102558961, 1.0)])
    def test_traced_to_twelve_digits(self, p, pp, x):
        terms = profile_log_terms(p, pp)
        assert terms.outer[2] == (x == 1.0)       # paired with that pole
        want = "traced" if pp > 0 else "refused"
        assert trace_outcome(p, pp, 0, 6) == want
        # Range 0 runs from the pole 0 to a fixed angle no nearer than
        # acos(1 - 2**-53) = 1.5e-8.
        exact, = shadow.profile_s(p, pp, 1e-9, [2e-9])
        got = s_of_theta(p, pp, 1e-9, 0.0, 2e-9)
        assert abs(got - exact) <= 1e-12 * abs(exact)


class TestSOfTheta:
    def test_fixed_point(self):
        assert s_of_theta(1, 0, 1.0, 0.7, 1.0) == 0.7

    def test_local_sign(self):
        theta_ref = math.pi / 2 - 0.3
        for delta in (1e-3, -1e-3):
            got = s_of_theta(1, 0, theta_ref, 0.0, theta_ref + delta)
            slope = profile_ds_dtheta(1, 0, theta_ref)
            assert math.copysign(1, got) == math.copysign(1, slope * delta)

    def test_derivative_matches_integrand(self):
        # Central finite differences of s reproduce the integrand.
        for p, pp, theta in [(1, 0, 1.2), (1, 2, 0.7), (1, 2, 1.8),
                             (1, -2, 2.5), (2, 5, 1.0)]:
            step = 1e-5
            num = (s_of_theta(p, pp, theta, 0.0, theta + step)
                   - s_of_theta(p, pp, theta, 0.0, theta - step)) / (2 * step)
            want = profile_ds_dtheta(p, pp, theta)
            assert abs(num - want) / abs(want) < 1e-6

    def test_branch_crossing_rejected(self):
        th0 = solve_theta0(1, 2)
        with pytest.raises(DomainError, match="fixed-angle-free range"):
            s_of_theta(1, 2, th0 - 0.2, 0.0, th0 + 0.2)
        with pytest.raises(DomainError, match="fixed-angle-free range"):
            s_of_theta(1, 2, th0, 0.0, th0 + 0.1)

    @pytest.mark.parametrize("p,pp,theta", [
        (1, 0, 0.0), (1, 0, math.pi / 2), (1, 0, math.pi),
        (1, 2, solve_theta0(1, 2)), (1, 2, theta_roots(1, 2).theta0_bar)],
        ids=["pole0", "theta0-p'=0", "polePi", "theta0", "theta0_bar"])
    def test_equal_fixed_angles_rejected(self, p, pp, theta):
        # s diverges at a fixed angle, also when both angles sit on it.
        with pytest.raises(DomainError, match="fixed-angle-free range"):
            s_of_theta(p, pp, theta, 0.7, theta)

    @pytest.mark.parametrize("theta_ref,theta", [(0.5, math.nan),
                                                 (math.nan, 0.5)],
                             ids=["theta", "theta_ref"])
    def test_nan_angle_rejected(self, theta_ref, theta):
        # Each angle is tested against the range, so a nan in either
        # place is refused, not returned as an s of nan.
        with pytest.raises(DomainError, match="fixed-angle-free range"):
            s_of_theta(1, 2, theta_ref, 0.0, theta)

    @pytest.mark.parametrize("p,pp,why", [
        (10**400, 1, r"2 \(p'/p\)\^2 underflows"),
        (1, 10**400, r"p'/p is past the float range")],
        ids=["underflow", "overflow"])
    def test_slope_ratio_past_the_floats(self, p, pp, why):
        # Where p'/p rounds to 0 with p' != 0 the outer root is past the
        # float range, and s was nan; where p'/p overflows,
        # profile_log_terms raised OverflowError.
        with pytest.raises(DomainError, match=why):
            profile_log_terms(p, pp)
        with pytest.raises(DomainError, match=why):
            s_of_theta(p, pp, 1.0, 0.0, 1.2)

    @pytest.mark.parametrize("p,pp,why", [
        (-1, -2, "profile families need p > 0"), (2, 4, r"\(a\) gcd"),
        (0, 1, "profile families need p > 0")],
        ids=["negative-p", "not-coprime", "zero-p"])
    def test_domain_is_that_of_classify_branches(self, p, pp, why):
        # s depends on p'/p only, but the profile families are labelled
        # by p > 0 coprime to p'; s_of_theta refuses what
        # classify_branches and integrate_profile refuse.
        with pytest.raises(DomainError, match=why):
            s_of_theta(p, pp, 0.5, 0.0, 0.6)

    def test_angle_whose_half_rounds_to_zero(self):
        """At theta = 5e-324, the one positive float whose half rounds to
        0, s is still taken from the log terms: log(1 - cos theta) steps
        by 2 log(1/2) from theta = 1e-323, so s steps by the pole
        residue times that.  Pinned at its bits, within 1e-15 of the
        exact value; it was a bare ValueError ('math domain error')."""
        rng = classify_branches(1, -60)[0]
        mid = 0.5 * (rng.lo + rng.hi)
        got = s_of_theta(1, -60, mid, 0.0, 5e-324)
        assert got == 12.809739223253976
        exact, = shadow.profile_s(1, -60, mid, [5e-324])
        assert abs(got - exact) <= 1e-15 * abs(exact)
        step = got - s_of_theta(1, -60, mid, 0.0, 1e-323)
        want = profile_log_terms(1, -60).at_zero * 2.0 * math.log(0.5)
        assert step == pytest.approx(want, rel=1e-12)

    def test_monotone_on_steep_upper_range(self):
        # s has no interior extrema on the range from the companion angle
        # to the pole: the integrand never vanishes there.
        thb = theta_roots(1, 2).theta0_bar
        lo, hi = thb + 1e-3, math.pi - 1e-3
        vals = [s_of_theta(1, 2, lo, 0.0, lo + (hi - lo) * i / 200)
                for i in range(201)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestProfileDsDtheta:
    @pytest.mark.parametrize("p,pp,theta", [
        (1, 2, 0.0), (1, 2, math.pi), (2, -1, solve_theta0(2, -1))],
        ids=["pole0", "polePi", "theta0"])
    def test_fixed_angle_is_a_branch_error(self, p, pp, theta):
        # Where the denominator rounds to 0 (at 0, and at the float
        # theta0 of (2, -1)) and at pi, whose sine rounds to 1.2e-16.
        with pytest.raises(DomainError, match="fixed angle"):
            profile_ds_dtheta(p, pp, theta)

    @pytest.mark.parametrize("theta,why", [
        (math.nan, "fixed-angle-free range"),
        (math.inf, "fixed-angle-free range"),
        (-math.inf, "fixed-angle-free range"),
        (4.0, "fixed-angle-free range"),
        (5e-324, r"^ds_dtheta = inf is not finite$")],
        ids=["nan-range", "inf-range", "-inf-range", "4.0-range",
             "5e-324-overflow"])
    def test_angle_outside_a_range_or_overflowing(self, theta, why):
        # nan gave nan, +-inf 'math domain error', 4.0 a slope of 2.69
        # and 5e-324, strictly inside range 0, inf.
        with pytest.raises(DomainError, match=why):
            profile_ds_dtheta(1, 2, theta)

    @pytest.mark.parametrize("p,pp", CLOSED_FORM_PAIRS)
    def test_every_listed_fixed_angle_is_a_branch_error(self, p, pp):
        # The rule s_of_theta uses: at most float theta0 and theta0_bar
        # the formula gives a huge finite slope (-2.14e15 at the theta0
        # of (1, 2)), which is refused too.
        angles = [solve_theta0(p, pp)]
        if 2 * pp * pp > 3 * p * p:
            angles.append(theta_roots(p, pp).theta0_bar)
        for theta in angles:
            with pytest.raises(DomainError, match="fixed angle"):
                profile_ds_dtheta(p, pp, theta)


class TestIntegrateProfile:
    def test_monotone_theta_and_endpoints(self):
        for rid in range(3):
            tr = integrate_profile(1, 2, rid, n_samples=300)
            ths = [r.theta for r in tr.samples]
            rng = tr.spec.theta_range()
            assert all(b > a for a, b in zip(ths, ths[1:]))
            assert ths[0] == pytest.approx(rng.lo + 1e-4, abs=1e-12)
            assert ths[-1] == pytest.approx(rng.hi - 1e-4, abs=1e-12)

    def test_coordinate_identities(self):
        tr = integrate_profile(1, 2, 1, n_samples=300)
        assert max(fh_identity_errors(tr)) < 1e-9

    def test_ode_residual(self):
        for rid in range(3):
            tr = integrate_profile(1, 2, rid, n_samples=200)
            rows = tr.samples[1:-1:20]
            errs = [profile_ode_residual(tr.spec, r.theta) for r in rows]
            assert max(errs) < 1e-6

    def test_middle_range_u_direction(self):
        # d(theta)/du < 0 when p'/p is steep positive, > 0 when steep
        # negative.
        tr = integrate_profile(1, 2, 1, n_samples=100)
        us = [r.f for r in tr.samples]
        assert all(b < a for a, b in zip(us, us[1:]))
        tr = integrate_profile(1, -2, 1, n_samples=100)
        us = [r.f for r in tr.samples]
        assert all(b > a for a, b in zip(us, us[1:]))

    def test_anchor_midpoint(self):
        tr = integrate_profile(1, 1, 0, s_anchor=2.5, n_samples=51)
        rng = tr.spec.theta_range()
        mid = 0.5 * (rng.lo + rng.hi)
        closest = min(tr.samples, key=lambda r: abs(r.theta - mid))
        assert closest.s == pytest.approx(2.5, abs=1e-6)

    def test_pole_range_s_decreases_toward_pole(self):
        # Both ends of a two-sided-convex profile have s -> -infinity.
        tr = integrate_profile(1, 1, 0, n_samples=400)
        s_vals = [r.s for r in tr.samples]
        assert s_vals[0] < s_vals[len(s_vals) // 2]
        assert s_vals[-1] < s_vals[len(s_vals) // 2]

    @pytest.mark.parametrize("clip", [1e-9, 1e-4])
    def test_rows_are_their_one_angle_values(self, clip):
        """A trace's rows, evaluated a block at a time, have the bits of
        s and f, h evaluated one angle at a time; a trace that fails
        names the first row that fails one at a time."""
        traced = failed = 0
        for p in range(1, 7):
            for pp in range(-10, 11):
                if math.gcd(p, pp) != 1:
                    continue
                for rid in range(len(classify_branches(p, pp))):
                    try:
                        tr = integrate_profile(p, pp, rid, n_samples=101,
                                               clip=clip)
                    except DomainError as exc:
                        failed += 1
                        with pytest.raises(DomainError) as one:
                            _one_angle_rows(CurveSpec.profile(p, pp, rid),
                                            101, clip)
                        assert str(one.value) == str(exc)
                        continue
                    traced += 1
                    assert repr(tr.samples) == repr(
                        _one_angle_rows(tr.spec, 101, clip))
        assert traced > 150 and failed > 0

    def test_rows_past_the_first_block_are_their_one_angle_values(self):
        n = 2 * curves._TRACE_BLOCK + 3
        tr = integrate_profile(3, -7, 1, n_samples=n)
        assert repr(tr.samples) == repr(_one_angle_rows(tr.spec, n, 1e-4))

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(st.data(), st.sampled_from(PROPERTY_PAIRS),
           st.floats(-300.0, 300.0), st.sampled_from([1e-4, 1e-9]),
           st.integers(2, 50))
    def test_rows_are_finite_or_refused(self, data, pair, s_anchor, clip, n):
        """A trace raises DomainError, or each of its n rows is a finite
        TraceSample whose f and h are fh_at's at its s and theta."""
        p, pp = pair
        rid = data.draw(st.integers(0, len(classify_branches(p, pp)) - 1))
        try:
            tr = integrate_profile(p, pp, rid, s_anchor=s_anchor,
                                   n_samples=n, clip=clip)
        except DomainError:
            return
        assert len(tr.samples) == n
        for row in tr.samples:
            assert type(row) is TraceSample
            assert all(math.isfinite(x) for x in row)
            assert (row.f, row.h) == fh_at(row.s, row.theta)[1:]


def _one_angle_rows(spec, n, clip):
    """The rows of a trace of n samples, s and (f, h) evaluated one angle
    at a time."""
    terms, base = curves._anchored(spec)
    lo, hi = curves._point_start(spec, clip)[:2]
    rows = []
    for i in range(n):
        theta = lo + (hi - lo) * i / (n - 1)
        log_sum, = curves._log_sums(terms, (theta,))
        s = base + log_sum
        _, f, h = fh_at(s, theta)
        rows.append(TraceSample(s, 0.0, theta, 0.0, f, h))
    return tuple(rows)


class TestEndDecayExponent:
    # Along a profile cylinder, h/f approaches its orbit value like
    # |u|^{-zeta*kappa}: the log-divergence rate of s at the orbit angle
    # is the reciprocal of sqrt6 * zeta * kappa.  Measuring the exponent
    # from the trace cross-checks the traced s(theta) against the decay
    # constants computed independently from the orbit angle.
    @pytest.mark.parametrize("p,pp,rid,end_pair", [
        (1, 1, 0, (1, 1)),
        (1, 2, 0, (1, 2)),
        (1, 2, 1, (1, 2)),       # theta0 end of the middle range
        (2, 5, 1, (2, 5)),
        (1, -2, 1, (1, -2)),
    ])
    def test_exponent_matches_zeta_kappa(self, p, pp, rid, end_pair):
        from sympl_moduli import EndClass, asymptotic_constants
        th0 = solve_theta0(*end_pair)
        lam0 = (pp / p) * math.sin(th0) ** 2
        data = asymptotic_constants(EndClass(*end_pair))
        tr = integrate_profile(p, pp, rid, n_samples=4000, clip=1e-6)
        rng = tr.spec.theta_range()
        rows = tr.samples
        if abs(rng.hi - th0) < abs(rng.lo - th0):
            rows = tuple(reversed(rows))
        r1, r2 = rows[2], rows[20]
        slope = ((math.log(abs(r2.h / r2.f - lam0))
                  - math.log(abs(r1.h / r1.f - lam0)))
                 / (math.log(abs(r2.f)) - math.log(abs(r1.f))))
        assert -slope == pytest.approx(data.zeta * data.kappa, rel=1e-2)

    def test_companion_end_exponent(self):
        # The theta0_bar end of (1, 2)'s middle range is the orbit of the
        # pair (-1, -2); its decay constants govern that end.
        from sympl_moduli import EndClass, asymptotic_constants
        th = solve_theta0(-1, -2)
        assert th == pytest.approx(theta_roots(1, 2).theta0_bar, abs=1e-14)
        lam0 = 2.0 * math.sin(th) ** 2
        data = asymptotic_constants(EndClass(-1, -2))
        tr = integrate_profile(1, 2, 1, n_samples=4000, clip=1e-6)
        rows = tuple(reversed(tr.samples))   # theta0_bar is the upper end
        r1, r2 = rows[2], rows[20]
        slope = ((math.log(abs(r2.h / r2.f - lam0))
                  - math.log(abs(r1.h / r1.f - lam0)))
                 / (math.log(abs(r2.f)) - math.log(abs(r1.f))))
        assert -slope == pytest.approx(data.zeta * data.kappa, rel=1e-2)


class TestClosedForm:
    @pytest.mark.parametrize("p,pp", CLOSED_FORM_PAIRS)
    def test_matches_mpmath_quadrature(self, p, pp):
        for rng in classify_branches(p, pp):
            mid = 0.5 * (rng.lo + rng.hi)
            for clip in (1e-3, 1e-6, 1e-9):
                for theta in (rng.lo + clip, rng.hi - clip):
                    want = shadow.profile_s_quad(p, pp, mid, theta)
                    got = s_of_theta(p, pp, mid, 0.0, theta)
                    assert abs(got - want) <= 1e-10 * (1 + abs(want)), (
                        rng, clip, theta)

    @pytest.mark.parametrize("p,pp", CLOSED_FORM_PAIRS)
    def test_central_difference_matches_slope(self, p, pp):
        # As test_derivative_matches_integrand, on every range and near
        # its ends, with the step scaled to the range.
        for rng in classify_branches(p, pp):
            width = rng.hi - rng.lo
            for frac in (0.01, 0.3, 0.5, 0.7, 0.99):
                theta = rng.lo + frac * width
                step = 1e-6 * width
                num = (s_of_theta(p, pp, theta, 0.0, theta + step)
                       - s_of_theta(p, pp, theta, 0.0, theta - step)) / (2 * step)
                want = profile_ds_dtheta(p, pp, theta)
                assert num == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("p,pp", CLOSED_FORM_PAIRS + [NEAR_BOUNDARY])
    def test_orbit_angle_residue_is_decay_rate(self, p, pp):
        # s ~ log|cos theta - cos theta0| / (sqrt6 zeta kappa) at the
        # orbit angle; the companion angle theta0_bar is the orbit angle
        # of (-p, -p') and carries that orbit's constants.  Near
        # 2 p'^2 = 3 p^2 its residue, of order p^2 / |D|, comes from
        # the pole distance.
        from sympl_moduli import EndClass, asymptotic_constants
        for p, pp in [(p, pp)] if p else boundary_pairs():
            terms = profile_log_terms(p, pp)
            residue, half, offset = terms.inner
            assert 2.0 * half == solve_theta0(p, pp)
            ends = [(residue, offset, EndClass(p, pp))]
            if 2 * pp * pp > 3 * p * p:
                residue, _, _, half_root, offset, _ = terms.outer
                assert 2.0 * half_root == theta_roots(p, pp).theta0_bar == (
                    solve_theta0(-p, -pp))
                ends.append((residue, offset, EndClass(-p, -pp)))
            for residue, offset, end_class in ends:
                data = asymptotic_constants(end_class)
                want = 1.0 / (SQRT6_ * data.zeta * data.kappa)
                assert residue == pytest.approx(want, rel=1e-12), end_class
                # cos(angle) - root, times sign(p') for the companion.
                assert abs(offset) <= 1e-15

    @pytest.mark.parametrize("p,pp", CLOSED_FORM_PAIRS + [NEAR_BOUNDARY])
    def test_residues_sum_to_leading_ratio(self, p, pp):
        """ds/dx ~ (sum of residues) / x at infinity: the residues sum to
        the ratio of the leading coefficients of N and D, sqrt6/3
        (sqrt6/2 for p' = 0).  The record's summed residue S of a pole
        and its root is that ratio less the two other residues, so the
        identity would check S against itself.  Instead each residue of
        the record is checked against the 50-digit partial fractions, S
        against the exact sum of its pole's and its root's, and the
        exact residues against the identity.  The record's residues are
        a few rounded operations each, so 1e-14 relative; S rounds two
        differences of terms below sqrt6/3, so 1e-15 absolute."""
        for p, pp in [(p, pp)] if p else boundary_pairs():
            terms = profile_log_terms(p, pp)
            (_, r_zero), (_, r_pi), *roots = shadow.profile_poles(p, pp)
            assert shadow.profile_residue_gap(p, pp) < 1e-20  # far below 1e-14
            got = [terms.at_zero, terms.at_pi, terms.inner[0]]
            exact = [r_zero, r_pi, roots[0][1]]
            if pp != 0:
                got.append(terms.outer[0])
                exact.append(roots[1][1])
                pair = terms.outer[5]
                near = r_zero if pp < 0 else r_pi
                if pair is not None:
                    assert abs(pair - (near + roots[1][1])) <= 1e-15
            for residue, want in zip(got, exact):
                assert abs(residue - want) <= 1e-14 * abs(want), (p, pp)

    def test_trace_rows_match_s_of_theta(self):
        tr = integrate_profile(2, 5, 1, s_anchor=0.4, n_samples=101)
        anchor = tr.spec.anchor_angle()
        for row in tr.samples[::10]:
            assert row.s == pytest.approx(
                s_of_theta(2, 5, anchor, 0.4, row.theta), rel=1e-13, abs=1e-13)


class TestCurveSpecKappa:
    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda kappa: CurveSpec.example2(0.0, kappa, 1),
        lambda kappa: CurveSpec.example3(0.0, kappa),
        lambda kappa: CurveSpec.example4(0.0, kappa)],
        ids=["example2", "example3", "example4"])
    def test_non_finite_kappa_refused(self, make, kappa):
        # Where s_max gave nan or -inf.
        with pytest.raises(DomainError, match="finite kappa"):
            make(kappa)


class TestCurveSpecRefusals:
    def test_sign_p_prime_is_a_sign(self):
        with pytest.raises(DomainError, match=r"^sign_p_prime is \+-1$"):
            CurveSpec.example2(0.0, 1.0, 0)

    def test_only_profile_families_carry_a_theta_range(self):
        with pytest.raises(DomainError,
                           match=r"^only profile families carry a theta "
                                 r"range$"):
            CurveSpec.example2(0.0, 1.0, 1).theta_range()

    def test_example_1_needs_an_orbit(self):
        with pytest.raises(DomainError, match=r"^example 1 needs an orbit$"):
            eval_invariant_curve(CurveSpec(example_id=1), 0.0, 1.0)

    def test_unknown_example_id(self):
        with pytest.raises(DomainError, match=r"^unknown example id 9$"):
            eval_invariant_curve(CurveSpec(example_id=9), 0.0, 1.0)


class TestCurveSpecFinite:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make,field", [
        (lambda x: CurveSpec.example2(x, 1.0, 1), "t0"),
        (lambda x: CurveSpec.example3(x, 1.0), "t0"),
        (lambda x: CurveSpec.example4(x, 1.0), "phi0"),
        (lambda x: CurveSpec.profile(1, 2, 1, phi0=x), "phi0"),
        (lambda x: CurveSpec.profile(1, 2, 1, s_anchor=x), "s_anchor")],
        ids=["example2", "example3", "example4", "profile-phi0",
             "profile-s_anchor"])
    def test_non_finite_field_refused(self, make, field, value):
        # Where example3(inf, 1.0) failed later inside fmod, and a nan
        # s_anchor gave nan points.
        with pytest.raises(DomainError, match=f"^{field} = {value} is not"):
            make(value)


class TestSMax:
    def test_plane_unit_value(self):
        assert s_max(CurveSpec.example2(0.0, 2.0, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_h_cylinder_unit_value(self):
        kappa = 2.0 * math.sqrt(2.0) / 3.0
        assert s_max(CurveSpec.example4(0.0, kappa)) == pytest.approx(0.0, abs=1e-15)

    def test_f_cylinder_value(self):
        # f = kappa with theta = pi/2 at the top: s_max = -ln(kappa)/sqrt6.
        assert s_max(CurveSpec.example3(0.0, 1.0)) == pytest.approx(0.0, abs=1e-15)
        assert s_max(CurveSpec.example3(0.0, 2.0)) == pytest.approx(
            -math.log(2.0) / SQRT6_, abs=1e-15)

    def test_wrong_example(self):
        with pytest.raises(DomainError, match="no closed-form s_max for example 1"):
            s_max(CurveSpec.example1(ReebOrbit.pole_plus()))

    @pytest.mark.parametrize("spec", [
        CurveSpec.example2(0.0, 2.0, 1),
        CurveSpec.example2(0.3, 0.7, -1),
        CurveSpec.example3(0.0, 1.0),
        CurveSpec.example3(0.0, 2.5),
        CurveSpec.example4(0.0, 2.0 * math.sqrt(2.0) / 3.0),
        CurveSpec.example4(1.0, 0.4),
        CurveSpec.example4(1.0, -0.4),
    ])
    def test_matches_numerical_max(self, spec):
        # Coarse scan, then a fine scan around the coarse argmax.
        lo, hi = (0.0, 3.0) if spec.example_id == 2 else (-3.0, 3.0)
        def scan(a, b, n):
            us = [a + (b - a) * i / (n - 1) for i in range(n)]
            vals = [(eval_invariant_curve(spec, 0.0, u).s, u) for u in us]
            return max(vals)
        _, u0 = scan(lo, hi, 601)
        step = (hi - lo) / 600
        best, _ = scan(max(lo, u0 - step), min(hi, u0 + step), 801)
        assert best == pytest.approx(s_max(spec), abs=1e-8)


#: The refusal of a u whose sign is not the orbit cylinder's.
SIGN_RULE = r"^sign\(u\) must equal sign\(p\), or sign\(p'\) if p = 0$"


class TestEvalInvariantCurve:
    def test_orbit_cylinder_ratio(self):
        orbit = ReebOrbit.generic(1, 1)
        spec = CurveSpec.example1(orbit)
        ratio = math.sin(orbit.theta0) ** 2
        for u in (0.25, 1.0, 3.0):
            pt = eval_invariant_curve(spec, 0.4, u)
            f, h, _ = coord_functions(pt)
            assert f == pytest.approx(u, rel=1e-12)
            assert h == pytest.approx(ratio * u, rel=1e-12)

    def test_orbit_cylinder_sign_domain(self):
        spec = CurveSpec.example1(ReebOrbit.generic(1, 1))
        with pytest.raises(DomainError, match=SIGN_RULE):
            eval_invariant_curve(spec, 0.0, -1.0)

    @pytest.mark.parametrize("pp", [1, -1])
    def test_f_zero_orbit_cylinder(self, pp):
        # The (0, +-1) orbits sit at cos^2 theta0 = 1/3, where f = 0: the
        # cylinder is h = u at t = upsilon/p' (mod 2 pi), phi = tau.
        orbit = ReebOrbit.generic(0, pp, upsilon=0.7)
        spec = CurveSpec.example1(orbit)
        for u in (0.25, 1.0, 3.0):
            pt = eval_invariant_curve(spec, 0.4, pp * u)
            f, h, _ = coord_functions(pt)
            assert h == pytest.approx(pp * u, rel=1e-12)
            assert abs(f) < 1e-12 * u
            assert math.remainder(pt.t - 0.7 / pp, math.tau) == 0.0
            assert (pt.theta, pt.phi) == (orbit.theta0, 0.4)
        for u in (-1.0, 0.0):
            with pytest.raises(DomainError, match=SIGN_RULE):
                eval_invariant_curve(spec, 0.0, pp * u)

    def test_pole_cylinder_height(self):
        spec = CurveSpec.example1(ReebOrbit.pole_plus())
        pt = eval_invariant_curve(spec, 0.0, 2.0)
        assert pt.s == pytest.approx(0.0, abs=1e-15)
        assert pt.theta == 0.0
        pt = eval_invariant_curve(spec, 0.0, 2.0 * math.exp(-SQRT6_))
        assert pt.s == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("orbit", [ReebOrbit.pole_plus(),
                                       ReebOrbit.pole_minus()])
    def test_pole_cylinder_sign_domain(self, orbit):
        for u in (0.0, -1.0):
            with pytest.raises(DomainError,
                               match="pole cylinders need u > 0"):
                eval_invariant_curve(CurveSpec.example1(orbit), 0.0, u)

    def test_plane_origin(self):
        pt = eval_invariant_curve(CurveSpec.example2(0.0, 2.0, 1), 0.7, 0.0)
        assert pt.s == pytest.approx(0.0, abs=1e-15)
        assert pt.theta == 0.0
        pt = eval_invariant_curve(CurveSpec.example2(0.0, 2.0, -1), 0.7, 0.0)
        assert pt.theta == math.pi

    @pytest.mark.parametrize("sign", [1, -1])
    def test_plane_sign_domain(self, sign):
        with pytest.raises(DomainError,
                           match="the plane is parameterized by u >= 0"):
            eval_invariant_curve(CurveSpec.example2(0.0, 2.0, sign), 0.7, -1.0)

    def test_plane_f_constant(self):
        spec = CurveSpec.example2(0.2, 1.5, 1)
        for u in (0.0, 0.5, 2.0, 10.0):
            pt = eval_invariant_curve(spec, 0.3, u)
            f, h, _ = coord_functions(pt)
            assert f == pytest.approx(-1.5, rel=1e-11)
            assert h == pytest.approx(u, rel=1e-11, abs=1e-12)

    def test_f_cylinder_top(self):
        pt = eval_invariant_curve(CurveSpec.example3(0.0, 2.0), 0.5, 0.0)
        assert pt.theta == pytest.approx(math.pi / 2, abs=1e-12)
        assert pt.s == pytest.approx(-math.log(2.0) / SQRT6_, abs=1e-12)

    def test_f_cylinder_is_level_set(self):
        spec = CurveSpec.example3(0.0, 0.8)
        for u in (-5.0, -0.3, 0.0, 0.3, 5.0):
            pt = eval_invariant_curve(spec, 0.1, u)
            f, h, _ = coord_functions(pt)
            assert f == pytest.approx(0.8, rel=1e-11)
            assert h == pytest.approx(u, rel=1e-11, abs=1e-12)

    def test_h_cylinder_top(self):
        kappa = 2.0 * math.sqrt(2.0) / 3.0
        pt = eval_invariant_curve(CurveSpec.example4(0.0, kappa), 0.5, 0.0)
        assert pt.s == pytest.approx(0.0, abs=1e-12)
        assert math.cos(pt.theta) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_h_cylinder_is_level_set(self):
        spec = CurveSpec.example4(0.0, -0.6)
        for u in (-4.0, -0.2, 0.0, 0.2, 4.0):
            pt = eval_invariant_curve(spec, 0.1, u)
            f, h, _ = coord_functions(pt)
            assert h == pytest.approx(-0.6, rel=1e-11)
            assert f == pytest.approx(u, rel=1e-11, abs=1e-12)

    def test_h_cylinder_pole_side(self):
        # The u -> -inf end approaches theta = 0 when kappa > 0 and
        # theta = pi when kappa < 0.
        pt = eval_invariant_curve(CurveSpec.example4(0.0, 1.0), 0.0, -1e8)
        assert pt.theta < 1e-3
        pt = eval_invariant_curve(CurveSpec.example4(0.0, -1.0), 0.0, -1e8)
        assert pt.theta > math.pi - 1e-3

    def test_static_points_stay_in_domain(self):
        # The static families take s from a log; a point is returned only
        # where e^{-sqrt6 s} is a normal float.  These returned s = 291.41
        # (underflow), s = 291.69 and s = -inf (an overflowing pole
        # cylinder: f = -u).
        with pytest.raises(DomainError, match="underflow"):
            eval_invariant_curve(CurveSpec.example3(0.0, 1e-310), 0.0, 0.0)
        with pytest.raises(DomainError, match="underflow"):
            eval_invariant_curve(CurveSpec.example1(ReebOrbit.pole_minus()),
                                 0.0, 1e-310)
        with pytest.raises(DomainError, match="not finite"):
            eval_invariant_curve(CurveSpec.example1(ReebOrbit.pole_plus()),
                                 0.0, math.inf)
        # u = 1e308 lands at s = -289.25, where g = 2 sqrt6 e overflows.
        with pytest.raises(DomainError, match="overflow"):
            eval_invariant_curve(CurveSpec.example1(ReebOrbit.pole_plus()),
                                 0.0, 1e308)
        # u = 5e307 is still inside: f = -u at s = -288.96.
        pt = eval_invariant_curve(CurveSpec.example1(ReebOrbit.pole_plus()),
                                  0.0, 5e307)
        assert coord_functions(pt)[0] == pytest.approx(-5e307)

    @pytest.mark.parametrize("spec,tau,u", [
        (CurveSpec.profile(1, 2, 1), math.inf, 0.5),
        (CurveSpec.profile(1, 2, 1), 0.0, math.nan),
        (CurveSpec.example1(ReebOrbit.pole_plus()), -math.inf, 1.0),
        (CurveSpec.example2(0.5, 1.0, 1), math.nan, 0.3),
        (CurveSpec.example3(0.5, 1.0), 0.0, -math.inf),
        (CurveSpec.example4(0.5, 1.0), 0.0, math.inf)],
        ids=["profile-tau", "profile-u", "example1", "example2", "example3",
             "example4"])
    def test_non_finite_tau_or_u_refused(self, spec, tau, u, monkeypatch):
        # Where these raised a bare ValueError ('math domain error') or
        # returned a point with phi = nan; no family's code may run.
        def no_family(*args):
            raise AssertionError("a family's code ran")

        for name in ("_example1_point", "_example2_point", "_example3_point",
                     "_example4_point", "_profile_point", "_point_start"):
            monkeypatch.setattr(points, name, no_family)
        with pytest.raises(DomainError, match="is not finite"):
            eval_invariant_curve(spec, tau, u)

    def test_profile_point_consistency(self):
        spec = CurveSpec.profile(1, 2, 1)
        for u in (-1.0, 0.1, 1.0):
            pt = eval_invariant_curve(spec, 0.0, u)
            f, h, _ = coord_functions(pt)
            assert f == pytest.approx(u, rel=1e-9, abs=1e-11)
        with pytest.raises(DomainError, match=r"^u = 1000000000000\.0 outside "
                           r".* reachable on the clipped range$"):
            eval_invariant_curve(spec, 0.0, 1e12)

    def test_profile_point_at_default_clip(self):
        # At the default clip of 1e-9, e^{-sqrt6 s} overflows at the
        # bracket end near theta0_bar; the iteration must still find u.
        tr = integrate_profile(4, 5, 1, n_samples=200, clip=1e-4)
        row = tr.samples[100]
        pt = eval_invariant_curve(CurveSpec.profile(4, 5, 1), 0.0, row.f)
        assert pt.theta == pytest.approx(row.theta, abs=1e-11)
        assert pt.s == pytest.approx(row.s, abs=1e-10)

    def test_clip_swallowing_the_range(self):
        with pytest.raises(DomainError, match="clip 2.0 leaves no angles"):
            eval_invariant_curve(CurveSpec.profile(1, 2, 1), 0.0, 0.1, clip=2.0)
        with pytest.raises(DomainError, match="clip -0.001 leaves no angles"):
            integrate_profile(1, 2, 1, clip=-1e-3)

    def test_overflowing_trace_is_a_domain_error(self):
        with pytest.raises(DomainError,
                           match="f, h or g overflow a float at theta = "):
            integrate_profile(5, 6, 1, n_samples=50)

    def test_underflowing_trace_is_a_domain_error(self):
        # e^{-sqrt6 s} is 0 at s = 1e308, so f = h = 0 on every row.
        with pytest.raises(DomainError, match="underflow"):
            integrate_profile(1, 2, 1, s_anchor=1e308, n_samples=3)

    def test_overflowing_ode_residual_is_a_domain_error(self):
        spec = CurveSpec.profile(5, 6, 1)
        with pytest.raises(DomainError, match="overflow"):
            profile_ode_residual(spec, spec.theta_range().hi - 1e-6)

    def test_subnormal_trace_is_a_domain_error(self):
        # At s ~ 296 e^{-sqrt6 s} is a subnormal float of ~28 bits, so
        # f would print noise in the CSV's 12 digits.
        with pytest.raises(DomainError, match="underflow"):
            integrate_profile(1, 2, 1, s_anchor=296.0, n_samples=3)

    def test_profile_point_where_u_underflows_is_a_domain_error(self):
        # u is 0 at every angle of the clipped range, so the iteration
        # cannot see where u = 0 (theta = pi - THETA_C); it must not
        # return the angle it stops at.
        spec = CurveSpec.profile(1, 2, 1, s_anchor=400.0)
        with pytest.raises(DomainError, match="underflow"):
            eval_invariant_curve(spec, 0.0, 0.0, clip=1e-4)

    def test_rows_come_from_fh_at(self):
        # fh_rows is the one source of a row's f and h, and its only
        # check; a row's bits are fh_at's, its one-row case.
        tr = integrate_profile(1, 2, 1, n_samples=50)
        for row in tr.samples:
            assert type(row) is TraceSample
            assert (row.t, row.phi) == (0.0, 0.0)
            assert (row.f, row.h) == fh_at(row.s, row.theta)[1:]

    def test_samples_past_the_budget_are_refused(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a trace row was computed")

        monkeypatch.setattr(curves, "fh_rows", no_rows)
        for n, digits in ((MAX_TRACE_SAMPLES + 1, "1000001"),
                          (10 ** 20, "100000000000000000000")):
            with pytest.raises(DomainError, match=(
                    f"^n_samples = {digits} exceeds 1000000, the budget of "
                    f"a trace$")):
                integrate_profile(1, 2, 1, n_samples=n)
        with pytest.raises(AssertionError, match="row"):    # at the budget
            integrate_profile(1, 2, 1, n_samples=MAX_TRACE_SAMPLES)

    def test_profile_example_ids(self):
        assert CurveSpec.profile(1, 2, 0).example_id == 5
        assert CurveSpec.profile(1, 2, 1).example_id == 6
        assert CurveSpec.profile(1, 2, 2).example_id == 7
        assert CurveSpec.profile(1, -2, 0).example_id == 7
        assert CurveSpec.profile(1, 1, 0).example_id == 5
        assert CurveSpec.profile(1, 1, 1).example_id == 5


_STATIC_RATIOS = (1e-6, 1.0, 1e4, 1e8, 1e11, 1e13)
_STATIC_KAPPAS = (0.37, 1.0, 6.5)

# (example, kappa, u, sign): examples 2-4 at u/kappa in _STATIC_RATIOS,
# with both signs of u, kappa and sign_p_prime where the family takes
# them, and the plane and examples 3-4 at u = 1e30 and u = 1e300.
STATIC_HEIGHT_CASES = (
    [(2, k, r * k, sg) for k in _STATIC_KAPPAS for r in _STATIC_RATIOS
     for sg in (1, -1)]
    + [(3, k, su * r * k, 1) for k in _STATIC_KAPPAS for r in _STATIC_RATIOS
       for su in (1, -1)]
    + [(4, sk * k, su * r * k, 1) for k in _STATIC_KAPPAS
       for r in _STATIC_RATIOS for sk in (1, -1) for su in (1, -1)]
    + [(2, k, u, sg) for k in _STATIC_KAPPAS for u in (1e30, 1e300)
       for sg in (1, -1)]
    + [(3, k, su * u, 1) for k in _STATIC_KAPPAS for u in (1e30, 1e300)
       for su in (1, -1)]
    + [(4, sk * k, su * u, 1) for k in _STATIC_KAPPAS for u in (1e30, 1e300)
       for sk in (1, -1) for su in (1, -1)])

# Every admissible orbit with |p| <= 20 and |p'| <= 30, and (1, 10^k)
# for k = 3..18, where 1 - 3 cos^2 theta0 is within 1e-18 of 0.
STATIC_ORBITS = ([(p, pp) for p in range(-20, 21) for pp in range(-30, 31)
                  if (p, pp) != (0, 0) and classify_pair(p, pp)[0]]
                 + [(1, 10 ** k) for k in range(3, 19)])


def _static_spec(example, kappa, sign):
    if example == 2:
        return CurveSpec.example2(0.2, kappa, sign)
    if example == 3:
        return CurveSpec.example3(0.2, kappa)
    return CurveSpec.example4(0.2, kappa)


class TestStaticHeights:
    """s of every closed-form family within 1e-13 of the shadow's route
    (shadow.static_point, shadow.orbit_s), which solves for the angle on the
    family's own branch and reads s from the coordinate the family
    fixes.  The heights divided
    by 1 - 3 cos^2, 3 cos^2 - 1 or sqrt6 cos sin^2, each of which
    vanishes at a family's asymptote: the orbit cylinder of (1, 10^12)
    was off by 9.9e-5, that of (1, 10^17) raised 'math domain error',
    and the plane of kappa = 1 stayed at s = -13.18 for every
    u >= 1e15."""

    def test_closed_form_families(self):
        assert len(STATIC_HEIGHT_CASES) == 192
        for example, kappa, u, sign in STATIC_HEIGHT_CASES:
            pt = eval_invariant_curve(_static_spec(example, kappa, sign),
                                      0.3, u)
            gap = abs(pt.s - shadow.static_point(example, kappa, u, sign)[1])
            assert gap <= 1e-13, (example, kappa, u, sign, gap)

    def test_orbit_cylinders(self):
        assert len(STATIC_ORBITS) == 1215
        for p, pp in STATIC_ORBITS:
            spec = CurveSpec.example1(ReebOrbit.generic(p, pp, upsilon=0.9))
            sign = 1 if (p or pp) > 0 else -1
            for u in (1e-6, 1.0, 1e6):
                pt = eval_invariant_curve(spec, 0.4, sign * u)
                gap = abs(pt.s - shadow.orbit_s(p, pp, sign * u))
                assert gap <= 1e-13, (p, pp, u, gap)

    @pytest.mark.parametrize("orbit", [ReebOrbit.pole_plus(),
                                       ReebOrbit.pole_minus()])
    def test_pole_cylinders(self, orbit):
        c = 1 if orbit.theta0 == 0.0 else -1
        for u in (1e-300, 1e-6, 1.0, 2.0, 1e6, 1e300):
            pt = eval_invariant_curve(CurveSpec.example1(orbit), 0.4, u)
            assert abs(pt.s - shadow.height(c, f=-u)) <= 1e-13, u


class TestStaticLimitAngles:
    """Where h/f leaves the floats, _static_point's angle is a limit in
    closed form: the cone angle where h/f is not finite (f = 0, or the
    quotient overflows), THETA_C for h > 0 and pi - THETA_C for h < 0,
    and the pole, 0 or pi, where h/f rounds to 0 on branch A or C, which
    the inversion returns since those branches are closed at their
    poles.  The points of test_angle_in_closed_form once raised
    DomainError from the inversion; s is within 1e-13 of the shadow's
    route of TestStaticHeights.  A point whose |f| + |h| divided by the
    angle's bracket underflows to 0 is refused as fh_at refuses an
    underflowing e^{-sqrt6 s}, where log(0) raised a bare ValueError
    ('math domain error')."""

    @pytest.mark.parametrize("example,kappa,u,sign,theta", [
        (3, 1e-10, 1e300, 1, THETA_C),
        (3, 1e-10, -1e300, 1, math.pi - THETA_C),
        (4, 1.0, 5e-324, 1, THETA_C),
        (4, 1.0, -5e-324, 1, THETA_C),
        (4, -1.0, 5e-324, 1, math.pi - THETA_C),
        (4, -1.0, -5e-324, 1, math.pi - THETA_C),
        (2, 1e10, 1e-320, 1, 0.0),
        (2, 1e10, 1e-320, -1, math.pi)])
    def test_angle_in_closed_form(self, example, kappa, u, sign, theta):
        pt = eval_invariant_curve(_static_spec(example, kappa, sign), 0.3, u)
        assert pt.theta == theta
        gap = abs(pt.s - shadow.static_point(example, kappa, u, sign)[1])
        assert gap <= 1e-13, gap

    def test_plane_next_to_the_pole_reads_back(self):
        """The plane with p' > 0 at u = kappa 10^k, k = -15..0, reads
        its (f, h) back through fh_at within 4 eps (2.4 at worst): its
        angle is the float where h/f crosses, and floats crowd at the
        pole 0.  The bisection to a bracket of 1e-14 before it was off
        by up to 2.1e8 eps."""
        eps = 2.0 ** -52
        for kappa in (0.37, 1.0, 1e3):
            spec = CurveSpec.example2(0.2, kappa, 1)
            for k in range(-15, 1):
                u = kappa * 10.0 ** k
                pt = eval_invariant_curve(spec, 0.3, u)
                _, f, h = fh_at(pt.s, pt.theta)
                assert abs(f + kappa) <= 4 * eps * kappa, (kappa, k)
                assert abs(h - u) <= 4 * eps * u, (kappa, k)

    @pytest.mark.parametrize("kappa", [0.37, -6.5])
    def test_f_zero_is_the_cone(self, kappa):
        spec = CurveSpec.example4(0.2, kappa)
        pt = eval_invariant_curve(spec, 0.3, 0.0)
        assert pt.theta == (THETA_C if kappa > 0 else math.pi - THETA_C)
        assert abs(pt.s - s_max(spec)) <= 1e-14

    @pytest.mark.parametrize("spec,u", [
        (CurveSpec.example2(0.0, 5e-324, 1), 0.0),
        (CurveSpec.example1(ReebOrbit.pole_plus()), 5e-324)],
        ids=["plane-pole", "pole-cylinder"])
    def test_underflowing_ratio_is_a_domain_error(self, spec, u):
        with pytest.raises(DomainError, match="underflow the normal floats"):
            eval_invariant_curve(spec, 0.0, u)


def _static_draws(n, seed=31):
    """n seeded (kappa, u, tau, phi0) with kappa log-uniform in
    [1e-3, 1e3] and u/kappa log-uniform in [1e-6, 1e11], of either sign."""
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        kappa = 10.0 ** rng.uniform(-3.0, 3.0)
        u = kappa * 10.0 ** rng.uniform(-6.0, 11.0) * rng.choice((-1, 1))
        draws.append((kappa, u, rng.uniform(-7.0, 7.0),
                      rng.uniform(-7.0, 7.0)))
    return draws


class TestStaticReflection:
    """The reflection sigma(s, t, theta, phi) = (s, t, pi - theta, -phi)
    maps (f, h) to (f, -h), so it maps the plane with one sign to the
    plane with the other, example 4's cylinder of kappa to that of
    -kappa, and example 3's point at (tau, u) to its point at
    (-tau, -u): theta' = pi - theta within 1.5e-15 and s' = s within
    7e-15, each under four times the worst gap (4.4e-16, about an ulp of
    pi - theta, and 1.8e-15), since each angle is the float where h/f
    crosses."""

    @staticmethod
    def _assert_reflected(pt, image):
        assert abs(image.theta - (math.pi - pt.theta)) <= 1.5e-15
        assert abs(image.s - pt.s) <= 7e-15
        assert image.t == pt.t
        assert abs(math.remainder(image.phi + pt.phi, math.tau)) <= 1e-14

    def test_plane(self):
        for kappa, u, tau, t0 in _static_draws(1000):
            pt, image = (
                eval_invariant_curve(CurveSpec.example2(t0, kappa, sign),
                                     tau, abs(u)) for sign in (1, -1))
            self._assert_reflected(pt, image)

    def test_h_cylinder(self):
        for kappa, u, tau, phi0 in _static_draws(1000, seed=32):
            pt = eval_invariant_curve(CurveSpec.example4(phi0, kappa), tau, u)
            image = eval_invariant_curve(CurveSpec.example4(-phi0, -kappa),
                                         tau, u)
            self._assert_reflected(pt, image)

    def test_f_cylinder(self):
        for kappa, u, tau, t0 in _static_draws(1000, seed=33):
            spec = CurveSpec.example3(t0, kappa)
            self._assert_reflected(eval_invariant_curve(spec, tau, u),
                                   eval_invariant_curve(spec, -tau, -u))


class TestPinnedStaticAngles:
    """theta of examples 2-4 over a seeded sample keeps its bits: the
    digest was recorded while each family chose its own branch, and the
    one angle rule of points._static_point picks the same lambda = h/f
    on the same branch.  It was re-recorded when lambda_of_theta, which
    theta_from_lambda bisects, took 1 - 3 cos^2 theta from
    geometry._cone_factor: 11 of the 3,000 angles moved, all within
    0.027 of a cone angle, by at most 7.1e-15; 9 moved closer to the
    50-digit root of the float lambda and 2 farther, the worst error of
    the 11 went from 3.6e-15 to 3.5e-15, and that of all 3,000 stayed
    4.4e-15.  It was re-recorded again when theta_from_lambda came to
    return the float where lambda crosses, in place of the midpoint of
    a bracket of 1e-14: 2,909 of the 3,000 angles moved, by at most
    4.4e-15, and the worst error against the 50-digit root of the float
    lambda went from 4.45e-15 to 2.6e-16."""

    def test_angles_keep_their_bits(self):
        thetas = []
        for kappa, u, tau, x in _static_draws(600, seed=34):
            for spec, v in ((CurveSpec.example2(x, kappa, 1), abs(u)),
                            (CurveSpec.example2(x, kappa, -1), abs(u)),
                            (CurveSpec.example3(x, kappa), u),
                            (CurveSpec.example4(x, kappa), u),
                            (CurveSpec.example4(x, -kappa), u)):
                thetas.append(eval_invariant_curve(spec, tau, v).theta)
        assert len(thetas) == 3000
        assert _digest(thetas) == ("695128ccd60a3c76cc64bc3895b33ad3"
                                   "a310bbd0768835da0587436344581092")


#: Every coprime admissible (p, p') with p <= 6 and |p'| <= 10, and
#: (40, +-49) and (12641, +-15482) next to the regime boundary
#: 2 p'^2 = 3 p^2, where |ds/dtheta| is large.
REFLECTION_PAIRS = ([(p, pp) for p in range(1, 7) for pp in range(-10, 11)
                     if math.gcd(p, pp) == 1 and classify_pair(p, pp)[0]]
                    + [(40, 49), (40, -49), (12641, 15482), (12641, -15482)])


class TestProfileReflection:
    """ROADMAP item 17 on the profile curves.  sigma(s, t, theta, phi) =
    (s, t, pi - theta, -phi) maps the (p, p') profile to the (p, -p')
    one: classify_branches(p, -p') is classify_branches(p, p') mirrored,
    range i against range n - 1 - i with the poles' labels swapped;
    s_of_theta of (p, -p') at pi - theta is that of (p, p') at theta;
    and the trace rows of mirrored ranges map (theta, s, f, h) to
    (pi - theta, s, f, -h), or both traces are refused alike.  Over
    REFLECTION_PAIRS, 81 pairs.

    pi - theta rounds, and pi itself is rounded, so theta is off its
    mirror by up to an ulp of pi, and s by that times the slope: s is
    held to 4 ((|s'(theta)| + |s'(theta_ref)|) ulp(pi)
    + eps max(1, |s|)), the slopes from profile_ds_dtheta.  The worst
    gap is 1.9 of that bound without its factor 4, and 3.2e-11 relative
    on (12641, +-15482).  Rows add the gap of
    the sampled angles to the ulp, and f and h move by at most
    e (5 |ds| + 3 |dtheta|), e = e^{-sqrt6 s}.

    A mutation that is itself sigma-symmetric passes this class: a
    residue changed as a function of |p'| maps onto itself, and
    TestClosedForm catches it.  A sign-dependent one fails here."""

    def test_ranges_mirror(self):
        swap = {"pole0": "polePi", "polePi": "pole0"}
        ulp = math.ulp(math.pi)
        for p, pp in REFLECTION_PAIRS:
            ranges = classify_branches(p, pp)
            image = classify_branches(p, -pp)[::-1]
            assert len(image) == len(ranges), (p, pp)
            for rng, mirror in zip(ranges, image):
                assert abs(mirror.lo - (math.pi - rng.hi)) <= ulp, (p, pp)
                assert abs(mirror.hi - (math.pi - rng.lo)) <= ulp, (p, pp)
                assert (swap.get(mirror.lo_label, mirror.lo_label)
                        == rng.hi_label), (p, pp)
                assert (swap.get(mirror.hi_label, mirror.hi_label)
                        == rng.lo_label), (p, pp)

    def test_s_of_theta_mirrors(self):
        ulp, eps = math.ulp(math.pi), 2.0 ** -52
        for p, pp in REFLECTION_PAIRS:
            for rng in classify_branches(p, pp):
                ref = 0.5 * (rng.lo + rng.hi)
                at_ref = abs(profile_ds_dtheta(p, pp, ref))
                for k in range(1, 10):
                    theta = rng.lo + (rng.hi - rng.lo) * k / 10
                    s = s_of_theta(p, pp, ref, 0.0, theta)
                    image = s_of_theta(p, -pp, math.pi - ref, 0.0,
                                       math.pi - theta)
                    bound = 4 * ((abs(profile_ds_dtheta(p, pp, theta)) + at_ref)
                                 * ulp + eps * max(1.0, abs(s)))
                    assert abs(image - s) <= bound, (p, pp, theta)

    def test_trace_rows_mirror(self):
        ulp, eps = math.ulp(math.pi), 2.0 ** -52
        for p, pp in REFLECTION_PAIRS:
            ranges = classify_branches(p, pp)
            for rid, rng in enumerate(ranges):
                mirror = len(ranges) - 1 - rid
                try:
                    rows = integrate_profile(p, pp, rid, n_samples=20).samples
                except DomainError as exc:
                    with pytest.raises(DomainError) as mirrored:
                        integrate_profile(p, -pp, mirror, n_samples=20)
                    assert (profile_refusal(mirrored.value)
                            == profile_refusal(exc))
                    continue
                image = integrate_profile(p, -pp, mirror,
                                          n_samples=20).samples[::-1]
                ref = 0.5 * (rng.lo + rng.hi)
                at_ref = abs(profile_ds_dtheta(p, pp, ref))
                for row, other in zip(rows, image):
                    gap = abs(other.theta - (math.pi - row.theta))
                    assert gap <= 4 * ulp, (p, pp, rid, row.theta)
                    d_theta = gap + ulp
                    d_s = 4 * (abs(profile_ds_dtheta(p, pp, row.theta)) * d_theta
                               + at_ref * ulp + eps * max(1.0, abs(row.s)))
                    assert abs(other.s - row.s) <= d_s, (p, pp, rid)
                    e = fh_at(row.s, row.theta)[0]
                    assert (abs(other.f - row.f)
                            <= e * (5 * d_s + 3 * d_theta)), (p, pp, rid)
                    assert (abs(other.h + row.h)
                            <= e * (5 * d_s + 3 * d_theta)), (p, pp, rid)
