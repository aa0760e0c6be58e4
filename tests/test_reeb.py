import math
import random
import re

import pytest

from sympl_moduli import (CurveSpec, EndClass, ReebOrbit, classify_branches,
                          classify_pair, eval_invariant_curve, orbit_point,
                          solve_theta0, theta_roots)
from sympl_moduli.errors import DomainError
from sympl_moduli.geometry import SQRT6
from sympl_moduli.points import (Point4, Tangent4, contact_eval,
                                 coord_functions)
from sympl_moduli.reeb import OrbitKind, orbit_cosine

INV_SQRT3 = 1.0 / math.sqrt(3.0)


def admissible_coprime_pairs(bound):
    out = []
    for m in range(-bound, bound + 1):
        for mp in range(-bound, bound + 1):
            if (m, mp) != (0, 0) and classify_pair(m, mp)[0]:
                out.append((m, mp))
    return out


def defining_residual(p, pp, theta):
    c = math.cos(theta)
    return abs(pp * (1 - 3 * c * c) - p * SQRT6 * c)


class TestClassifyPair:
    def test_unit_pairs(self):
        assert classify_pair(1, 0) == (True, [])
        assert classify_pair(0, 1)[0]
        assert classify_pair(0, -1)[0]

    def test_zero_requires_units(self):
        assert not classify_pair(0, 2)[0]
        assert not classify_pair(2, 0)[0]
        assert not classify_pair(-1, 0)[0]
        ok, why = classify_pair(0, 0)
        assert not ok and why

    def test_negative_m_needs_steep_ratio(self):
        ok, why = classify_pair(-1, 1)
        assert not ok
        assert any(w.startswith("(b)") for w in why)
        assert classify_pair(-2, 3)[0]
        assert classify_pair(-1, 2)[0]

    def test_coprimality(self):
        assert not classify_pair(2, 4)[0]
        assert classify_pair(2, 5) == (True, [])

    def test_no_exact_tie_possible(self):
        # 2 m'^2 = 3 m^2 has no integer solutions besides (0, 0).
        for m in range(1, 51):
            for mp in range(0, 81):
                assert 2 * mp * mp != 3 * m * m


class TestSolveTheta0:
    def test_p_prime_zero(self):
        assert solve_theta0(1, 0) == math.pi / 2

    def test_p_zero(self):
        assert solve_theta0(0, 1) == pytest.approx(math.acos(INV_SQRT3), abs=1e-15)
        assert solve_theta0(0, -1) == pytest.approx(math.acos(-INV_SQRT3), abs=1e-15)

    def test_one_one(self):
        th = solve_theta0(1, 1)
        assert math.cos(th) == pytest.approx((math.sqrt(3) - 1) / math.sqrt(6),
                                             abs=1e-15)
        assert math.cos(th) == pytest.approx(0.29885849072268451, abs=1e-15)
        assert defining_residual(1, 1, th) < 1e-15

    def test_zero_pair(self):
        with pytest.raises(DomainError, match=r"^no orbit angle for \(0, 0\)$"):
            solve_theta0(0, 0)

    def test_shallow_negative_p_has_no_angle(self):
        # p < 0 needs 2 p'^2 > 3 p^2.
        with pytest.raises(DomainError,
                           match=r"^\(-1, 1\) admits no orbit angle$"):
            solve_theta0(-1, 1)

    def test_residuals_and_signs_to_50(self):
        for p, pp in admissible_coprime_pairs(50):
            th = solve_theta0(p, pp)
            assert defining_residual(p, pp, th) < 1e-12
            if pp != 0:
                assert math.copysign(1, math.cos(th)) == math.copysign(1, pp)
            else:
                assert math.cos(th) == pytest.approx(0.0, abs=1e-15)

    def test_non_coprime_input_allowed(self):
        assert solve_theta0(2, 2) == pytest.approx(solve_theta0(1, 1), abs=1e-15)

    def test_slope_ratio_whose_square_overflows(self):
        # Past ~9.5e153, 2 (p'/p)^2 is inf: the inner cosine came out 0
        # (theta0 = pi/2, the (1, 0) orbit's) and the outer one inf.
        for args in ((1, 10**154), (1, -10**154), (-1, 10**154),
                     (3, 10**200), (-3, -10**200)):
            with pytest.raises(DomainError, match=r"2 \(p'/p\)\^2 is past"):
                solve_theta0(*args)
        with pytest.raises(DomainError, match=r"^\(1, 1000"):
            theta_roots(1, 10**154)     # theta0_bar, named as it was given

    def test_large_slope_ratio_keeps_its_bits(self):
        assert repr(solve_theta0(1, 10**150)) == "0.9553166181245092"
        assert repr(solve_theta0(-1, 10**150)) == "0.9553166181245093"


class TestOrbitCosine:
    def test_refused_as_solve_theta0_refuses(self):
        for args, why in [((0, 0), r"no orbit angle for \(0, 0\)"),
                          ((-1, 1), "admits no orbit angle"),
                          ((1, 10**154), r"2 \(p'/p\)\^2 is past the float"),
                          ((-1, 10**400), r"p'/p is past the float")]:
            for solve in (orbit_cosine, solve_theta0):
                with pytest.raises(DomainError, match=why):
                    solve(*args)

    def test_deviation(self):
        # The pole distance is 1 - |cos| and |1 - 3 cos^2| is 1 at the
        # equator and exactly 0 for p = 0; elsewhere both are the float
        # angle's values where nothing cancels.  The inner root's angle
        # is the acos of its cosine, the outer root's cosine 1 - g.
        assert orbit_cosine(1, 0) == (0.0, 1.0, 1.0)
        assert orbit_cosine(0, -1) == (-INV_SQRT3, 1.0 - INV_SQRT3, 0.0)
        for p, pp in admissible_coprime_pairs(30):
            c, g, dev = orbit_cosine(p, pp)
            if p >= 0:
                assert math.acos(c) == solve_theta0(p, pp)
                assert g == 1.0 - abs(c)
            else:
                assert c == math.copysign(1.0 - g, pp)
                assert math.cos(solve_theta0(p, pp)) == pytest.approx(
                    c, abs=1e-15)
            assert dev == pytest.approx(abs(1.0 - 3.0 * c * c), abs=1e-14)


class TestEntriesPastTheFloats:
    """Entries past the float range, or past Python's 4,300-digit limit
    on int text: a value, or a package error that names each int.  The
    sign of p' came from a float of p' (OverflowError), and messages
    formatted the int (ValueError)."""

    BIG = 10 ** 5000

    def test_p_zero(self):
        for pp in (10 ** 400, self.BIG):
            assert solve_theta0(0, pp) == solve_theta0(0, 1)
            assert solve_theta0(0, -pp) == solve_theta0(0, -1)
            assert theta_roots(0, pp) == (solve_theta0(0, 1), None)

    def test_messages_name_every_int(self):
        # An int past the digit limit is named by its sign and size.
        big = "<16610-bit int>"
        with pytest.raises(DomainError, match=re.escape(
                f"(1, {big}): p'/p is past the float range")):
            solve_theta0(1, self.BIG)
        assert classify_pair(-self.BIG, 1) == (False, [
            f"(b) 2*1^2 = 2 <= <33221-bit int> = 3*(-{big})^2 with m < 0"])
        assert theta_roots(self.BIG, 1).theta0_bar is None
        with pytest.raises(DomainError, match="is not admissible"):
            ReebOrbit.generic(-self.BIG, 1)

    def test_pole_distance_past_the_floats(self):
        # Where D / p^2 underflows, g = 1 - |cos| leaves the normal floats
        # for either sign of p'; the angle is refused, not 0 or pi.
        p = 10 ** 400
        pp = math.isqrt(3 * p * p // 2) + 1
        for sign in (1, -1):
            with pytest.raises(DomainError, match="pole distance leaves "
                               "the normal floats"):
                solve_theta0(-p, sign * pp)

    def test_orbit_point_refused(self):
        orbit = ReebOrbit.generic(self.BIG, self.BIG + 1)
        with pytest.raises(DomainError, match="past the float range"):
            orbit_point(orbit, 0.5)


def theta0_bar(p, pp):
    return theta_roots(p, pp).theta0_bar


class TestSolveTheta0Bar:
    """The companion angle, theta_roots' theta0_bar."""

    def test_one_two(self):
        th = theta0_bar(1, 2)
        assert math.cos(th) == pytest.approx(-math.sqrt(2.0 / 3.0), abs=1e-15)
        assert th == pytest.approx(2.5261129449194059, abs=1e-13)

    def test_sign_flip(self):
        th = theta0_bar(1, -2)
        assert math.cos(th) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)

    def test_out_of_regime(self):
        # Only p != 0 and 2 p'^2 > 3 p^2 have a companion angle.
        assert theta0_bar(2, 1) is None
        assert theta0_bar(0, 1) is None

    def test_residuals_to_50(self):
        for p, pp in admissible_coprime_pairs(50):
            if p == 0 or 2 * pp * pp <= 3 * p * p:
                continue
            th = theta0_bar(p, pp)
            assert defining_residual(p, pp, th) < 1e-12
            # It is the companion root: opposite cosine sign from theta0.
            assert math.cos(th) * math.cos(solve_theta0(p, pp)) < 0

    def test_formula_root_bounds(self):
        # The inner root (the orbit cosine of a pair with p > 0) stays
        # below 1/sqrt3 in absolute value; the outer one (p < 0) sits
        # strictly between 1/sqrt3 and 1.  (-p, -p') has the other root.
        for p, pp in admissible_coprime_pairs(50):
            if p == 0:
                continue
            inner, outer = (p, pp), (-p, -pp)
            if p < 0:
                inner, outer = outer, inner
            assert abs(orbit_cosine(*inner)[0]) < INV_SQRT3
            if 2 * pp * pp > 3 * p * p:
                assert INV_SQRT3 < abs(orbit_cosine(*outer)[0]) < 1.0


def pell_pairs(p_max):
    """The pairs (p, p') with 2 p'^2 - 3 p^2 = 5 and 0 < p <= p_max: the
    pairs just past the threshold 2 p'^2 = 3 p^2, where the outer root's
    cosine is nearest -1 or 1.  Both classes of solutions, from (1, 2) and
    (3, 4), stepped by the unit 5 + 2 sqrt6."""
    out = []
    for p, pp in ((1, 2), (3, 4)):
        while p <= p_max:
            out.append((p, pp))
            p, pp = 4 * pp + 5 * p, 5 * pp + 6 * p
    return out


class TestPellPairs:
    def test_walk_gives_angle_or_domain_error(self):
        # The outer root takes its angle from the pole distance, so no
        # pair to 1e12 is refused.
        for p, pp in pell_pairs(10**12):
            assert 2 * pp * pp - 3 * p * p == 5
            for args in ((p, pp), (p, -pp), (-p, pp), (-p, -pp)):
                assert 0.0 < solve_theta0(*args) < math.pi, args
            for args in ((p, pp), (p, -pp)):
                assert 0.0 < theta0_bar(*args) < math.pi, args

    def test_refused_first_past_1e9(self):
        # The float cosine rounded onto +-1 past ~1e8, and outside
        # [-1, 1] past ~1e9, and refused the angle.  The pole distance
        # gives it within 4 ulp, up to the first pair whose angle is
        # within rounding of pi, at p ~ 1.1e16.
        for (p, pp), theta in [((121378881, 148658162), 7.520838235238607e-9),
                               ((1201527053, 1471564096), 7.597589474960219e-10)]:
            for sign in (1, -1):
                got = solve_theta0(-p, sign * pp)
                want = theta if sign == 1 else math.pi - theta
                assert abs(got - want) <= 4 * math.ulp(want), (p, sign)
            assert theta_roots(p, -pp).theta0_bar == solve_theta0(-p, pp)
        refused = sorted(p for p, pp in pell_pairs(10**17)
                         if not _angle_given(-p, -pp))
        assert refused == [11190938864748161, 26632150395173123]
        assert all(_angle_given(-p, pp) for p, pp in pell_pairs(10**17))


def _angle_given(p, pp):
    try:
        solve_theta0(p, pp)
    except DomainError as exc:
        assert "rounds onto pi" in str(exc)
        return False
    return True


def near_boundary_pairs():
    """300 seeded pairs per decade of |p| from 1e2 to 1e30, each with
    p' = isqrt(3 p^2 / 2) + k for k in turn from (0, 1, 2, 3, 50), in all
    four sign choices: at and just past 2 p'^2 = 3 p^2, where an outer
    root's cosine is within rounding of +-1 from p ~ 1e8 on."""
    rnd = random.Random(2029)
    out = []
    for decade in range(2, 30):
        for i in range(300):
            p = rnd.randrange(10**decade, 10**(decade + 1))
            pp = math.isqrt(3 * p * p // 2) + (0, 1, 2, 3, 50)[i % 5]
            out += [(p, pp), (p, -pp), (-p, pp), (-p, -pp)]
    return out


class TestFixedAnglesInside:
    # Cosines that round onto +-1 at (-121378881, +-148658162) and
    # (196658561, +-240856564), ahead of the generated pairs.
    PAIRS = [(-121378881, 148658162), (-121378881, -148658162),
             (196658561, 240856564), (196658561, -240856564)]

    def test_every_fixed_angle_strictly_inside(self):
        """Every fixed angle lies strictly inside (0, pi), or the pair
        is refused: no angle and no range sits on a pole."""
        def angles(call, p, pp):
            try:
                got = call(p, pp)
            except DomainError:
                return []
            return [got] if isinstance(got, float) else [
                th for th in got if th is not None]

        for p, pp in self.PAIRS + near_boundary_pairs():
            steep = 2 * pp * pp > 3 * p * p
            fixed = []
            if p > 0 or steep:
                fixed += angles(solve_theta0, p, pp)
                fixed += angles(theta_roots, p, pp)
            if steep:
                # theta0_bar, the orbit angle of (-p, -p'), where
                # theta_roots refuses theta0.
                fixed += angles(solve_theta0, -p, -pp)
            assert all(0.0 < th < math.pi for th in fixed), (p, pp, fixed)
            if p > 0 and math.gcd(p, pp) == 1:
                try:
                    ranges = classify_branches(p, pp)
                except DomainError:
                    continue
                assert all(rng.lo < rng.hi for rng in ranges), (p, pp)


class TestRuleCIsTheContactSign:
    """ROADMAP item 13(a): rule (c) picks the Reeb orbits traversed
    against the contact form, alpha_theta0(m d/dt + m' d/dphi) < 0."""

    def test_entries_to_30(self):
        refused, against, along = 0, 0, []
        for m in range(-30, 31):
            for mp in range(-30, 31):
                if m == mp == 0:
                    continue
                rule_c = m >= 0 or 2 * mp * mp > 3 * m * m
                try:
                    th = solve_theta0(m, mp)
                except DomainError as exc:
                    assert "admits no orbit angle" in str(exc), exc
                    assert not rule_c, (m, mp)
                    refused += 1
                    continue
                alpha = contact_eval(Point4(0.0, 0.0, th, 0.0),
                                     Tangent4(v_t=m, v_phi=mp))
                assert rule_c == (alpha < 0.0), (m, mp, alpha)
                if rule_c:
                    against += 1
                else:
                    along.append((m, mp, th, alpha))
        assert (refused, against) == (1072, 2618)
        # The pairs solve_theta0 answers that fail rule (c): (m, 0) with
        # m < 0, at pi/2, where alpha = -m.
        assert [(m, mp) for m, mp, _, _ in along] == [(m, 0) for m in
                                                      range(-30, 0)]
        assert all(th == math.pi / 2 and alpha == -m
                   for m, _, th, alpha in along)


class TestThetaRoots:
    def test_bar_presence(self):
        assert theta_roots(1, 1).theta0_bar is None
        assert theta_roots(1, 2).theta0_bar is not None
        assert theta_roots(0, 1).theta0_bar is None

    def test_opposite_signs(self):
        roots = theta_roots(1, 2)
        assert math.cos(roots.theta0) * math.cos(roots.theta0_bar) < 0


class TestReebOrbit:
    def test_reduction(self):
        orbit = ReebOrbit.generic(2, 4)
        assert orbit.pair == EndClass(1, 2)
        assert orbit.multiplicity == 2

    def test_inadmissible(self):
        with pytest.raises(DomainError, match=re.escape(
                "(-1, 1) is not admissible: (b) 2*1^2 = 2 <= 3 = 3*(-1)^2 "
                "with m < 0")):
            ReebOrbit.generic(-1, 1)

    def test_poles(self):
        assert ReebOrbit.pole_plus().theta0 == 0.0
        assert ReebOrbit.pole_minus().theta0 == math.pi


class TestOrbitPoint:
    @pytest.mark.parametrize("orbit, field", [
        (ReebOrbit(OrbitKind.GENERIC), "pair"),
        (ReebOrbit(OrbitKind.GENERIC, pair=EndClass(1, 1)), "theta0"),
        (ReebOrbit(OrbitKind.GENERIC, theta0=1.0), "pair"),
    ], ids=["bare", "no-theta0", "no-pair"])
    def test_generic_orbit_without_its_data(self, orbit, field):
        # A DomainError naming the field, which python -O does not strip.
        with pytest.raises(DomainError, match=f"without a {field}$"):
            orbit_point(orbit, 0.0)

    def test_pole(self):
        for tau in (0.0, 1.7, -3.0):
            t, theta, phi = orbit_point(ReebOrbit.pole_plus(), tau)
            assert theta == 0.0
        assert orbit_point(ReebOrbit.pole_minus(), 0.3)[1] == math.pi

    def test_equatorial(self):
        orbit = ReebOrbit.generic(1, 0, upsilon=0.0)
        t, theta, phi = orbit_point(orbit, 1.3)
        assert t == pytest.approx(1.3)
        assert theta == pytest.approx(math.pi / 2)
        assert phi == pytest.approx(0.0)

    def test_ratio_identity_one_one(self):
        # h/f = sin^2(theta0) along the (1, 1) orbit.
        orbit = ReebOrbit.generic(1, 1)
        s2 = math.sin(orbit.theta0) ** 2
        for i in range(100):
            tau = 2 * math.pi * i / 100
            t, theta, phi = orbit_point(orbit, tau)
            f, h, _ = coord_functions(Point4(0.0, t, theta, phi))
            assert h - s2 * f == pytest.approx(0.0, abs=1e-12)

    def test_phase_identity(self):
        rnd = random.Random(23)
        for p, pp in [(1, 0), (1, 1), (2, 5), (-1, 2), (0, 1), (3, 1)]:
            ups = rnd.uniform(0, 2 * math.pi)
            orbit = ReebOrbit.generic(p, pp, upsilon=ups)
            for _ in range(20):
                tau = rnd.uniform(-20, 20)
                t, theta, phi = orbit_point(orbit, tau)
                lhs = (pp * t - p * phi - ups) % (2 * math.pi)
                assert min(lhs, 2 * math.pi - lhs) == pytest.approx(0.0, abs=1e-12)

    def test_pointwise_ratio_identity(self):
        for p, pp in [(1, 1), (2, 5), (-1, 2), (1, -3), (3, 1)]:
            orbit = ReebOrbit.generic(p, pp)
            ratio = pp / p * math.sin(orbit.theta0) ** 2
            for i in range(25):
                t, theta, phi = orbit_point(orbit, 0.37 * i)
                f, h, _ = coord_functions(Point4(0.0, t, theta, phi))
                assert h == pytest.approx(ratio * f, abs=1e-12)

    @pytest.mark.parametrize("pair, tau", [
        ((10 ** 400, 10 ** 400 + 1), 0.5),     # p'/p = 1.0, p has no float
        ((-10 ** 400, 2 * 10 ** 400 + 1), 0.5),  # p < 0, steep
        ((10 ** 300, 10 ** 308 + 1), 3.0),     # p' tau rounds to inf
    ])
    def test_entries_past_the_float_range(self, pair, tau):
        # The orbit builds, since p'/p is a float; its points are refused
        # by name, not with a bare OverflowError, in example 1 too.
        orbit = ReebOrbit.generic(*pair)
        prefix = re.escape(f"{pair}: ")
        with pytest.raises(DomainError, match=prefix):
            orbit_point(orbit, tau)
        with pytest.raises(DomainError, match=prefix):
            eval_invariant_curve(CurveSpec.example1(orbit), tau,
                                 1.0 if pair[0] > 0 else -1.0)   # u has p's sign


_NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteAngles:
    """A nan or infinite tau or upsilon is a DomainError naming it, as
    Point4 refuses a non-finite t or phi: not a bare 'math domain error'
    from fmod, and not a nan passed on into a point."""

    @pytest.mark.parametrize("x", _NON_FINITE)
    @pytest.mark.parametrize("orbit", [
        ReebOrbit.pole_plus(), ReebOrbit.pole_minus(),
        ReebOrbit.generic(0, 1, upsilon=0.7), ReebOrbit.generic(1, 2),
        ReebOrbit.generic(-1, 2, upsilon=0.3)],
        ids=["pole+", "pole-", "p = 0", "(1, 2)", "(-1, 2)"])
    def test_orbit_point_tau(self, orbit, x):
        with pytest.raises(DomainError, match=f"^tau = {x} is not finite"):
            orbit_point(orbit, x)

    @pytest.mark.parametrize("x", _NON_FINITE)
    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 4)],
                             ids=["p = 0", "(1, 2)", "(2, 4)"])
    def test_generic_upsilon(self, pair, x):
        with pytest.raises(DomainError, match=f"^upsilon = {x} is not finite"):
            ReebOrbit.generic(*pair, upsilon=x)
