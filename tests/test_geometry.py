import cmath
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympl_moduli import (BranchId, EndClass, Label2, ModelMapParams, Point4,
                          ReebOrbit, Tangent4, apply_J, asymptotic_constants,
                          classify_pair, contact_eval, coord_functions,
                          lambda_of_theta, omega_eval, orbit_point, phi_eval,
                          reeb_vector, theta_from_lambda)
from sympl_moduli import points
from sympl_moduli.errors import DomainError
from sympl_moduli.geometry import SQRT6, THETA_C, _reduce_angle, fh_rows
from sympl_moduli.points import fh_at

import shadow

SQRT6_ = math.sqrt(6.0)


def random_points(n, seed=20260810, margin=0.01):
    rnd = random.Random(seed)
    return [Point4(s=rnd.uniform(-2, 2), t=rnd.uniform(0, 2 * math.pi),
                   theta=rnd.uniform(margin, math.pi - margin),
                   phi=rnd.uniform(0, 2 * math.pi)) for _ in range(n)]


class TestCoordFunctions:
    def test_equator(self):
        f, h, g = coord_functions(Point4(0, 0, math.pi / 2, 0))
        assert f == pytest.approx(1.0, abs=1e-15)
        assert h == pytest.approx(0.0, abs=1e-15)
        assert g == pytest.approx(SQRT6_, abs=1e-14)

    def test_north_pole(self):
        f, h, g = coord_functions(Point4(0, 0, 0.0, 0))
        assert f == pytest.approx(-2.0, abs=1e-15)
        assert h == pytest.approx(0.0, abs=1e-15)
        assert g == pytest.approx(2 * SQRT6_, abs=1e-14)

    def test_frozen_point(self):
        # Oracle: mpmath at 40 digits, f = e^{-sqrt6}(1 - 3/4) etc.
        f, h, g = coord_functions(Point4(1.0, 0, math.pi / 3, 0))
        assert f == pytest.approx(0.021584407415090509, rel=1e-14)
        assert h == pytest.approx(0.079306176850976058, rel=1e-14)
        assert g == pytest.approx(0.23045840699464624, rel=1e-14)

    def test_g_positive(self):
        assert all(coord_functions(p)[2] > 0 for p in random_points(100))

    @pytest.mark.parametrize("s, word", [(-400.0, "overflow"),
                                         (300.0, "underflow"),
                                         (math.nan, "not finite")])
    def test_outside_the_normal_floats_is_a_domain_error(self, s, word):
        # e^{-sqrt6 s} overflows at s = -400 and is subnormal at s = 300.
        with pytest.raises(DomainError, match=word):
            coord_functions(Point4(s, 0, 1.0, 0))

    def test_domain_edges(self):
        # The factor is a normal float with 2 sqrt6 e finite for about
        # -289.12 < s < 289.20.
        for s in (-289.1, 289.1):
            e, _, _ = fh_at(s, 1.0)
            assert sys.float_info.min <= e <= sys.float_info.max / (2 * SQRT6)
        for s, words in ((-289.2, "f, h or g overflow a float"),
                         (-289.8, "f, h or g overflow a float"),
                         (289.3, "f and h underflow the normal floats")):
            with pytest.raises(DomainError, match=f"^{words} at theta = 1.0 "):
                fh_at(s, 1.0)

    def test_products_of_the_factor_overflow_nowhere(self):
        # fh_at(-289.6, 0.0) gave f = -inf, h = nan, and coord_functions
        # at s = -289.3 gave g = inf: e was finite, its products not.
        with pytest.raises(DomainError, match="overflow"):
            fh_at(-289.6, 0.0)
        with pytest.raises(DomainError, match="overflow"):
            coord_functions(Point4(-289.3, 0, 0.0, 0))
        frame = [Tangent4(v_s=1), Tangent4(v_t=1), Tangent4(v_theta=1),
                 Tangent4(v_phi=1)]
        edges = [-289.0 - i * 0.005 for i in range(161)]
        edges += [289.0 + i * 0.005 for i in range(61)] + [-1e308, 1e308]
        for s in edges:
            for k in range(33):
                p = Point4(s, 0, math.pi * k / 32, 0)
                try:
                    values = [*fh_at(s, p.theta), *coord_functions(p)]
                    if not p.at_pole:
                        values += [omega_eval(p, v, w)
                                   for v in frame for w in frame]
                except DomainError:
                    continue
                assert all(math.isfinite(x) for x in values), (s, p.theta)


def _accepted(s):
    try:
        fh_at(s, 1.0)
    except DomainError:
        return False
    return True


def _guard_limit(inside, outside):
    """The last float from inside toward outside that fh_at accepts."""
    while math.nextafter(inside, outside) != outside:
        mid = 0.5 * (inside + outside)
        if _accepted(mid):
            inside = mid
        else:
            outside = mid
    return inside


class TestFhRows:
    """fh_rows' columns have, row by row, the bits of fh_at, its one-row
    case, and a refused row in a block is named as fh_at names it."""

    LIMITS = (_guard_limit(0.0, -300.0), _guard_limit(0.0, 300.0))
    REFUSED = [math.nextafter(LIMITS[0], -math.inf),
               math.nextafter(LIMITS[1], math.inf), -400.0, 300.0, -1e308,
               1e308, math.nan, math.inf, -math.inf]

    def pairs(self):
        lo, hi = self.LIMITS
        rnd = random.Random(20261019)
        edges = [lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, 0.0),
                 -289.0, 289.0, 0.0, -0.0]
        thetas = [0.0, math.pi, 0.5 * math.pi, THETA_C, math.pi - THETA_C]
        pairs = [(s, theta) for s in edges for theta in thetas]
        pairs += [(rnd.uniform(lo, hi), rnd.uniform(0.0, math.pi))
                  for _ in range(1960)]
        return pairs

    def test_guard_limits(self):
        lo, hi = self.LIMITS
        assert -289.13 < lo < -289.11 and 289.19 < hi < 289.21
        assert all(not _accepted(s) for s in self.REFUSED)

    def test_columns_are_fh_at_rows(self):
        pairs = self.pairs()
        assert len(pairs) >= 2000
        s_values, thetas = zip(*pairs)
        columns = fh_rows(s_values, thetas)
        assert [len(col) for col in columns] == [len(pairs)] * 3
        got = [repr(row) for row in zip(*columns)]
        assert got == [repr(fh_at(s, theta)) for s, theta in pairs]

    @pytest.mark.parametrize("bad", REFUSED)
    def test_refused_row_in_a_block_is_named_as_fh_at_names_it(self, bad):
        pairs = self.pairs()[:101]
        theta = 1.25
        s_values = [s for s, _ in pairs]
        thetas = [th for _, th in pairs]
        s_values[50:50] = [bad, -500.0]     # a second refused row after it
        thetas[50:50] = [theta, 2.0]
        with pytest.raises(DomainError) as one:
            fh_at(bad, theta)
        with pytest.raises(DomainError) as block:
            fh_rows(s_values, thetas)
        assert str(block.value) == str(one.value)

    def test_f_near_each_cone_angle_against_mpmath(self):
        """Within 1e-10 of THETA_C and of pi - THETA_C, 1 - 3 cos^2 theta
        cancels, and f is taken from the exact cone angle: each f is
        within 8 eps relative of the 50-digit value, about one for each
        rounded operation (worst 3.5 eps on 6,000 random angles there;
        the direct form was 1e-6 off at 1e-10 from the cone).  THETA_C,
        a literal, and the stated gaps are checked against the exact
        angle too."""
        from sympl_moduli.geometry import _CONE_BAR_LOW, _CONE_LOW
        low, bar_low = shadow.cone_angles_above(THETA_C, math.pi - THETA_C)
        assert abs(low - _CONE_LOW) < 1e-32
        assert abs(bar_low - _CONE_BAR_LOW) < 1e-32
        thetas = [base + k * 1e-11 for base in (THETA_C, math.pi - THETA_C)
                  for k in range(-10, 11)]
        thetas += [math.nextafter(base, toward) for base in
                   (THETA_C, math.pi - THETA_C) for toward in (0.0, 4.0)]
        s_values = [0.25] * len(thetas)
        _, fs, _ = fh_rows(s_values, thetas)
        for s, theta, f in zip(s_values, thetas, fs):
            want = shadow.fh(s, theta)[1]
            assert abs(f - want) <= 8 * 2.0 ** -52 * abs(want), theta

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=100)
    @given(st.one_of(st.floats(), st.floats(-300.0, 300.0),
                     st.sampled_from(LIMITS + tuple(REFUSED[:2]))),
           st.floats(0.0, math.pi))
    def test_values_are_finite_or_refused(self, s, theta):
        """fh_at and coord_functions give finite values at (s, theta),
        or both raise DomainError."""
        p = Point4(s, 0.0, theta, 0.0)
        try:
            values = fh_at(s, theta)
        except DomainError:
            with pytest.raises(DomainError):
                coord_functions(p)
            return
        assert all(math.isfinite(x) for x in values + coord_functions(p))


#: A Tangent4 with one nan or infinite coefficient, which check_at
#: refuses with DomainError naming it: contact_eval, omega_eval and
#: apply_J returned nan or inf.
NON_FINITE_TANGENTS = pytest.mark.parametrize("field,value", [
    (field, value) for field in Tangent4._fields
    for value in (math.nan, math.inf)])


class TestContactForm:
    @NON_FINITE_TANGENTS
    def test_non_finite_tangent_is_refused(self, field, value):
        v = Tangent4(**{field: value})
        with pytest.raises(DomainError, match=f"^{field} = {value} is not"):
            contact_eval(Point4(0, 0, 1.0, 0), v)

    def test_equator_dt(self):
        p = Point4(0, 0, math.pi / 2, 0)
        assert contact_eval(p, Tangent4(v_t=1)) == pytest.approx(-1.0)

    def test_pole_dt(self):
        p = Point4(0, 0, 0.0, 0)
        assert contact_eval(p, Tangent4(v_t=1)) == pytest.approx(2.0)

    def test_reeb_contracts_to_one(self):
        for p in random_points(100):
            assert contact_eval(p, reeb_vector(p)) == pytest.approx(1.0, abs=1e-12)

    def test_reeb_contracts_to_one_at_poles(self):
        for theta in (0.0, math.pi):
            p = Point4(0.7, 1.0, theta, 0.0)
            assert contact_eval(p, reeb_vector(p)) == pytest.approx(1.0, abs=1e-12)


class TestReebVector:
    def test_equator_value(self):
        # alpha = -dt at the equator, so the Reeb field is -d/dt there.
        v = reeb_vector(Point4(0, 0, math.pi / 2, 0))
        assert v.v_t == pytest.approx(-1.0, abs=1e-15)
        assert v.v_s == v.v_theta == 0.0
        assert v.v_phi == pytest.approx(0.0, abs=1e-15)

    def test_pole_value(self):
        # alpha = 2 dt at theta = 0; the degenerate d/dphi term is dropped.
        v = reeb_vector(Point4(0, 0, 0.0, 0))
        assert v.v_t == pytest.approx(0.5, abs=1e-15)
        assert v.v_phi == 0.0

    def test_s_independent(self):
        a = reeb_vector(Point4(-1.5, 0, 1.0, 0))
        b = reeb_vector(Point4(2.5, 0, 1.0, 0))
        assert a == b

    def test_annihilates_dalpha(self):
        # dalpha(reeb, w) = 0 for the coordinate directions, via
        # dalpha = omega restricted plus the exponential factor:
        # omega = d(e^{-sqrt6 s} alpha) = e^{-sqrt6 s}(dalpha - sqrt6 ds ^ alpha),
        # so on vectors w with w_s = 0 and at points where alpha(w) is
        # cancelled, test omega(reeb, w) + sqrt6 e^{-sqrt6 s} alpha(w) *
        # ds(reeb) = e^{-sqrt6 s} dalpha(reeb, w); reeb has no s component.
        for p in random_points(30, seed=5):
            v = reeb_vector(p)
            e = math.exp(-SQRT6 * p.s)
            for w in (Tangent4(v_s=1), Tangent4(v_t=1), Tangent4(v_theta=1),
                      Tangent4(v_phi=1)):
                # omega(v, w) = e^{-sqrt6 s}[dalpha(v,w) - sqrt6(ds^alpha)(v,w)]
                dalpha = omega_eval(p, v, w) / e + SQRT6 * (
                    -w.v_s * contact_eval(p, v) + 0.0)
                assert dalpha == pytest.approx(0.0, abs=1e-12)


class TestOmega:
    @NON_FINITE_TANGENTS
    def test_non_finite_tangent_is_refused(self, field, value):
        v = Tangent4(**{field: value})
        p = Point4(0, 0, 1.0, 0)
        for args in ((v, Tangent4(v_t=1.0)), (Tangent4(v_t=1.0), v)):
            with pytest.raises(DomainError, match=f"^{field} = {value} is not"):
                omega_eval(p, *args)

    def test_antisymmetry(self):
        rnd = random.Random(3)
        for p in random_points(50, seed=9):
            v = Tangent4(*(rnd.uniform(-1, 1) for _ in range(4)))
            w = Tangent4(*(rnd.uniform(-1, 1) for _ in range(4)))
            assert omega_eval(p, v, v) == pytest.approx(0.0, abs=1e-14)
            assert omega_eval(p, v, w) == pytest.approx(-omega_eval(p, w, v),
                                                        abs=1e-13)

    def test_ds_dt_value(self):
        # df = -sqrt6 ds at (s=0, theta=pi/2), so omega(d/ds, d/dt) = sqrt6.
        p = Point4(0, 0, math.pi / 2, 0)
        assert omega_eval(p, Tangent4(v_s=1), Tangent4(v_t=1)) == pytest.approx(SQRT6_)
        assert omega_eval(p, Tangent4(v_t=1), Tangent4(v_s=1)) == pytest.approx(-SQRT6_)

    def test_tames_J(self):
        rnd = random.Random(4)
        for p in random_points(50, seed=11):
            v = Tangent4(*(rnd.uniform(-1, 1) for _ in range(4)))
            if all(x == 0 for x in (v.v_s, v.v_t, v.v_theta, v.v_phi)):
                continue
            assert omega_eval(p, v, apply_J(p, v)) > 0.0


class TestJ:
    @NON_FINITE_TANGENTS
    def test_non_finite_tangent_is_refused(self, field, value):
        v = Tangent4(**{field: value})
        with pytest.raises(DomainError, match=f"^{field} = {value} is not"):
            apply_J(Point4(0, 0, 1.0, 0), v)

    def test_equator_images(self):
        p = Point4(0, 0, math.pi / 2, 0)
        jt = apply_J(p, Tangent4(v_t=1))
        assert jt.v_s == pytest.approx(-1.0, abs=1e-14)
        assert (jt.v_t, jt.v_theta, jt.v_phi) == pytest.approx((0, 0, 0), abs=1e-14)
        jphi = apply_J(p, Tangent4(v_phi=1))
        assert jphi.v_theta == pytest.approx(-1.0, abs=1e-14)
        assert (jphi.v_s, jphi.v_t, jphi.v_phi) == pytest.approx((0, 0, 0), abs=1e-14)

    def test_square_is_minus_one(self):
        rnd = random.Random(6)
        for p in random_points(100, seed=13, margin=0.01):
            v = Tangent4(*(rnd.uniform(-1, 1) for _ in range(4)))
            jjv = apply_J(p, apply_J(p, v))
            for got, want in ((jjv.v_s, v.v_s), (jjv.v_t, v.v_t),
                              (jjv.v_theta, v.v_theta), (jjv.v_phi, v.v_phi)):
                assert got == pytest.approx(-want, abs=1e-10)

    @pytest.mark.parametrize("s", [-280.0, -150.0, 0.0, 200.0, 400.0])
    def test_square_is_minus_one_at_every_s(self, s):
        # The factor e^{-sqrt6 s} cancels in J: J^2 v was nan at s = -150
        # and J raised ZeroDivisionError at s = 200.
        rnd = random.Random(8)
        for p in random_points(50, seed=19, margin=0.01):
            p = p._replace(s=s)
            v = Tangent4(*(rnd.uniform(-1, 1) for _ in range(4)))
            jjv = apply_J(p, apply_J(p, v))
            assert jjv == pytest.approx(tuple(-x for x in v), abs=1e-10)
            assert apply_J(p, v) == apply_J(p._replace(s=0.0), v)

    def test_pole_refused(self):
        with pytest.raises(DomainError, match=r"\(theta = 0.0\)$"):
            apply_J(Point4(0, 0, 0.0, 0), Tangent4(v_t=1))
        with pytest.raises(DomainError, match=r"\(theta = 3.14159\d+\)$"):
            apply_J(Point4(0, 0, math.pi, 0), Tangent4(v_t=1))
        # sin^2 theta underflows: J divided by 0 (ZeroDivisionError).
        with pytest.raises(DomainError, match="underflows"):
            apply_J(Point4(0, 0, 1e-170, 0), Tangent4(v_s=1.0))

    def test_metric_recovery(self):
        # g^{-1} omega(., J.) on the coordinate frame is the round product
        # metric diag(1, 1, 1, sin^2 theta).
        frame = [Tangent4(v_s=1), Tangent4(v_t=1), Tangent4(v_theta=1),
                 Tangent4(v_phi=1)]
        for p in random_points(100, seed=17, margin=0.05):
            g = coord_functions(p)[2]
            expected = [1.0, 1.0, 1.0, math.sin(p.theta) ** 2]
            for i, ei in enumerate(frame):
                for j, ej in enumerate(frame):
                    got = omega_eval(p, ei, apply_J(p, ej)) / g
                    want = expected[i] if i == j else 0.0
                    assert got == pytest.approx(want, abs=1e-10)


#: Each branch's first and last float angle: THETA_C and pi - THETA_C
#: lie below the exact cone angles.
_BRANCH_ENDS = {
    BranchId.A: (0.0, THETA_C),
    BranchId.B: (math.nextafter(THETA_C, 4.0), math.pi - THETA_C),
    BranchId.C: (math.nextafter(math.pi - THETA_C, 4.0), math.pi),
}


def _lands_on_crossing(lam, branch, theta):
    """lambda at theta and at its float neighbour on the far side of lam
    bracket lam (lambda decreases on a branch), or theta is a branch end
    where lambda already passes lam."""
    lo, hi = _BRANCH_ENDS[branch]
    if not lo <= theta <= hi:
        return False
    here = lambda_of_theta(theta)
    if here > lam:
        return theta == hi or lambda_of_theta(
            math.nextafter(theta, math.inf)) <= lam
    if here < lam:
        return theta == lo or lambda_of_theta(
            math.nextafter(theta, -math.inf)) >= lam
    return True


class TestThetaFromLambda:
    def test_zero_is_equator(self):
        assert theta_from_lambda(0.0, BranchId.B) == pytest.approx(
            math.pi / 2, abs=1e-12)

    def test_pi_over_three(self):
        # lambda(pi/3) = 1.5 sqrt6, verified by forward evaluation.
        lam = 1.5 * SQRT6_
        assert lambda_of_theta(math.pi / 3) == pytest.approx(lam, rel=1e-15)
        assert theta_from_lambda(lam, BranchId.B) == pytest.approx(
            math.pi / 3, abs=1e-12)

    def test_mirror(self):
        assert theta_from_lambda(-1.5 * SQRT6_, BranchId.B) == pytest.approx(
            2 * math.pi / 3, abs=1e-12)

    @pytest.mark.parametrize("branch,lo,hi", [
        (BranchId.A, 1e-3, THETA_C - 1e-3),
        (BranchId.B, THETA_C + 1e-3, math.pi - THETA_C - 1e-3),
        (BranchId.C, math.pi - THETA_C + 1e-3, math.pi - 1e-3),
    ])
    def test_round_trip(self, branch, lo, hi):
        for i in range(101):
            theta = lo + (hi - lo) * i / 100
            back = theta_from_lambda(lambda_of_theta(theta), branch)
            assert back == pytest.approx(theta, abs=4e-16)

    def test_strictly_decreasing(self):
        for lo, hi in ((1e-3, THETA_C - 1e-3),
                       (THETA_C + 1e-3, math.pi - THETA_C - 1e-3),
                       (math.pi - THETA_C + 1e-3, math.pi - 1e-3)):
            vals = [lambda_of_theta(lo + (hi - lo) * i / 1000)
                    for i in range(1001)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_lands_on_the_float_crossing(self):
        """6,000 seeded lambda, each on B and on A or C by its sign: the
        returned angle is the float where lambda crosses.  The bisection
        to a bracket of 1e-14 that came before missed 5,632 of them."""
        rnd = random.Random(7)
        for _ in range(3000):
            lam = (math.tan(rnd.uniform(-1.5, 1.5))
                   * 10.0 ** rnd.uniform(-6.0, 6.0))
            for branch in (BranchId.B,
                           BranchId.A if lam < 0.0 else BranchId.C):
                theta = theta_from_lambda(lam, branch)
                assert _lands_on_crossing(lam, branch, theta), (lam, branch)

    @pytest.mark.parametrize("lam", [0.0, -0.0, 5e-324, -5e-324, 1e-300,
                                     -1e-300, 1e300, -1e300])
    def test_edges(self, lam, monkeypatch):
        """The extreme lambda on every branch that takes them: a float
        angle on the closed branch, the pole for lambda = +-0 on A and
        C, and at most 600 evaluations of lambda (593 at -5e-324 on A,
        where the bracket halves down to theta ~ 1e-162)."""
        calls = []

        def counted(theta):
            calls.append(theta)
            return lambda_of_theta(theta)

        monkeypatch.setattr(points, "lambda_of_theta", counted)
        for branch in BranchId:
            if (branch is BranchId.A and lam > 0.0
                    or branch is BranchId.C and lam < 0.0):
                continue
            calls.clear()
            theta = theta_from_lambda(lam, branch)
            assert len(calls) <= 600, (lam, branch, len(calls))
            assert _lands_on_crossing(lam, branch, theta), (lam, branch)
            if lam == 0.0 and branch is not BranchId.B:
                assert theta == (0.0 if branch is BranchId.A else math.pi)

    def test_range_errors(self):
        with pytest.raises(DomainError, match="branch A needs lambda <= 0"):
            theta_from_lambda(0.5, BranchId.A)
        with pytest.raises(DomainError, match="branch C needs lambda >= 0"):
            theta_from_lambda(-0.5, BranchId.C)
        with pytest.raises(DomainError, match="lambda = nan is not finite"):
            theta_from_lambda(float("nan"), BranchId.B)
        # 'math domain error' at inf, and nan returned for nan.
        for theta in (math.inf, math.nan, -1e-300):
            with pytest.raises(DomainError, match="outside"):
                lambda_of_theta(theta)


#: Angles that the package's earlier wraps (fmod and add 2*pi, or
#: Python's %) took to 2*pi or to -0.0.
def _reflect(p):
    """sigma(s, t, theta, phi) = (s, t, pi - theta, -phi)."""
    return Point4(p.s, p.t, math.pi - p.theta, -p.phi)


def _reflect_vector(v):
    """sigma's differential: d/dtheta and d/dphi change sign."""
    return Tangent4(v.v_s, v.v_t, -v.v_theta, -v.v_phi)


def _reflection_draws(n=2000, seed=20261019):
    """n seeded (point, v, w): points as random_points', vectors with
    entries uniform in [-1, 1]."""
    rnd = random.Random(seed)
    return [(point, *(Tangent4(*(rnd.uniform(-1.0, 1.0) for _ in range(4)))
                      for _ in range(2)))
            for point in random_points(n, seed=seed)]


class TestReflection:
    """The reflection sigma(s, t, theta, phi) = (s, t, pi - theta, -phi)
    across the geometry and invariants layers (ROADMAP item 17).  sigma
    sends cos(theta) to -cos(theta), so it maps (f, h, g) to (f, -h, g),
    preserves alpha and omega = dt ^ df + dphi ^ dh, commutes with J and
    the Reeb field, and is an isometry of the round metric
    g^{-1} omega(., J.).  On data it maps lambda to -lambda, branch A
    to C and B to itself, and the end class (m, m') to (m, -m').  Each
    check is on 2,000 seeded points with sin^2(theta) >= 1e-4 and
    vectors, to a bound a few times the worst gap measured.

    A mutation that is itself sigma-symmetric passes the commuting
    checks: sigma multiplies each component of J by a fixed sign, so a
    sign flip of one component of apply_J (out_phi, say) still commutes.
    The metric check reads omega and J against the round metric, which
    does not go through apply_J, and fails on that flip."""

    def test_coord_functions(self):
        for p, _, _ in _reflection_draws():
            f, h, g = coord_functions(p)
            f2, h2, g2 = coord_functions(_reflect(p))
            assert max(abs(f2 - f), abs(h2 + h), abs(g2 - g)) <= 4e-15 * g

    def test_contact_form_and_omega(self):
        for p, v, w in _reflection_draws():
            q, v2, w2 = _reflect(p), _reflect_vector(v), _reflect_vector(w)
            g = coord_functions(p)[2]
            assert abs(contact_eval(q, v2) - contact_eval(p, v)) <= 1e-14
            assert (abs(omega_eval(q, v2, w2) - omega_eval(p, v, w))
                    <= 1e-14 * g)

    def test_J_and_reeb_vector_commute(self):
        # |J v| grows like 1/sin^2(theta), to about 1e4 here.
        for p, v, _ in _reflection_draws():
            q = _reflect(p)
            want = _reflect_vector(apply_J(p, v))
            got = apply_J(q, _reflect_vector(v))
            scale = max(1.0, *map(abs, want))
            assert max(map(abs, (a - b for a, b in zip(got, want)))) \
                <= 1e-13 * scale
            got = reeb_vector(q)
            want = _reflect_vector(reeb_vector(p))
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14

    def test_round_metric(self):
        for p, v, w in _reflection_draws():
            q = _reflect(p)
            g = coord_functions(p)[2]
            metric = (v.v_s * w.v_s + v.v_t * w.v_t + v.v_theta * w.v_theta
                      + math.sin(p.theta) ** 2 * v.v_phi * w.v_phi)
            got = omega_eval(q, _reflect_vector(v),
                             apply_J(q, _reflect_vector(w))) / g
            assert abs(got - metric) <= 1e-14

    def test_theta_from_lambda(self):
        """Each angle is the float where lambda crosses, so an angle and
        its image are within 1.5e-15, about three ulps of pi
        (the worst gap is 4.4e-16)."""
        rnd = random.Random(20261019)
        for _ in range(2000):
            lam = (math.tan(rnd.uniform(-1.5, 1.5))
                   * 10.0 ** rnd.uniform(-3.0, 3.0))
            pairs = [(BranchId.B, BranchId.B)]
            if lam < 0.0:
                pairs.append((BranchId.A, BranchId.C))
            for branch, image in pairs:
                theta = theta_from_lambda(lam, branch)
                assert (abs(theta_from_lambda(-lam, image)
                            - (math.pi - theta)) <= 1.5e-15), (lam, branch)

    def test_asymptotic_constants(self):
        """Relative gap within 3e-14 over every coprime admissible end
        with m != 0, |m| <= 30 and |m'| <= 45.  The bits differ, as
        theta0 = acos(cos) rounds before its cosine and sine are taken
        again (TestAsymptoticConstants::test_pinned_bits pins them)."""
        ends = [(m, mp) for m in range(-30, 31) for mp in range(-45, 46)
                if m and math.gcd(m, mp) == 1 and classify_pair(m, mp)[0]]
        assert len(ends) == 2663
        for m, mp in ends:
            data = asymptotic_constants(EndClass(m, mp))
            image = asymptotic_constants(EndClass(m, -mp))
            for x, y in zip(data, image):
                assert abs(x - y) <= 3e-14 * abs(x), (m, mp)


_WRAP_TO_ZERO = [-1e-20, -4.44e-16, -0.0, -2 * math.pi]


def _is_positive_zero(x):
    return x == 0.0 and math.copysign(1.0, x) == 1.0


class TestOneAngleWrap:
    """t and phi of a point, an orbit point and a model-map value lie in
    [0, 2*pi) through _reduce_angle; just below a multiple of 2*pi that
    is +0.0, never 2*pi."""

    @pytest.mark.parametrize("x", _WRAP_TO_ZERO)
    def test_reduce_angle(self, x):
        assert _is_positive_zero(_reduce_angle(x))

    @pytest.mark.parametrize("x", _WRAP_TO_ZERO)
    def test_point4(self, x):
        pt = Point4(0.0, x, 1.0, x)
        assert _is_positive_zero(pt.t) and _is_positive_zero(pt.phi)

    @pytest.mark.parametrize("orbit,tau", [
        (ReebOrbit.pole_plus(), -1e-20),
        (ReebOrbit.pole_minus(), -4.44e-16),
        (ReebOrbit.generic(0, 1, upsilon=-1e-20), -1e-20),
        (ReebOrbit.generic(1, 2), -1e-20),
        (ReebOrbit.generic(1, 2), -2 * math.pi),
    ], ids=["pole+", "pole-", "p = 0", "(1, 2)", "(1, 2) at -2pi"])
    def test_orbit_point(self, orbit, tau):
        t, _, phi = orbit_point(orbit, tau)
        assert _is_positive_zero(t) and _is_positive_zero(phi)

    def test_phi_eval(self):
        # lambda = lambda' = 2 e^{1e-20 i}, so t and phi wrap -1e-20.
        twist = cmath.exp(1e-20j)
        params = ModelMapParams(Label2.make((1, 0), (0, 1)), r=1.0, a=twist,
                                a_prime=twist)
        out = phi_eval(params, 0.5)
        assert _is_positive_zero(out.t) and _is_positive_zero(out.phi)

    def test_nan_stays_nan(self):
        # The wrap passes a nan on; orbit_point refuses it by name, as
        # Point4 does (tests/test_reeb.py::TestNonFiniteAngles).
        assert math.isnan(_reduce_angle(math.nan))
        for tau in (math.nan, math.inf):
            with pytest.raises(DomainError, match=f"^tau = {tau} is not"):
                orbit_point(ReebOrbit.pole_plus(), tau)


def test_tangent_phi_at_pole_rejected():
    p = Point4(0, 0, 0.0, 0)
    with pytest.raises(DomainError,
                       match=r"^v_phi must vanish at theta in \{0, pi\}$"):
        contact_eval(p, Tangent4(v_phi=1.0))
