import math
import random

import pytest

from sympl_moduli import (EndClass, ReebOrbit, classify_pair, orbit_point,
                          solve_theta0, solve_theta0_bar, theta_roots)
from sympl_moduli.errors import DomainError, InvalidLabel, OutOfRegime, ZeroPair
from sympl_moduli.geometry import SQRT6, Point4, coord_functions
from sympl_moduli.reeb import _cos_inner_root, _cos_outer_root

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
        with pytest.raises(ZeroPair):
            solve_theta0(0, 0)

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


class TestSolveTheta0Bar:
    def test_one_two(self):
        th = solve_theta0_bar(1, 2)
        assert math.cos(th) == pytest.approx(-math.sqrt(2.0 / 3.0), abs=1e-15)
        assert th == pytest.approx(2.5261129449194059, abs=1e-13)

    def test_sign_flip(self):
        th = solve_theta0_bar(1, -2)
        assert math.cos(th) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegime):
            solve_theta0_bar(2, 1)
        with pytest.raises(OutOfRegime):
            solve_theta0_bar(0, 1)

    def test_residuals_to_50(self):
        for p, pp in admissible_coprime_pairs(50):
            if p == 0 or 2 * pp * pp <= 3 * p * p:
                continue
            th = solve_theta0_bar(p, pp)
            assert defining_residual(p, pp, th) < 1e-12
            # It is the companion root: opposite cosine sign from theta0.
            assert math.cos(th) * math.cos(solve_theta0(p, pp)) < 0

    def test_formula_root_bounds(self):
        # The inner formula root stays below 1/sqrt3 in absolute value;
        # the outer one sits strictly between 1/sqrt3 and 1.
        for p, pp in admissible_coprime_pairs(50):
            if p == 0:
                continue
            alpha = pp / p
            if pp != 0:
                assert abs(_cos_inner_root(alpha)) < INV_SQRT3
            if 2 * pp * pp > 3 * p * p:
                assert INV_SQRT3 < abs(_cos_outer_root(alpha)) < 1.0


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
        refused = 0
        for p, pp in pell_pairs(10**12):
            assert 2 * pp * pp - 3 * p * p == 5
            for args in ((p, pp), (p, -pp), (-p, pp), (-p, -pp)):
                try:
                    th = solve_theta0(*args)
                except DomainError:
                    refused += 1
                    continue
                assert math.isfinite(th) and 0.0 <= th <= math.pi
            for args in ((p, pp), (p, -pp)):
                try:
                    th = solve_theta0_bar(*args)
                except DomainError:
                    continue
                assert math.isfinite(th) and 0.0 <= th <= math.pi
        assert refused > 0

    def test_refused_first_past_1e9(self):
        assert solve_theta0(-121378881, -148658162) == math.pi
        assert solve_theta0(-121378881, 148658162) == 0.0
        for args in ((-1201527053, 1471564096), (-1201527053, -1471564096)):
            with pytest.raises(DomainError, match=r"outside \[-1, 1\]"):
                solve_theta0(*args)
        with pytest.raises(DomainError):
            theta_roots(1201527053, 1471564096)


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
        with pytest.raises(InvalidLabel):
            ReebOrbit.generic(-1, 1)

    def test_poles(self):
        assert ReebOrbit.pole_plus().theta0 == 0.0
        assert ReebOrbit.pole_minus().theta0 == math.pi


class TestOrbitPoint:
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
