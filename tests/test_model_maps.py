import cmath
import hashlib
import json
import math
import random
import sys
import tracemalloc
from collections.abc import Iterator

import pytest
from hypothesis import example, given, reject, settings

from conftest import (INADMISSIBLE, double_points_json, double_points_lattice,
                      label_pairs)
from sympl_moduli import (DoublePoint, Label2, ModelMapParams, OrderedLabel3,
                          delta, double_points_bruteforce,
                          double_points_formula, enumerate_labels,
                          immersion_residual, model_maps, phi_double_points,
                          phi_eval, residue_pairs)
from sympl_moduli.errors import DomainError, InternalError
from sympl_moduli.model_maps import _point_residual, _powers_normal

L_UNIT = Label2.make((1, 0), (0, 1))
L_SYM = Label2.make((2, 1), (1, 2))
L_41 = Label2.make((4, 1), (1, 1))
L_5 = Label2.make((1, -1), (1, 4))


def label_of(pairs):
    """A two-end label, or ordering 0 of a three-end one, as the CLI
    reads --pairs."""
    if len(pairs) == 2:
        return Label2.make(*pairs)
    return OrderedLabel3.make(pairs, 0)


def root(b, d):
    """exp(2 pi i b / d), with the bits of phi_double_points' roots."""
    return cmath.exp(2j * math.pi * b / d)


def relation_gap(dp, d):
    """|(1 - w) - eta'(1 - z)| / |1 - w| of a double point."""
    return abs((1.0 - dp.w) - root(dp.b, d) * (1.0 - dp.z)) / abs(1.0 - dp.w)


def is_certified(dp, label):
    """Whether phi_double_points certifies the point instead of taking
    its direct quotient."""
    (p, pp), (q, qp) = label.pairs()[:2]
    if not _powers_normal(max(abs(p), abs(q), abs(pp), abs(qp)), delta(label)):
        return True
    return math.isnan(_point_residual(dp.z, dp.w, p, q, pp, qp))


#: Correct labels whose points failed the log-space residual that
#: certification replaced (exit 3): Delta 9,999, 3,623 and 13,568, a
#: three-end label with entries near 1e20 (Delta 84), and an entry past
#: the float range (Delta 997), which was refused with DomainError.
CERTIFIED_LABELS = [
    ((1, 0), (3, 9999)),
    ((4, -3419), (5, -3368)),
    ((1, -1254), (9, 2282)),
    ((7, -10 ** 20), (0, 12), (-7, 10 ** 20 - 12)),
    ((1, 0), (10 ** 400, 997)),
]

ENTRY = 10 ** 4


def big_labels():
    """Two-end pairs with entries up to 10^4 and 0 < Delta <= 4000."""
    return label_pairs(ENTRY, 4000)


def random_z(rnd, keepout=1e-2):
    while True:
        z = complex(rnd.uniform(-3, 3), rnd.uniform(-3, 3))
        if abs(z) > keepout and abs(z - 1) > keepout:
            return z


class TestPhiEval:
    def test_simple_value(self):
        params = ModelMapParams(label=L_UNIT, r=math.e)
        out = phi_eval(params, -1.0 + 0j)
        assert out.lam == pytest.approx(-math.e, abs=1e-14)
        assert out.u == pytest.approx(1.0, abs=1e-14)

    def test_punctures(self):
        params = ModelMapParams(label=L_UNIT)
        with pytest.raises(DomainError, match=r"^z = 0j is a puncture$"):
            phi_eval(params, 0j)
        with pytest.raises(DomainError, match=r"^z = \(1\+0j\) is a puncture$"):
            phi_eval(params, 1.0 + 0j)

    def test_log_convention(self):
        # lambda = e^{u - i t} must reproduce itself from (u, t).
        params = ModelMapParams(label=L_SYM, r=7.0,
                                a=cmath.exp(0.4j), a_prime=cmath.exp(-0.9j))
        rnd = random.Random(2)
        for _ in range(50):
            out = phi_eval(params, random_z(rnd))
            assert cmath.exp(out.u - 1j * out.t) == pytest.approx(out.lam,
                                                                  rel=1e-12)
            assert cmath.exp(out.v - 1j * out.phi) == pytest.approx(
                out.lam_prime, rel=1e-12)

    @pytest.mark.parametrize("label", [L_UNIT, L_SYM, L_41, L_5])
    def test_log_identities(self, label):
        (p, pp), (q, qp) = label.pairs()
        d = label.delta
        params = ModelMapParams(label=label, r=10.0,
                                a=cmath.exp(1.1j), a_prime=cmath.exp(0.3j))
        rnd = random.Random(hash(label.pairs()) & 0xFFFF)
        for _ in range(1000):
            z = random_z(rnd)
            out = phi_eval(params, z)
            lhs1 = q * out.v - qp * out.u
            lhs2 = p * out.v - pp * out.u
            assert lhs1 == pytest.approx(-d * math.log(10.0 / abs(z)),
                                         abs=1e-10)
            assert lhs2 == pytest.approx(d * math.log(10.0 / abs(1 - z)),
                                         abs=1e-10)

    @pytest.mark.parametrize("z,r,why", [
        (1e-300j, 10.0, "leaves the finite floats"),     # ZeroDivisionError
        (0.5 + 0.5j, 1e300, "leaves the finite floats"),  # OverflowError
        (1e300j, 10.0, "leaves the finite floats"),      # nan coordinates
        (complex(math.nan, 0.0), 10.0, "is not finite"),
        (complex(0.0, math.inf), 10.0, "is not finite"),
    ], ids=["z=1e-300j", "r=1e300", "z=1e300j", "z=nan", "z=infj"])
    def test_past_the_floats_is_refused(self, z, r, why):
        # A power of z, 1 - z or r that leaves the finite floats ended in
        # a builtin exception or in nan coordinates.
        with pytest.raises(DomainError, match=why):
            phi_eval(ModelMapParams(label=L_SYM, r=r), z)

    def test_nonzero_outputs(self):
        params = ModelMapParams(label=L_5, r=2.0)
        rnd = random.Random(9)
        for _ in range(100):
            out = phi_eval(params, random_z(rnd))
            assert out.lam != 0 and out.lam_prime != 0


class TestModelMapParams:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            ModelMapParams(label=L_UNIT, r=0.5)
        with pytest.raises(ValueError):
            ModelMapParams(label=L_UNIT, r=float("nan"))

    def test_unit_modulus_validation(self):
        with pytest.raises(ValueError):
            ModelMapParams(label=L_UNIT, a=1.1 + 0j)

    def test_infinite_scale_is_refused(self):
        # phi_eval would give u = t = nan.
        with pytest.raises(ValueError):
            ModelMapParams(label=L_UNIT, r=math.inf)

    @pytest.mark.parametrize("twist", ["a", "a_prime"])
    @pytest.mark.parametrize("value", [complex(math.nan, 0.0),
                                       complex(0.0, math.nan),
                                       complex(math.inf, 0.0)])
    def test_non_finite_twist_is_refused(self, twist, value):
        # | |nan| - 1 | > 1e-12 is false: the check must be written so
        # that nan fails it.
        with pytest.raises(ValueError):
            ModelMapParams(label=L_UNIT, **{twist: value})


class TestImmersion:
    def test_unit_label_first_component(self):
        params = ModelMapParams(label=L_UNIT)
        rnd = random.Random(4)
        for _ in range(100):
            z = random_z(rnd)
            d1, _ = immersion_residual(params, z)
            assert d1 == 1.0 / z
            assert d1 != 0

    def test_punctures(self):
        params = ModelMapParams(label=L_UNIT)
        for z in (0j, 1.0 + 0j):
            with pytest.raises(DomainError, match="is a puncture"):
                immersion_residual(params, z)

    @pytest.mark.parametrize("z,why", [
        (5e-324j, "leaves the finite floats"),      # was (-1-infj, -2-infj)
        (complex(math.inf, 0.0), "is not finite"),  # was (0j, 0j)
    ], ids=["z=5e-324j", "z=inf"])
    def test_past_the_floats_is_refused(self, z, why):
        with pytest.raises(DomainError, match=why):
            immersion_residual(ModelMapParams(label=L_SYM), z)

    def test_no_simultaneous_zero_on_grid(self):
        params = ModelMapParams(label=L_SYM)
        worst = min(
            max(abs(d) for d in immersion_residual(
                params, complex(-3 + 6 * i / 99, -3 + 6 * j / 99)))
            for i in range(100) for j in range(100)
            if abs(complex(-3 + 6 * i / 99, -3 + 6 * j / 99)) > 1e-9
            and abs(complex(-3 + 6 * i / 99, -3 + 6 * j / 99) - 1) > 1e-9)
        assert worst > 0

    @pytest.mark.parametrize("label,floor", [
        # Regression-pinned lower bounds for the scaled residual
        # max(|d1|, |d2|) |z| |1-z| over the grid below (observed minima
        # 0.5530, 0.5187, 1.0623).
        (L_SYM, 0.55),
        (L_41, 0.51),
        (L_5, 1.06),
    ])
    def test_scaled_residual_floor(self, label, floor):
        params = ModelMapParams(label=label)
        vals = []
        for i in range(100):
            for j in range(100):
                z = complex(-3 + 6 * i / 99, -3 + 6 * j / 99)
                if abs(z) < 1e-9 or abs(z - 1) < 1e-9:
                    continue
                d1, d2 = immersion_residual(params, z)
                vals.append(max(abs(d1), abs(d2)) * abs(z) * abs(1 - z))
        assert min(vals) > floor


class TestDoublePoints:
    def test_embedded_label_empty(self):
        assert phi_double_points(ModelMapParams(label=L_SYM)) == []

    def test_one_double_point_label(self):
        pts = phi_double_points(ModelMapParams(label=L_41))
        assert [(dp.a, dp.b) for dp in pts] == [(1, 2), (2, 1)]
        # z is a primitive sixth root of unity here.
        assert pts[0].z == pytest.approx(0.5 - math.sqrt(3) / 2 * 1j, abs=1e-12)
        assert pts[1].z == pytest.approx(0.5 + math.sqrt(3) / 2 * 1j, abs=1e-12)

    def test_two_double_point_label(self):
        pts = phi_double_points(ModelMapParams(label=L_5))
        assert [(dp.a, dp.b) for dp in pts] == [(1, 4), (2, 3), (3, 2), (4, 1)]
        for dp in pts:
            assert (dp.a + dp.b) % 5 == 0

    def test_conjugate_and_residual(self):
        for label in (L_41, L_5):
            for dp in phi_double_points(ModelMapParams(label=label)):
                assert dp.w == pytest.approx(dp.z.conjugate(), abs=1e-9)
                assert dp.residual < 1e-9
                assert abs(dp.z) > 0 and abs(dp.z - 1) > 0

    def test_independent_of_scale_and_twists(self):
        base = [(dp.a, dp.b, dp.z) for dp in
                phi_double_points(ModelMapParams(label=L_41, r=2.0))]
        for r in (10.0, 100.0):
            for a in (1.0 + 0j, cmath.exp(2.2j)):
                pts = phi_double_points(
                    ModelMapParams(label=L_41, r=r, a=a, a_prime=cmath.exp(0.7j)))
                assert [(dp.a, dp.b, dp.z) for dp in pts] == base

    def test_counts_match_both_oracles_to_6(self):
        for label in enumerate_labels(6, 2):
            pts = phi_double_points(ModelMapParams(label=label, r=3.0))
            m = double_points_formula(label)
            assert len(pts) == 2 * m
            assert len(pts) == 2 * double_points_bruteforce(label)

    def test_points_satisfy_defining_equalities(self):
        for label in (L_41, L_5, Label2.make((3, 1), (1, 2))):
            (p, pp), (q, qp) = label.pairs()
            for dp in phi_double_points(ModelMapParams(label=label)):
                z, w = dp.z, dp.w
                assert z ** p * (1 - z) ** q == pytest.approx(
                    w ** p * (1 - w) ** q, rel=1e-9)
                assert z ** pp * (1 - z) ** qp == pytest.approx(
                    w ** pp * (1 - w) ** qp, rel=1e-9)

    def test_overflowing_powers_have_finite_residuals(self):
        # z**p (1-z)**q overflows for some points of this label; the
        # relative residual was inf/inf = nan there and passed the check.
        label = Label2.make((97, -28), (61, -11))
        assert label.delta == 641
        pts = phi_double_points(ModelMapParams(label=label))
        assert len(pts) == 2 * double_points_formula(label)
        assert (312, 313) in [(dp.a, dp.b) for dp in pts]
        for dp in pts:
            assert math.isfinite(dp.residual)
            assert dp.residual < 1e-9

    @pytest.mark.parametrize("pairs", [((98, -5), (87, 55)),
                                       ((89, 1), (-2, 100)),
                                       ((93, 91), (-45, 73))])
    def test_subnormal_powers_pass(self, pairs):
        # A side of one equality lands between 8e-323 and 8e-316 for some
        # point of each label, with a few bits left; the direct quotient
        # failed these correct points (residuals 1.2e-5, 1.3e-8, 0.125).
        label = Label2.make(*pairs)
        pts = phi_double_points(ModelMapParams(label=label))
        assert len(pts) // 2 == double_points_formula(label)
        assert max(dp.residual for dp in pts) < 1e-9

    def test_subnormal_power_under_a_normal_side(self):
        # Point (1727, 1719) of the label (-9, -144), (37, 58), Delta 4806:
        # z**-144 = 8.4e-323 keeps ~4 bits, but its side, 5.1e-193, is a
        # normal float.  The direct quotient gave 0.0294 here; the label's
        # powers are not all normal, so the point is certified.
        label = label_of(((-9, -144), (37, 58), (-28, 86)))
        assert delta(label) == 4806
        (dp,) = [dp for dp in phi_double_points(ModelMapParams(label=label))
                 if (dp.a, dp.b) == (1727, 1719)]
        assert abs(dp.z ** -144) < sys.float_info.min
        assert abs(dp.z ** -144 * (1 - dp.z) ** 58) > sys.float_info.min
        assert is_certified(dp, label)
        assert dp.residual == relation_gap(dp, 4806) < 1e-12

    def test_per_label_power_bound(self):
        # |z|, |1-z| lie in [sin(pi/d), 1/sin(pi/d)]: 144 log2(1/sin(pi/4806))
        # is 1523, past 1021, and 100 log2(1/sin(pi/641)) is 767.  An
        # entry of any size is compared; at Delta = 2 every power is 1.
        assert not _powers_normal(144, 4806)
        assert _powers_normal(100, 641)
        assert not _powers_normal(10 ** 400, 997)
        assert _powers_normal(1, 2) and _powers_normal(10 ** 400, 2)

    @pytest.mark.parametrize("pairs", [
        ((1, -40), (100, 28)),      # a power overflows
        ((-2, -100), (8, -75)),     # sides subnormal or zero
        ((8, 48), (-11, 89)),       # a side of (p', q') infinite
        *CERTIFIED_LABELS,
    ])
    def test_certified_residuals_are_the_relation_gap(self, pairs):
        # Labels of the double-points benchmark pool, then the labels
        # that failed the log-space residual.  A certified point's
        # residual is the gap of 1 - w = eta'(1 - z), recomputed here
        # from z, w and b; every other point keeps its direct quotient.
        label = label_of(pairs)
        (p, pp), (q, qp) = label.pairs()[:2]
        d = delta(label)
        pts = phi_double_points(ModelMapParams(label=label))
        assert len(pts) == 2 * double_points_formula(label)
        certified = 0
        for dp in pts:
            if is_certified(dp, label):
                certified += 1
                assert dp.residual == relation_gap(dp, d) < 1e-9
            else:
                assert dp.residual == _point_residual(dp.z, dp.w, p, q, pp, qp)
        assert certified, "no point was certified"

    @pytest.mark.parametrize("pairs,count", [(((1, 0), (3, 9999)), 200),
                                             (((8, 48), (-11, 89)), 1)],
                             ids=["powers not normal", "a side infinite"])
    def test_shifted_pair_is_refused(self, monkeypatch, pairs, count):
        # The relation 1 - w = eta'(1 - z) holds for any root pair, so the
        # congruences alone tie a certified point to its label: a pair
        # whose b is moved off the lattice must fail them.  On the first
        # label every point is certified, and 200 of its pairs are moved,
        # one at a time.  The second label's powers are normal, and its
        # one moved pair that lands where the direct quotient has no
        # value is taken.
        label = label_of(pairs)
        d = delta(label)
        real = list(model_maps.residue_pairs(label))
        moved = []
        for i, (a, b) in enumerate(real):
            b2 = b % (d - 1) + 1
            if b2 == a:
                continue
            z = (root(b2, d) - 1.0) / (root(b2, d) - root(a, d))
            dp = DoublePoint(a, b2, z, root(a, d) * z, 0.0)
            if is_certified(dp, label):
                moved.append(real[:i] + [(a, b2)] + real[i + 1:])
            if len(moved) == count:
                break
        assert len(moved) == count
        for shifted in moved:
            monkeypatch.setattr(model_maps, "residue_pairs",
                                lambda label, out=shifted: iter(out))
            with pytest.raises(InternalError, match=r"0 \(mod"):
                phi_double_points(ModelMapParams(label=label))

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(big_labels())
    @example(CERTIFIED_LABELS[0])
    @example(CERTIFIED_LABELS[1])
    @example(CERTIFIED_LABELS[2])
    @example(CERTIFIED_LABELS[3])
    @example(CERTIFIED_LABELS[4])
    def test_routes_agree_on_big_entries(self, pairs):
        # formula = oracle = Pick count = model points / 2, and every
        # point passes its check, far past the labels of the exhaustive
        # sets.
        try:
            label = label_of(pairs)
        except DomainError as exc:
            assert INADMISSIBLE.search(str(exc)), exc
            reject()
        m = double_points_formula(label)
        assert double_points_bruteforce(label) == m
        assert double_points_lattice(label) == m
        pts = phi_double_points(ModelMapParams(label=label))
        assert len(pts) == 2 * m
        assert max((dp.residual for dp in pts), default=0.0) < 1e-9

    def test_environment_is_not_read(self, monkeypatch):
        # The tolerance is the caller's: SYMPL_MODULI_TOL belongs to the
        # CLI, and 1e-30 would fail every point if the library read it.
        monkeypatch.delenv("SYMPL_MODULI_TOL", raising=False)
        unset = phi_double_points(ModelMapParams(label=L_5))
        monkeypatch.setenv("SYMPL_MODULI_TOL", "1e-30")
        assert phi_double_points(ModelMapParams(label=L_5)) == unset
        assert len(unset) == 2 * double_points_formula(L_5) == 4

    def test_point_is_immutable(self):
        dp = phi_double_points(ModelMapParams(label=L_41))[0]
        with pytest.raises(AttributeError):
            dp.residual = 0.0
        assert dp == DoublePoint(dp.a, dp.b, dp.z, dp.w, dp.residual)


class TestLazyWalk:
    """phi_double_points reads its residue pairs one at a time, so its
    peak memory is that of the points it returns.

    Mutation check: residue_pairs returning the list of its pairs reads
    1.16 on the first test and fails the second.  That the budget still
    refuses at the call, before any walk, is TestWalkBudget's."""

    def test_peak_memory_is_the_points(self):
        # Delta 9,999 and 9,898 points, 2.4 MB traced; a list of the
        # pairs held beside them lifts the peak 16 % above that.
        params = ModelMapParams(label=Label2.make((100, 1), (1, 100)))
        phi_double_points(params)     # one-off allocations stay outside
        tracemalloc.start()
        try:
            pts = phi_double_points(params)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pts) == 9898
        assert peak <= 1.05 * kept, (peak, kept)

    def test_pairs_are_an_iterator(self):
        assert isinstance(residue_pairs(L_5), Iterator)


#: Labels with Delta from 100 to 1999 from the double-points benchmark
#: pool (three have gcd(Delta, q, q') > 1), none with an overflowing
#: residual, and the sha256 of their double_points_json.
MODEL_MAP_DIGESTS = [
    (((-10, -18), (5, -1)),
     "110eb574cf5dabe27602ba2645f78cb5e3f800572ec0dce128f1eb3bbcf7f18a"),
    (((-3, -9), (17, 1)),
     "52e5aa5ba6a71c5ad5f06fc0c288e678eda011fecea952330eaa188cf7148adb"),
    (((12, -22), (-5, 30)),
     "430bd4ad7530adc3dd18e0328ed87e4ed1a2b79dd093df92641267a3eecefc5e"),
    (((-2, -4), (99, -2)),
     "7a30538c5f446f2945c17ce402fb41ff81f62cf43ac62be977447e8321a894fa"),
    (((-1, -14), (43, 2)),
     "984a0c92c87e4783e0c694984f0f916d0b641b75e510a10f3eb7ed5e1b625c66"),
    (((1, -56), (14, 16)),
     "b65d88486406581adb82ec278cb480b2478682bf758b8dae08ae4da14c0ea9bd"),
    (((-3, -71), (14, -2)),
     "0af1774aa6d666e62a24876d85867979bfebae02d70c3988bccd3bb002d8584f"),
    (((13, -21), (65, -5)),
     "ad1a98b5d4220d40eebc7cf8488d7f3552078c7c208808dc68fbc42f15fc8e39"),
    (((66, 74), (-2, 22)),
     "5feeb98244fff398f58fc1d17894f556fa1800121be3871dc9762f3ef2d72a8d"),
    (((12, -41), (47, 6)),
     "77fde0e3239c9a435a05e6ec7db2e9b0a069ee931e1b56c011d03650342e6a0d"),
]


class TestThreeEnds:
    """An ordered three-end label is read through pairs(), like a
    two-end label: its first two pairs, the third end at infinity."""

    def test_model_map_imports_no_label_class(self):
        import ast
        import pathlib

        import sympl_moduli.model_maps as mm
        tree = ast.parse(pathlib.Path(mm.__file__).read_text())
        sources = {node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)}
        assert "moduli" not in sources

    @pytest.mark.parametrize("which", [0, 1])
    def test_both_orderings(self, which):
        label = OrderedLabel3.make([(1, -1), (1, 4), (-2, -3)], which)
        (p, pp), (q, qp) = label.pairs()[:2]
        params = ModelMapParams(label=label, r=3.0)
        pts = phi_double_points(params)
        assert len(pts) == 2 * double_points_formula(label) == 4
        rnd = random.Random(which)
        for _ in range(200):
            z = random_z(rnd)
            out = phi_eval(params, z)
            assert q * out.v - qp * out.u == pytest.approx(
                -5 * math.log(3.0 / abs(z)), abs=1e-10)
            assert p * out.v - pp * out.u == pytest.approx(
                5 * math.log(3.0 / abs(1 - z)), abs=1e-10)
            assert immersion_residual(params, z) == (
                p / z - q / (1 - z), pp / z - qp / (1 - z))

    def test_same_as_the_two_end_label_of_its_first_pairs(self):
        # Label2 holds the same two pairs, so the points are the same.
        for l3 in enumerate_labels(4, 3):
            for which in (0, 1):
                label = OrderedLabel3.make(l3.pairs, which)
                flat = Label2(*label.pairs()[:2])
                assert (phi_double_points(ModelMapParams(label=label))
                        == phi_double_points(ModelMapParams(label=flat)))


def reflect(label):
    """sigma's image {(q, -q'), (p, -p')} of a two-end label
    {(p, p'), (q, q')}: sigma(s, t, theta, phi) = (s, t, pi - theta, -phi)
    sends an end class (m, m') to (m, -m') and swaps the order, so Delta
    keeps its sign."""
    (p, pp), (q, qp) = label
    return Label2.make((q, -qp), (p, -pp))


class TestReflection:
    """ROADMAP item 17 on the root-of-unity oracle and the model map.

    sigma's image of a label has the residue pairs (b, a) of the
    label's (a, b): p a + q b = p' a + q' b = 0 (mod Delta) is the same
    pair of congruences read in the other order.  So residue_pairs of
    the image is the label's list with a and b swapped, then sorted, and
    the oracle's count is the same; both hold exactly, on every two-end
    label <= 6 and a seeded sample of those <= 10.

    The image's point (b, a) is (1 - z, 1 - w) for the label's point
    (a, b, z, w): its closed form (eta - 1) / (eta - eta') is 1 - z for
    the same floats eta, eta', and its w = eta' (1 - z) = 1 - w.  So
    the gap is rounding alone: a few ulps in each of the closed form's
    operations, and an error of a few eps |z| in z, which 1 - z carries
    as the relative eps |z| / |1 - z|.  The bound is 8 eps (1 + |z| /
    |1 - z|); the worst seen was 1.9 eps (1 + |z| / |1 - z|), over the
    points of 5,000 seeded labels <= 10.

    Mutation check: _lattice returning -(x p' + y p + (g > 1)) % coset
    fails the residue-pair swap."""

    @staticmethod
    def _assert_oracle_reflects(label):
        image = reflect(label)
        assert list(residue_pairs(image)) == sorted(
            (b, a) for a, b in residue_pairs(label)), label
        assert (double_points_bruteforce(image)
                == double_points_bruteforce(label)), label

    def test_oracle_on_every_label_to_6(self):
        for label in enumerate_labels(6, 2):
            self._assert_oracle_reflects(label)

    def test_oracle_on_labels_to_10(self, labels2_bound10):
        for label in random.Random(17).sample(labels2_bound10, 2000):
            self._assert_oracle_reflects(label)

    def test_model_map_points(self, labels2_bound10):
        eps = sys.float_info.epsilon
        for label in random.Random(18).sample(labels2_bound10, 300):
            points = phi_double_points(ModelMapParams(label=label))
            image = {(dp.a, dp.b): dp for dp in
                     phi_double_points(ModelMapParams(label=reflect(label)))}
            assert len(image) == len(points), label
            for a, b, z, w, _ in points:
                bound = 8 * eps * (1 + abs(z) / abs(1 - z))
                dp = image[b, a]
                assert abs(dp.z - (1 - z)) <= bound * abs(1 - z), (label, a, b)
                assert abs(dp.w - (1 - w)) <= bound * abs(1 - w), (label, a, b)


class TestPinnedBits:
    @pytest.mark.parametrize("pairs,digest", MODEL_MAP_DIGESTS)
    def test_points_keep_their_bits(self, pairs, digest):
        """Every point and residual keeps its bits.

        The digests were recorded at the commit before residue_pairs was
        built from its lattice and the model-map loop was rewritten (scan
        over every a, dataclass points), before any of that code changed.
        """
        label = Label2.make(*pairs)
        assert 100 <= label.delta < 2000
        pts = phi_double_points(ModelMapParams(label=label))
        blob = json.dumps(double_points_json(pts)).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("label,digest", [
        (Label2.make((62, 64), (7, 91)),
         "929f4af17dc27f44a4d1f89c2cd4843f6ac2c48df24f61c88b9f14f9e1f0d0d4"),
        (OrderedLabel3.make([(34, -89), (88, -90), (-122, 179)], 0),
         "c8cccffa281493a5538eaf254dfa8bf8b1ff5f390b3a9b9fda1a69d848b7176c"),
    ], ids=["two ends", "three ends"])
    def test_large_delta_points_keep_their_positions(self, label, digest):
        """Every (a, b, z, w) keeps its bits, for a two-end and a
        three-end label with Delta about 5e3, each with certified points
        (a side of an equality not finite, subnormal or zero).

        The digests were recorded at the commit before certification
        replaced the log-space residual, before any of that code changed.
        """
        assert 4500 < delta(label) < 5500
        pts = phi_double_points(ModelMapParams(label=label))
        blob = json.dumps([{k: v for k, v in point.items() if k != "residual"}
                           for point in double_points_json(pts)]).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("label,digest", [
        (Label2.make((62, 64), (7, 91)),
         "a2a23f58820a035b70de105b3b02cf3967b06aedf71f2eda685be04a9cfd852f"),
        (OrderedLabel3.make([(34, -89), (88, -90), (-122, 179)], 0),
         "87741c8a9b54f212aebbbd21dfa47222634f9fe2b6725743010b5eef85ce2739"),
    ], ids=["two ends", "three ends"])
    def test_large_delta_points_keep_their_bits(self, label, digest):
        """The same for the whole record, residuals included.

        The digests were recorded when certification replaced the
        log-space residual, which changed the residuals of the certified
        points and nothing else (test_large_delta_points_keep_their_positions).
        """
        assert 4500 < delta(label) < 5500
        pts = phi_double_points(ModelMapParams(label=label))
        blob = json.dumps(double_points_json(pts)).encode()
        assert hashlib.sha256(blob).hexdigest() == digest


def test_json_shape():
    pts = phi_double_points(ModelMapParams(label=L_41))
    js = double_points_json(pts)
    assert js[0].keys() == {"a", "b", "z", "w", "residual"}
    assert js[0]["z"] == [pts[0].z.real, pts[0].z.imag]
