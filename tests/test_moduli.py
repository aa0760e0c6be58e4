import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympl_moduli import (Label2, Label3, boundary_labels, catalog_entries,
                          classify_pair, delta, enumerate_labels,
                          sphere_report, theta_roots, validate_label2,
                          validate_label3)
from sympl_moduli import moduli
from sympl_moduli.budgets import MAX_ENUM_BOUND
from sympl_moduli.cli import _catalog_item
from sympl_moduli.errors import DomainError, SymplModuliError
from sympl_moduli.moduli import _admissible2
from sympl_moduli.reeb import orbit_cosine

from conftest import label_pairs, sigma


def ordered_pairs(bound):
    rng = range(-bound, bound + 1)
    return [(m, mp) for m in rng for mp in rng if (m, mp) != (0, 0)]


# An independent re-derivation of the admissibility rules, written from
# the classification statement rather than sharing library helpers.
def independent_label2_ok(p, pp, q, qp):
    if (p, pp) == (0, 0) or (q, qp) == (0, 0):
        return False
    if p * qp - q * pp <= 0:
        return False
    if qp - pp <= 0 and not (pp * qp > 0):
        return False
    for m, mp in ((p, pp), (q, qp), (p + q, pp + qp)):
        # |m'/m| vs sqrt(3)/sqrt(2), squared to stay in integers.
        if m < 0 and not 2 * mp * mp > 3 * m * m:
            return False
        if m <= 0 and 2 * mp * mp < 3 * m * m:
            return False
    return True


class TestValidateLabel2:
    def test_unit_label(self):
        ok, why = validate_label2((1, 0), (0, 1))
        assert ok and not why
        assert delta(Label2.make((1, 0), (0, 1))) == 1

    def test_symmetric_label(self):
        assert validate_label2((2, 1), (1, 2))[0]
        assert delta(Label2.make((2, 1), (1, 2))) == 3

    def test_swapped_fails(self):
        ok, why = validate_label2((1, 2), (2, 1))
        assert not ok
        assert any(w.startswith("(a)") for w in why)

    def test_zero_pair(self):
        ok, why = validate_label2((0, 0), (1, 1))
        assert not ok and any("(0, 0)" in w for w in why)

    def test_b_rule(self):
        # q' - p' = 0 with p'q' = 1 > 0: the exception applies.
        assert validate_label2((4, 1), (1, 1))[0]
        # q' - p' = -3 < 0 and p'q' = -2 < 0: rule (b) bites.
        ok, why = validate_label2((1, 2), (2, -1))
        assert not ok
        assert any(w.startswith("(b)") for w in why)

    def test_matches_independent_rules_to_6(self):
        for p, pp in ordered_pairs(6):
            for q, qp in ordered_pairs(6):
                assert validate_label2((p, pp), (q, qp))[0] == \
                    independent_label2_ok(p, pp, q, qp)

    def test_k_rule_is_implied(self):
        # The quadrant rule for (k, k') follows from the rules on the
        # first two pairs; checked exhaustively at desk scale.
        def without_k(p, pp, q, qp):
            if p * qp - q * pp <= 0:
                return False
            if qp - pp <= 0 and not (pp * qp > 0):
                return False
            for m, mp in ((p, pp), (q, qp)):
                if m < 0 and not 2 * mp * mp > 3 * m * m:
                    return False
                if m <= 0 and 2 * mp * mp < 3 * m * m:
                    return False
            return True

        for p, pp in ordered_pairs(6):
            for q, qp in ordered_pairs(6):
                if without_k(p, pp, q, qp):
                    assert validate_label2((p, pp), (q, qp))[0]

    def test_core_agrees_with_explainer(self):
        # The boolean core decides, the explainer words: they must agree
        # on every tuple of the box, (0, 0) pairs included.
        rng = range(-5, 6)
        for p, pp, q, qp in itertools.product(rng, repeat=4):
            ok, why = validate_label2((p, pp), (q, qp))
            assert _admissible2(p, pp, q, qp) == ok == (not why)

    @pytest.mark.parametrize("p_pair, q_pair, want", [
        ((0, 0), (1, 1), ["(1) first pair is (0, 0)"]),
        ((0, 1), (-1, 0), [
            "(b) q' - p' = -1 <= 0 and p'q' = 0 <= 0",
            "(c) q = (-1, 0): 2*0^2 = 0 <= 3 = 3*(-1)^2 with m < 0",
            "(c) k = (-1, 1): 2*1^2 = 2 <= 3 = 3*(-1)^2 with m < 0"]),
        ((1, 1), (-1, -1), [
            "(a) Delta = 1*-1 - -1*1 = 0 <= 0",
            "(b) q' - p' = -2 <= 0 and p'q' = -1 <= 0",
            "(1) derived pair (p+q, p'+q') is (0, 0)",
            "(c) q = (-1, -1): 2*(-1)^2 = 2 <= 3 = 3*(-1)^2 with m < 0"]),
    ])
    def test_violation_wording(self, p_pair, q_pair, want):
        # classify prints these lines; their wording is part of the output.
        assert validate_label2(p_pair, q_pair) == (False, want)

    def test_make_words_the_violations(self):
        with pytest.raises(DomainError) as exc:
            Label2.make((1, 2), (2, -1))
        assert str(exc.value) == "; ".join(validate_label2((1, 2), (2, -1))[1])

    def test_delta_formula_consistency(self):
        for label in enumerate_labels(3, 2):
            p, pp = label.p_pair.as_tuple()
            q, qp = label.q_pair.as_tuple()
            assert delta(label) == p * (pp + qp) - (p + q) * pp

    @pytest.mark.parametrize("call", [
        lambda: validate_label2((2.7, 1), (1, 2)),
        lambda: Label2.make((2.9, 1.2), (1, 2)),
        lambda: Label3.make([(1.0, -1), (1, 4), (-2, -3)]),
    ], ids=["validate_label2", "Label2.make", "Label3.make"])
    def test_float_entries_raise(self, call):
        # A float entry, even an integral one, is refused, not truncated:
        # no float enters an admissibility decision.
        with pytest.raises(TypeError):
            call()

    def test_int_subclass_entries_give_exact_ints(self):
        label = Label2.make((True, 0), (0, True))
        assert label == ((1, 0), (0, 1))
        assert {type(x) for pair in label for x in pair} == {int}


class TestValidateLabel3:
    def test_reference_set(self):
        ok, orderings = validate_label3([(1, -1), (1, 4), (-2, -3)])
        assert ok
        assert set(orderings) == {
            ((1, -1), (1, 4), (-2, -3)),
            ((-2, -3), (1, -1), (1, 4)),
        }

    def test_no_steep_last_pair(self):
        ok, orderings = validate_label3([(1, 2), (1, -1), (-2, -1)])
        assert not ok and orderings == []

    def test_zero_pair(self):
        ok, orderings = validate_label3([(0, 0), (1, 1), (-1, -1)])
        assert not ok and orderings == []

    def test_sum_must_vanish(self):
        ok, orderings = validate_label3([(1, 0), (0, 1), (1, 1)])
        assert not ok and orderings == []

    def test_two_pairs_are_refused(self):
        with pytest.raises(DomainError, match=r"^a three-end label needs "
                                              r"exactly three pairs$"):
            validate_label3([(1, 2), (2, 1)])

    def test_zero_k_ordering_counts(self):
        # The second ordering of this set has k-pair (0, 1); the ratio
        # |k'/k| is infinite, which passes the steepness test.
        ok, orderings = validate_label3([(-6, -8), (0, 1), (6, 7)])
        assert ok
        assert len(orderings) == 2

    def test_exhaustive_zero_or_two(self):
        pairs = ordered_pairs(5)
        seen = set()
        for a, b in itertools.product(pairs, pairs):
            c = (-a[0] - b[0], -a[1] - b[1])
            if c == (0, 0) or abs(c[0]) > 5 or abs(c[1]) > 5:
                continue
            canon = tuple(sorted((a, b, c)))
            if canon in seen:
                continue
            seen.add(canon)
            _, orderings = validate_label3(canon)
            assert len(orderings) in (0, 2), canon


def orderings_by_permutation(triple):
    """The definition of validate_label3's orderings of a sum-zero
    triple: every permutation whose last pair is steep and whose first
    two pairs form an admissible two-end label, deduplicated, sorted."""
    return sorted({perm for perm in itertools.permutations(triple)
                   if 2 * perm[2][1] ** 2 > 3 * perm[2][0] ** 2
                   and validate_label2(perm[0], perm[1])[0]})


class TestOrientedOrderings:
    """validate_label3 tries only the cyclic shifts of the counterclockwise
    order; the six permutations of the definition give the same answer."""

    def test_every_sum_zero_triple_to_8_in_every_input_order(
            self, label3_candidates_bound8):
        for canon, _ in label3_candidates_bound8:
            want = orderings_by_permutation(canon)
            for perm in itertools.permutations(canon):
                assert validate_label3(perm) == (len(want) == 2, want), perm


class TestBoundaryLabels:
    def test_reference_set(self):
        l3 = Label3.make([(1, -1), (1, 4), (-2, -3)])
        b1, b2 = boundary_labels(l3)
        got = {b1.pairs(), b2.pairs()}
        assert got == {((1, -1), (1, 4)), ((-2, -3), (1, -1))}

    def test_outputs_admissible_and_distinct(self):
        for l3 in enumerate_labels(4, 3):
            b1, b2 = boundary_labels(l3)
            assert validate_label2(*b1.pairs())[0]
            assert validate_label2(*b2.pairs())[0]
            assert b1 != b2

    def test_rejects_inadmissible(self):
        with pytest.raises(DomainError, match=re.escape(
                "[(1, 2), (1, -1), (-2, -1)] is not admissible: "
                "0 valid orderings, 2 needed")):
            Label3.make([(1, 2), (1, -1), (-2, -1)])

    def test_rejects_an_unchecked_label(self):
        # Label3 built directly, past make's check, is refused here too.
        with pytest.raises(DomainError,
                           match=r"^not an admissible three-end label$"):
            boundary_labels(Label3(((1, 0), (0, 1), (-1, -1))))

    def test_every_steep_two_end_label_is_a_boundary(self):
        # A two-end label whose derived pair k is steep (k != 0 and
        # 2 k'^2 > 3 k^2) bounds the three-end set {p, q, -k}.
        for l2 in enumerate_labels(5, 2):
            (p, pp), (q, qp) = l2
            k, kp = p + q, pp + qp
            if k == 0 or 2 * kp * kp <= 3 * k * k:
                continue
            l3 = Label3.make([*l2.pairs(), (-k, -kp)])
            assert l2 in boundary_labels(l3), l2


class TestEnumerate:
    def test_bound1_contents(self):
        labels = [l.pairs() for l in enumerate_labels(1, 2)]
        assert ((1, 0), (0, 1)) in labels
        assert ((0, 1), (1, 0)) not in labels  # Delta = -1 ordering never emitted
        assert len(labels) == 9

    def test_bound2_regression(self):
        labels = enumerate_labels(2, 2)
        assert len(labels) == 104
        # Independent recount.
        count = sum(independent_label2_ok(p, pp, q, qp)
                    for p, pp in ordered_pairs(2) for q, qp in ordered_pairs(2))
        assert count == 104

    def test_bound3_label3_two_orderings(self):
        labels = enumerate_labels(3, 3)
        assert labels
        for l3 in labels:
            assert len(l3.orderings()) == 2

    def test_deterministic_order(self):
        a = [l.pairs() for l in enumerate_labels(2, 2)]
        b = [l.pairs() for l in enumerate_labels(2, 2)]
        assert a == b == sorted(a)

    def test_label3_delta_agreement(self):
        # |p k' - k p'| = |k q' - q k'| = Delta for every valid ordering
        # (the sum-zero convention flips the sign of the mixed forms).
        for l3 in enumerate_labels(3, 3):
            for (p, pp), (q, qp), (k, kp) in l3.orderings():
                d = p * qp - q * pp
                assert d > 0
                assert abs(p * kp - k * pp) == d
                assert abs(k * qp - q * kp) == d

    def test_label3_canonical_dedup(self):
        labels = enumerate_labels(3, 3)
        canon = [tuple(p.as_tuple() for p in l.pairs) for l in labels]
        assert len(set(canon)) == len(canon)
        for c in canon:
            assert list(c) == sorted(c)


    @pytest.mark.parametrize("ends", [2, 3])
    def test_past_the_budget_is_refused(self, monkeypatch, ends):
        # The candidates of bound 10^8 would fill memory.
        def no_candidates(*args):
            raise AssertionError("candidates were built")

        monkeypatch.setattr(moduli, "_end_classes", no_candidates)
        for bound in (MAX_ENUM_BOUND + 1, 10 ** 8):
            with pytest.raises(DomainError, match="budget"):
                enumerate_labels(bound, ends)
        with pytest.raises(AssertionError, match="candidates"):  # at the budget
            enumerate_labels(MAX_ENUM_BOUND, ends)


class TestEnumerateOracles:
    """The constructive enumerator against exhaustive filters of the box."""

    @staticmethod
    def exhaustive_label2(bound):
        # Every tuple of the box through validate_label2, as enumeration
        # was done before it built labels from the rules.
        rng = range(-bound, bound + 1)
        return [((p, pp), (q, qp))
                for p, pp, q, qp in itertools.product(rng, repeat=4)
                if validate_label2((p, pp), (q, qp))[0]]

    @pytest.mark.parametrize("bound", range(1, 7))
    def test_label2_equals_exhaustive_filter(self, bound):
        got = [l.pairs() for l in enumerate_labels(bound, 2)]
        assert got == self.exhaustive_label2(bound)

    def test_label3_equals_exhaustive_filter(self, label3_candidates_bound8):
        want = sorted(canon for canon, orderings in label3_candidates_bound8
                      if len(orderings) == 2)
        got = [tuple(p.as_tuple() for p in l.pairs)
               for l in enumerate_labels(8, 3)]
        assert got == want

    def test_label3_matches_make(self):
        for l3 in enumerate_labels(4, 3):
            assert Label3.make([p.as_tuple() for p in l3.pairs]) == l3

    @pytest.mark.parametrize("bound, ends, count", [(15, 2, 207207),
                                                    (10, 3, 3782)])
    def test_pinned_counts(self, bound, ends, count):
        assert len(enumerate_labels(bound, ends)) == count

    def test_bad_arguments(self):
        with pytest.raises(DomainError, match=r"^bound must be >= 1$"):
            enumerate_labels(0, 2)
        with pytest.raises(DomainError, match=r"^ends must be 2 or 3$"):
            enumerate_labels(2, 4)


class TestJsonShape:
    """A label as `catalog` prints it: a Label2 is the tuple of its two
    pairs, and a Label3 holds its three, sorted."""

    @staticmethod
    def printed(label):
        entry = catalog_entries()[0]._replace(label=label)
        return _catalog_item(entry)["label"]

    def test_label2(self):
        js = self.printed(Label2.make((2, 1), (1, 2)))
        assert js == {"pairs": [[2, 1], [1, 2]]}

    def test_label3(self):
        js = self.printed(Label3.make([(1, -1), (1, 4), (-2, -3)]))
        assert js == {"pairs": [[-2, -3], [1, -1], [1, 4]]}


class TestReflection:
    """ROADMAP item 17 on the reeb and moduli layers.  The reflection
    sigma(s, t, theta, phi) = (s, t, pi - theta, -phi) sends an end class
    (m, m') to (m, -m') and a two-end label {(p, p'), (q, q')} to
    {(q, -q'), (p, -p')}: the order swaps, so Delta keeps its sign and
    every rule maps onto itself.  Exhaustive over the 43,354 two-end
    labels <= 10 (100 of them fixed), the 1,562 three-end labels <= 8 and
    the pairs |m| <= 60, |m'| <= 90, and by hypothesis past them.

    A mutation that breaks the symmetry of a rule fails this class (a
    sign flip on one entry of rule (b) in _admissible2, -q' > p' for
    q' > p').  The class pins no count, so a mutation that is itself
    sigma-symmetric passes it: rule (b) as p' > q' maps onto itself, as
    do Delta's sign and the steep test.  TestEnumerateOracles and the
    pinned counts catch those."""

    @staticmethod
    def _assert_report_reflects(x, y):
        # The image's sphere report has the first two gcds swapped.
        report = sphere_report(Label2.make(x, y))
        g1, g2, gk = report.gcd_triple
        image = sphere_report(Label2.make(sigma(y), sigma(x)))
        assert image == report._replace(gcd_triple=(g2, g1, gk)), (x, y)

    def test_classify_pair_verdict(self):
        for m in range(-60, 61):
            for mp in range(-90, 91):
                assert (classify_pair(m, mp)[0]
                        == classify_pair(*sigma((m, mp)))[0]), (m, mp)

    def test_two_end_labels_closed(self, labels2_bound10):
        labels = set(labels2_bound10)
        assert {(sigma(y), sigma(x)) for x, y in labels} == labels

    def test_three_end_labels_closed(self):
        labels = {l3.pairs for l3 in enumerate_labels(8, 3)}
        assert {tuple(sorted(map(sigma, t))) for t in labels} == labels

    def test_sphere_report_swaps_the_first_two_gcds(self, labels2_bound10):
        for x, y in labels2_bound10:
            self._assert_report_reflects(x, y)

    def test_orbit_angles_mirror(self):
        # orbit_cosine negates the cosine exactly and keeps the pole
        # distance and |1 - 3 cos^2|, which depend on |p'| alone;
        # acos(-c) = pi - acos(c) up to rounding, 4.4e-16 = ulp(pi) at
        # worst in this box.
        for p in range(-60, 61):
            for pp in range(-90, 91):
                try:
                    c, g, dev = orbit_cosine(p, pp)
                except SymplModuliError as exc:
                    with pytest.raises(type(exc)):
                        orbit_cosine(p, -pp)
                    continue
                assert orbit_cosine(p, -pp) == (-c, g, dev), (p, pp)
                th, bar = theta_roots(p, pp)
                th_image, bar_image = theta_roots(p, -pp)
                assert abs(th_image - (math.pi - th)) <= 2 * math.ulp(math.pi)
                assert (bar is None) == (bar_image is None), (p, pp)
                if bar is not None:
                    assert (abs(bar_image - (math.pi - bar))
                            <= 2 * math.ulp(math.pi)), (p, pp)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 9, 10 ** 9))
    def test_classify_pair_verdict_drawn(self, m, mp):
        assert classify_pair(m, mp)[0] == classify_pair(m, -mp)[0]

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(label_pairs(10 ** 6, 10 ** 6))
    def test_two_end_label_drawn(self, pairs):
        x, y = pairs
        ok = validate_label2(x, y)[0]
        assert validate_label2(sigma(y), sigma(x))[0] == ok
        if ok:
            self._assert_report_reflects(x, y)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(label_pairs(10 ** 6, 10 ** 6, ends=3))
    def test_three_end_label_drawn(self, pairs):
        # An ordering (x, y, k) maps to (sigma y, sigma x, sigma k).
        ok, orderings = validate_label3(pairs)
        image_ok, image_orderings = validate_label3([sigma(x) for x in pairs])
        assert image_ok == ok
        assert image_orderings == sorted(
            (sigma(y), sigma(x), sigma(k)) for x, y, k in orderings)
