import hashlib
import json
import math
import random
import re
import tracemalloc
import types

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import sympl_moduli as sm
from sympl_moduli import (EndClass, EndDescriptor, Label2, Label3,
                          OrderedLabel3, Side, adjunction_e_pairing,
                          asymptotic_constants, boundary_labels, c1_pairing,
                          delta, double_points_bruteforce,
                          double_points_formula, end_windings,
                          enumerate_labels, fredholm_index, generic_spectrum,
                          index_lower_bound, polar_spectrum, residue_pairs,
                          sphere_report)
from sympl_moduli.budgets import MAX_SPECTRUM_N, MAX_WALK_DELTA
from sympl_moduli.cli import main
from sympl_moduli.curves import profile_log_terms
from sympl_moduli.errors import DomainError

import shadow
from conftest import (INADMISSIBLE, L_5, L_41, L_SYM, boundary_pairs,
                      double_points_lattice, label_pairs, m0, sigma)


def two_and_ordered_three(bound2, bound3):
    """Every two-end label up to bound2, then every ordered three-end
    label up to bound3."""
    labels = list(enumerate_labels(bound2, 2))
    labels += [OrderedLabel3(l3, ordering)
               for l3 in enumerate_labels(bound3, 3)
               for ordering in l3.orderings()]
    return labels


def labels_of(pairs):
    """The two-end label of two pairs, or both orderings of a three-end
    set; reject() when the pairs are not admissible."""
    try:
        if len(pairs) == 2:
            return [Label2.make(*pairs)]
        return [OrderedLabel3.make(pairs, which) for which in (0, 1)]
    except DomainError as exc:
        assert INADMISSIBLE.search(str(exc)), exc
        reject()


def _search_reference(label):
    """The b over a = g of the residue lattice as it was found by search,
    the reference for _lattice's adjugate closed form: solve
    q b = -p g (mod Delta), then scan its gcd(q, Delta) solutions for
    the one that meets p' g + q' b = 0 (mod Delta)."""
    (p, pp), (q, qp) = label.pairs()[:2]
    d = p * qp - q * pp
    g = math.gcd(d, q, qp)
    gq = math.gcd(q, d)
    step = d // gq
    rhs = -p * g % d
    assert rhs % gq == 0
    b0 = rhs // gq * pow(q // gq, -1, step) % step if step > 1 else 0
    for b in range(b0, d, step):
        if (pp * g + qp * b) % d == 0:
            return b
    raise AssertionError(f"no residue pair over a = {g} mod {d}")


class TestDelta:
    def test_values(self):
        assert delta(L_SYM) == 3
        assert delta(L_41) == 3
        assert delta(L_5) == 5
        assert delta(Label2.make((1, 0), (0, 1))) == 1
        ordered = OrderedLabel3.make([(1, -1), (1, 4), (-2, -3)], which=0)
        assert delta(ordered) == 5
        other = OrderedLabel3.make([(1, -1), (1, 4), (-2, -3)], which=1)
        assert delta(other) == 5

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(st.lists(st.integers(-1000, 1000), min_size=4, max_size=4))
    def test_swapping_pairs_flips_the_sign(self, entries):
        p, pp, q, qp = entries
        if (p, pp) == (0, 0) or (q, qp) == (0, 0):
            reject()
        raw = Label2(EndClass(p, pp), EndClass(q, qp))
        swapped = Label2(EndClass(q, qp), EndClass(p, pp))
        assert delta(swapped) == -delta(raw) == q * pp - p * qp


class TestDoublePoints:
    def test_embedded_example(self):
        assert double_points_formula(L_SYM) == 0
        assert double_points_bruteforce(L_SYM) == 0

    def test_one_double_point(self):
        assert double_points_formula(L_41) == 1
        assert double_points_bruteforce(L_41) == 1
        assert set(residue_pairs(L_41)) == {(1, 2), (2, 1)}

    def test_two_double_points(self):
        assert double_points_formula(L_5) == 2
        assert double_points_bruteforce(L_5) == 2
        assert set(residue_pairs(L_5)) == {(1, 4), (2, 3), (3, 2), (4, 1)}
        assert all((a + b) % 5 == 0 for a, b in residue_pairs(L_5))

    def test_residue_pairs_match_literal_scan(self):
        # The oracle is a literal scan of [1, Delta)^2 that tests both
        # congruences directly; it shares no code with residue_pairs.
        # Lists are compared, so the order (a, then b) is checked too.
        # The box holds labels with gcd(Delta, q, q') = 1 and > 1.
        labels = two_and_ordered_three(5, 4)
        coarse = 0
        for label in labels:
            (p, pp), (q, qp) = label.pairs()[:2]
            d = p * qp - q * pp
            scan = [(a, b) for a in range(1, d) for b in range(1, d)
                    if a != b and (p * a + q * b) % d == 0
                    and (pp * a + qp * b) % d == 0]
            assert list(residue_pairs(label)) == scan, label
            assert 2 * double_points_bruteforce(label) == len(scan), label
            coarse += math.gcd(d, q, qp) > 1
        assert 0 < coarse < len(labels)

    def test_oracle_counts_without_building_pairs(self, monkeypatch):
        # The oracle counts during its own walk: it still answers when
        # the list-building route is unavailable.  The memo is emptied,
        # so each count comes from a walk made here.
        def refuse(label):
            raise AssertionError("the oracle built the residue-pair list")
        expected = {label: double_points_formula(label)
                    for label in (L_SYM, L_41, L_5,
                                  Label2.make((-2, -4), (0, -2)),
                                  Label2.make((4, 2), (1, 2)))}
        monkeypatch.setattr(sm.invariants, "residue_pairs", refuse)
        sm.invariants._walk_count.cache_clear()
        for label, m_c in expected.items():
            assert double_points_bruteforce(label) == m_c

    def test_lattice_count_by_hand(self):
        # 0, (1, -1), (2, 3): interior points (1, 0) and (1, 1).
        assert double_points_lattice(L_5) == 2
        # 0, (4, 1), (5, 2): only (3, 1).
        assert double_points_lattice(L_41) == 1
        # 0, (2, 1), (3, 3): none; the symmetric label is embedded.
        assert double_points_lattice(L_SYM) == 0

    def test_oracle_equivalence_desk_scale(self):
        # gcd formula = count walk = half the listed pairs = interior
        # points of the Newton triangle, an independent Pick count.
        for label in two_and_ordered_three(6, 5):
            m_c = double_points_formula(label)
            assert double_points_bruteforce(label) == m_c, label
            assert len(list(residue_pairs(label))) == 2 * m_c, label
            assert double_points_lattice(label) == m_c, label

    def test_oracle_memo_answers_only_for_its_own_lattice(self):
        # Delta = 5 for both, with m_C 2 and 0: one walk per Delta would
        # hand whichever label comes second the first one's count.
        labels = (Label2.make((-5, -8), (0, -1)),
                  Label2.make((-5, -7), (-5, -8)))
        assert [double_points_formula(label) for label in labels] == [2, 0]
        for order in (labels, labels[::-1]):
            sm.invariants._walk_count.cache_clear()
            got = [double_points_bruteforce(label) for label in order]
            assert got == [double_points_formula(label) for label in order]

    def test_oracle_memo_matches_a_fresh_walk_per_label(self):
        # At bound 8, 70 of the 104 values of Delta carry two values of
        # m_C and no lattice does: after a warm pass each memoised count
        # is its own lattice's walk, made again without the memo.
        labels = two_and_ordered_three(8, 8)
        walk = sm.invariants._walk_count.__wrapped__
        for label in labels:
            double_points_bruteforce(label)
        for label in labels:
            lattice = sm.invariants._lattice(label)
            assert 2 * double_points_bruteforce(label) == walk(*lattice), label

    def test_oracle_keeps_no_residue_to_count_it(self):
        # Delta 9,999.  A list of each residue b holds an int and its
        # slot, 39.4 B per residue; a 1 per pair holds only the slot,
        # 8.6 B.
        label = Label2.make((100, 1), (1, 100))
        d = sm.invariants._lattice(label)[0]
        sm.invariants._walk_count.cache_clear()
        tracemalloc.start()
        try:
            double_points_bruteforce(label)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == 9999
        assert peak <= 12 * d, (peak, peak / d)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.one_of(label_pairs(10 ** 6, MAX_WALK_DELTA),
                     label_pairs(10 ** 6, MAX_WALK_DELTA, ends=3)))
    @example(((1, 0), (10 ** 400, 997)))
    def test_lattice_generator_is_the_searched_one(self, pairs):
        # b1 read off the adjugate is the b the search finds over a = g,
        # and (g, b1) meets both congruences in exact integers.
        for label in labels_of(pairs):
            (p, pp), (q, qp) = label.pairs()[:2]
            d, g, coset, b1 = sm.invariants._lattice(label)
            assert b1 == _search_reference(label) % coset, label
            assert (p * g + q * b1) % d == (pp * g + qp * b1) % d == 0

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(label_pairs(1000, 4000, ends=3))
    def test_orderings_agree_on_generated_labels(self, pairs):
        # Both orderings share m_C by formula and by oracle, and name the
        # same two distinct boundary labels.
        first, second = labels_of(pairs)
        m_c = double_points_formula(first)
        assert double_points_formula(second) == m_c
        assert double_points_bruteforce(first) == m_c
        assert double_points_bruteforce(second) == m_c
        ends = boundary_labels(first)
        assert ends == boundary_labels(second)
        assert ends[0] != ends[1]

    def test_ordering_insensitive(self):
        for l3 in enumerate_labels(5, 3):
            pairs = [p.as_tuple() for p in l3.pairs]
            m0 = double_points_formula(OrderedLabel3.make(pairs, 0))
            m1 = double_points_formula(OrderedLabel3.make(pairs, 1))
            assert m0 == m1
            assert double_points_bruteforce(OrderedLabel3.make(pairs, 0)) == m0

    def test_vanishing_criterion(self):
        # "Delta <= 2 or Delta divides both entries of some end pair"
        # forces m_C = 0 unconditionally; the converse holds whenever the
        # two stored pairs are coprime (for multiply-covered labels it
        # can fail, see test_vanishing_counterexample).
        for label in enumerate_labels(5, 2):
            d = delta(label)
            (p, pp), (q, qp) = label
            pairs = [(p, pp), (q, qp), (p + q, pp + qp)]
            divisible = any(m % d == 0 and mp % d == 0 for m, mp in pairs)
            m_c = double_points_formula(label)
            if d in (1, 2) or divisible:
                assert m_c == 0
            if label.p_pair.gcd == 1 and label.q_pair.gcd == 1 and m_c == 0:
                assert d in (1, 2) or divisible

    def test_vanishing_counterexample(self):
        # A doubly-covered label where m_C = 0 without Delta <= 2 or the
        # divisibility condition: eta^{-2} = 1 forces eta = -1, and then
        # eta'^2 = eta^4 = 1 leaves no eta' distinct from both 1 and eta.
        label = Label2.make((-2, -4), (0, -2))
        assert delta(label) == 4
        (p, pp), (q, qp) = label
        pairs = [(p, pp), (q, qp), (p + q, pp + qp)]
        assert not any(m % 4 == 0 and mp % 4 == 0 for m, mp in pairs)
        assert double_points_formula(label) == 0
        assert double_points_bruteforce(label) == 0

    def test_prime_rule(self):
        for label in enumerate_labels(5, 2):
            d = delta(label)
            if d not in (3, 5, 7, 11, 13):
                continue
            (p, pp), (q, qp) = label
            pairs = [(p, pp), (q, qp), (p + q, pp + qp)]
            if any(m % d == 0 and mp % d == 0 for m, mp in pairs):
                continue
            assert double_points_formula(label) == (d - 1) // 2

    def test_non_coprime_pairs_allowed(self):
        label = Label2.make((4, 2), (1, 2))
        assert double_points_formula(label) == double_points_bruteforce(label) == 2


class TestM0:
    """The tests' closed form of m0, the oracle of TestEndWindings."""

    @pytest.mark.parametrize("m,expected", [(1, 2), (2, 3), (3, 4), (4, 5),
                                            (5, 7), (10, 13)])
    def test_values(self, m, expected):
        assert m0(m) == expected

    def test_defining_property(self):
        for m in range(1, 100_000):
            n = m0(m)
            assert 2 * n * n > 3 * m * m
            assert 2 * (n - 1) ** 2 <= 3 * m * m


#: Ends the index cannot read: a kind neither generic nor polar, a side
#: that is not a Side, and a polar multiplicity that is not an int >= 1.
#: The first had c1_pairing skip the end (winding 5 went unchecked
#: against its bound 1) and aleph_counts count it as polar; the second
#: made the three-convex sphere's index 1, not 4; the last two ended in
#: a TypeError of the closed form of m0.
UNREADABLE_ENDS = {
    "kind Polar": EndDescriptor(Side.CONVEX, "Polar", multiplicity=1,
                                winding=5),
    "side convex": EndDescriptor.generic("convex"),
    "multiplicity None": EndDescriptor(Side.CONVEX, "polar"),
    "multiplicity 1.5": EndDescriptor(Side.CONCAVE, "polar",
                                      multiplicity=1.5, winding=-2),
}

#: What end_windings says of an end it refuses.
REFUSED = "is not a Side|is not generic or polar|is not an int >= 1"


class TestEndWindings:
    """end_windings by two routes that do not call it: the tests' m0 and
    the polar spectrum's signs."""

    def test_polar_against_m0(self):
        for m in range(1, 100_000):
            n = m0(m)
            for side in Side:
                assert end_windings(EndDescriptor.polar(side, m)) == (
                    n - 1, n), m

    def test_polar_against_spectrum(self):
        # polar_spectrum lists -sqrt(3/2) + n/m for |n| <= n_max, sorted, so
        # the negative entries are the windings -n_max, ..., alpha_-.
        for m in range(1, 301):
            n_max = 2 * m
            negative = sum(ev < 0.0 for ev, _ in
                           polar_spectrum(m, n_max))
            below, _ = end_windings(EndDescriptor.polar(Side.CONVEX, m))
            assert negative == n_max + below + 1, m

    @pytest.mark.parametrize("end,windings,parity", [
        (EndDescriptor.generic(Side.CONCAVE), (0, 0), 0),
        (EndDescriptor.generic(Side.CONVEX), (0, 1), 1),
        (EndDescriptor.polar(Side.CONCAVE, 1), (1, 2), 1),
        (EndDescriptor.polar(Side.CONVEX, 1), (1, 2), 1),
        (EndDescriptor.polar(Side.CONVEX, 10), (12, 13), 1),
    ], ids=["generic-concave", "generic-convex", "polar-concave",
            "polar-convex", "polar-convex-10"])
    def test_parities(self, end, windings, parity):
        # The parities worked by hand for Wendl's criterion: a generic
        # end is even on the concave side and odd on the convex side, a
        # polar end is odd; CZ = alpha_- + alpha_+ = 2 alpha_- + parity.
        below, above = end_windings(end)
        assert (below, above) == windings
        assert above - below == parity
        assert (below + above) % 2 == parity

    def test_index_contribution_of_one_end(self):
        # aleph counts a convex generic end once, a concave one not at
        # all; aleph_- adds 2 m0 - 1 for a convex polar end and aleph_+
        # 1 - 2 m0 for a concave one.
        assert fredholm_index(0, 0, [EndDescriptor.generic(Side.CONVEX)]) == 1
        assert fredholm_index(0, 0, [EndDescriptor.generic(Side.CONCAVE)]) == 0
        for m in (1, 2, 5, 10, 881, 10 ** 40):
            for side, sign in ((Side.CONVEX, 1), (Side.CONCAVE, -1)):
                end = EndDescriptor.polar(side, m)
                assert fredholm_index(0, 0, [end]) == sign * (2 * m0(m) - 1)

    @pytest.mark.parametrize("name", UNREADABLE_ENDS)
    def test_unreadable_end_is_refused(self, name):
        end = UNREADABLE_ENDS[name]
        with pytest.raises(DomainError, match=REFUSED):
            end_windings(end)
        with pytest.raises(DomainError, match=REFUSED):
            c1_pairing(0, [EndDescriptor.generic(Side.CONVEX), end])
        with pytest.raises(DomainError, match=REFUSED):
            fredholm_index(0, 0, [end])


class TestC1Pairing:
    def test_no_polar_ends(self):
        ends = [EndDescriptor.generic(Side.CONVEX)]
        assert c1_pairing(0, ends) == 0

    def test_plane(self):
        ends = [EndDescriptor.generic(Side.CONVEX, EndClass(0, 1))]
        assert c1_pairing(1, ends) == -1

    def test_pole_crossing_cylinder(self):
        ends = [EndDescriptor.generic(Side.CONVEX, EndClass(-1, -2)),
                EndDescriptor.polar(Side.CONCAVE, 1, winding=-2)]
        assert c1_pairing(0, ends) == -2

    def test_bound_violations(self):
        with pytest.raises(DomainError, match=re.escape(
                "concave polar winding -1 > -alpha_+ = -2")):
            c1_pairing(0, [EndDescriptor.polar(Side.CONCAVE, 1, winding=-1)])
        with pytest.raises(DomainError, match=re.escape(
                "convex polar winding 2 > alpha_- = 1")):
            c1_pairing(0, [EndDescriptor.polar(Side.CONVEX, 1, winding=2)])
        # Saturated bounds are fine: -alpha_+ = -m0 concave, alpha_- =
        # m0 - 1 convex.
        assert c1_pairing(0, [EndDescriptor.polar(Side.CONCAVE, 1, winding=-2)]) == -2
        assert c1_pairing(0, [EndDescriptor.polar(Side.CONVEX, 1, winding=1)]) == 1

    @pytest.mark.parametrize("m", [1, 2, 10, 881, 10 ** 40],
                             ids=["1", "2", "10", "881", "10^40"])
    def test_bounds_are_the_windings_next_to_zero(self, m):
        # nu <= m0 - 1 on a convex end and nu <= -m0 on a concave one,
        # with m0 from the tests' closed form.
        for side, bound in ((Side.CONVEX, m0(m) - 1), (Side.CONCAVE, -m0(m))):
            assert c1_pairing(0, [EndDescriptor.polar(side, m, bound)]) == bound
            with pytest.raises(DomainError, match="polar winding"):
                c1_pairing(0, [EndDescriptor.polar(side, m, bound + 1)])


class TestFredholmIndex:
    def test_two_convex_one_concave_sphere(self):
        ends = [EndDescriptor.generic(Side.CONVEX),
                EndDescriptor.generic(Side.CONVEX),
                EndDescriptor.generic(Side.CONCAVE)]
        assert fredholm_index(-1, 0, ends) == 3

    def test_three_convex_sphere(self):
        ends = [EndDescriptor.generic(Side.CONVEX)] * 3
        assert fredholm_index(-1, 0, ends) == 4

    def test_plane(self):
        ends = [EndDescriptor.generic(Side.CONVEX)]
        assert fredholm_index(1, -1, ends) == 2

    def test_polar_corrections(self):
        ends = [EndDescriptor.generic(Side.CONVEX),
                EndDescriptor.polar(Side.CONCAVE, 1, winding=-2)]
        assert fredholm_index(0, -2, ends) == 0 + 4 + 1 + (1 - 4)


class TestIndexLowerBound:
    def test_three_end_sphere(self):
        assert index_lower_bound(0, 0, 3, 0, 0, 0) == 4

    def test_two_end_sphere(self):
        assert index_lower_bound(0, 0, 2, 0, 0, 1) == 3

    def test_orbit_cylinder(self):
        assert index_lower_bound(0, 0, 1, 0, 0, 1) == 1


class TestAdjunction:
    def test_orbit_cylinder(self):
        assert adjunction_e_pairing(0, 0, 0) == 0

    def test_embedded_sphere(self):
        assert adjunction_e_pairing(-1, 0, 0) == 1

    def test_one_double_point(self):
        assert adjunction_e_pairing(-1, 0, 1) == 3

    def test_e_minus_2m_is_one_for_spheres(self):
        for label in enumerate_labels(4, 2):
            rep = sphere_report(label)
            assert rep.e_pairing - 2 * rep.m_c == 1
            assert rep.e_pairing == -rep.chi - rep.c1_pairing + 2 * rep.m_c


class TestAsymptoticConstants:
    def test_equator(self):
        data = asymptotic_constants(EndClass(1, 0))
        assert data.zeta == pytest.approx(math.sqrt(6), abs=1e-14)
        assert data.kappa == pytest.approx(1 / math.sqrt(6), abs=1e-14)
        assert data.sigma0 == pytest.approx(0.0, abs=1e-15)

    def test_one_one_orbit_regression(self):
        # Frozen from a 40-digit evaluation at cos(theta0) = (sqrt3-1)/sqrt6.
        data = asymptotic_constants(EndClass(1, 1))
        assert data.zeta == pytest.approx(3.8182833799891661, rel=1e-14)
        assert data.kappa == pytest.approx(0.29534524728443612, rel=1e-14)

    def test_degenerate_angle(self):
        # (0, 2) covers the orbit of (0, 1) twice, at the same angle.
        for m_prime in (-1, 2):
            with pytest.raises(DomainError, match="1/3"):
                asymptotic_constants(EndClass(0, m_prime))

    def test_sigma0_needs_m(self):
        with pytest.raises(DomainError, match=re.escape(
                "cos^2(theta0) = 1/3: no decay constants")):
            asymptotic_constants(EndClass(0, 1))

    def test_cosine_on_a_pole(self):
        # 2 p'^2 - 3 p^2 = 5: the outer root's float cosine rounds onto
        # +-1, which refused the orbit.  sin^2 from the pole distance
        # gives it, with the same constants for either sign of m'.
        zeta, kappa, sigma0 = shadow.decay_constants(-121378881, 148658162)
        for m_prime in (148658162, -148658162):
            data = asymptotic_constants(EndClass(-121378881, m_prime))
            assert abs(data.zeta - zeta) <= 4e-16 * zeta
            assert abs(data.kappa - kappa) <= 4e-16 * kappa
            assert abs(data.sigma0 - sigma0) <= 4e-16 * sigma0

    def test_positive_in_range(self):
        for p, pp in [(1, 0), (1, 1), (2, 5), (-1, 2), (1, -3)]:
            data = asymptotic_constants(EndClass(p, pp))
            assert data.zeta > 0 and data.kappa > 0

    @pytest.mark.parametrize("pair", [(1, 10**9), (-1, 10**9), (1, 10**11),
                                      (1, 10**12), (-1, -10**12), (2, 3),
                                      (-1, 2), (31, 85)])
    def test_against_mpmath(self, pair):
        # From the float angle |1 - 3 cos^2| cancelled: 2.6e-8 relative
        # at (1, 10^9), and (1, 10^12) was refused as degenerate.
        zeta, kappa, sigma0 = shadow.decay_constants(*pair)
        data = asymptotic_constants(EndClass(*pair))
        assert abs(data.zeta - zeta) <= 2e-15 * zeta
        assert abs(data.kappa - kappa) <= 2e-15 * kappa
        assert abs(data.sigma0 - sigma0) <= 2e-15 * sigma0

    def test_multiple_of_a_pair_has_its_constants(self):
        assert (asymptotic_constants(EndClass(3, 6))
                == asymptotic_constants(EndClass(1, 2)))

    def test_pinned_bits(self):
        # sha256 of repr((zeta, kappa, sigma0)), or the error's type name,
        # over every accepted pair with |p| <= 30 and |p'| <= 45 in
        # increasing (p, p'), re-recorded when sin^2 theta0 came from the
        # pole distance instead of the float angle: the worst error
        # against mpmath went from 1.8e-13 to 1.0e-15.  Re-recorded when
        # the pole distance's sqrt(1 + 2b^2) - 1 became 2b^2 / q, which
        # cancels nothing at small b: 170 pairs moved, by at most
        # 6.2e-16 relative, and the worst errors stayed 6.1e-16, 6.6e-16
        # and 1.0e-15 in zeta, kappa and sigma0.  Re-recorded when the
        # refusal at m = 0 became a DomainError: hashed under the class
        # name it had before, the values give back the digest before,
        # a40126a0...389a9734, so no value bit moved.
        digest = hashlib.sha256()
        count = 0
        for p in range(-30, 31):
            for pp in range(-45, 46):
                if not sm.classify_pair(p, pp)[0]:
                    continue
                count += 1
                try:
                    value = repr(tuple(asymptotic_constants(EndClass(p, pp))))
                except DomainError as exc:
                    assert p == 0, (p, pp, exc)     # cos^2 = 1/3 at m = 0 only
                    value = type(exc).__name__
                digest.update(value.encode() + b"\n")
        assert count == 2665
        assert digest.hexdigest() == (
            "0b36e6d8017e69e604967a05eaae8b459d1e82e9cc41364505285d791bcf5111")


class TestSpectrum:
    def test_generic_zero_modes(self):
        spec = generic_spectrum(2.0, 1, 0)
        assert spec == [(-2.0, 1), (0.0, 1)]

    def test_generic_multiplicities(self):
        spec = generic_spectrum(1.0, 2, 3)
        zeros = [ev for ev, mult in spec if ev == 0.0]
        assert len(zeros) == 1
        assert sum(mult for ev, mult in spec if ev == 0.0) == 1
        assert all(mult == 2 for ev, mult in spec if ev not in (0.0, -1.0))
        assert spec == sorted(spec)

    def test_polar_value(self):
        spec = polar_spectrum(1, 1)
        vals = [ev for ev, _ in spec]
        assert vals[1] == pytest.approx(-math.sqrt(1.5), abs=1e-15)
        assert vals[2] == pytest.approx(-math.sqrt(1.5) + 1, abs=1e-15)
        assert vals[2] == pytest.approx(-0.22474487139158905, abs=1e-15)

    @pytest.mark.parametrize("spectrum", [
        lambda n_max: generic_spectrum(1.0, 1, n_max),
        lambda n_max: polar_spectrum(1, n_max)], ids=["generic", "polar"])
    def test_past_the_budget_is_refused(self, monkeypatch, spectrum):
        def no_eigenvalues(*args):
            raise AssertionError("an eigenvalue was computed")

        monkeypatch.setattr(sm.spectra, "math", types.SimpleNamespace(
            sqrt=no_eigenvalues, hypot=no_eigenvalues))
        for n in (MAX_SPECTRUM_N + 1, 10 ** 20):
            with pytest.raises(DomainError, match="budget"):
                spectrum(n)
        with pytest.raises(AssertionError, match="eigenvalue"):  # at the budget
            spectrum(MAX_SPECTRUM_N)

    def test_large_zeta_neither_cancels_nor_overflows(self):
        # The positive eigenvalue is about n^2 / (T^2 zeta): as
        # (-zeta + sqrt(zeta^2 + 4n^2/T^2)) / 2 it was 0.0 past zeta ~ 1e12,
        # and zeta^2 overflowed past ~1.3e154.
        for zeta in (2e12, 1.6e154):
            spec = generic_spectrum(zeta, 3, 4)
            positive = [ev for ev, _ in spec if ev > 0.0]
            assert positive == pytest.approx(
                [n * n / (9.0 * zeta) for n in range(1, 5)], rel=1e-15)
            assert all(math.isfinite(ev) for ev, _ in spec)

    @pytest.mark.parametrize("zeta", [math.inf, -math.inf, math.nan])
    def test_non_finite_zeta_is_refused(self, zeta):
        # It gave -inf or nan eigenvalues.
        with pytest.raises(DomainError, match=f"^zeta = {zeta} is not"):
            generic_spectrum(zeta, 3, 1)

    def test_polar_never_zero(self):
        for m in range(1, 101):
            spec = polar_spectrum(m, 2 * m)
            assert all(abs(ev) > 1e-6 for ev, _ in spec)
            assert all(mult == 2 for _, mult in spec)


class TestSphereReport:
    def test_symmetric_label(self):
        rep = sphere_report(L_SYM)
        assert rep.delta == 3
        assert rep.m_c == 0
        assert rep.index == 3
        assert rep.aleph == 2
        assert rep.e_pairing == 1
        assert rep.gcd_triple == (1, 1, 3)

    def test_three_end_label(self):
        rep = sphere_report(OrderedLabel3.make([(1, -1), (1, 4), (-2, -3)], 0))
        assert rep.index == 4
        assert rep.aleph == 3
        assert rep.m_c == 2

    def test_index_equals_bound(self):
        for label in enumerate_labels(4, 2):
            rep = sphere_report(label)
            assert rep.index == rep.aleph + 1 == 3
            assert rep.index == index_lower_bound(0, 0, rep.aleph, 0, 0, 1)

    def test_index_matches_fredholm_formula(self):
        # The report's closed form 1 + aleph against the general formula,
        # with the ends built here: a convex end per pair, and the
        # concave (k, k') = (p + q, p' + q') of a two-end label.
        for label in two_and_ordered_three(8, 8):
            pairs = label.pairs()
            ends = [EndDescriptor.generic(Side.CONVEX, EndClass(*p))
                    for p in pairs]
            if len(pairs) == 2:
                (p, pp), (q, qp) = pairs
                ends.append(EndDescriptor.generic(
                    Side.CONCAVE, EndClass(p + q, pp + qp)))
            assert sphere_report(label).index == fredholm_index(-1, 0, ends)

    def test_translate_count_is_delta(self):
        # 1 + 2 m_C + sum(g_i - 1) = Delta, the count the invariants
        # command reports under translate_intersection_count, with m_C
        # from the root-of-unity oracle rather than the gcd formula.
        for label in two_and_ordered_three(6, 5):
            (p, pp), (q, qp) = label.pairs()[:2]
            gcds = (math.gcd(p, pp), math.gcd(q, qp),
                    math.gcd(p + q, pp + qp))
            count = (1 + 2 * double_points_bruteforce(label)
                     + sum(g - 1 for g in gcds))
            assert count == delta(label), label

    def test_json_keys(self, capsys):
        # invariants prints the report's fields in their order, each
        # under its key, and the oracle's and the translate count after.
        assert sm.InvariantReport._fields == (
            "delta", "gcd_triple", "m_c", "index", "aleph", "e_pairing",
            "c1_pairing", "chi")
        with pytest.raises(SystemExit):
            main(["invariants", "--pairs", "2,1;1,2"])
        js = json.loads(capsys.readouterr().out)
        assert list(js) == ["label", "delta", "gcds", "m_C", "index", "aleph",
                            "e_pairing", "c1", "chi", "m_C_oracle",
                            "translate_intersection_count"]
        assert js["label"] == {"pairs": [[2, 1], [1, 2]]}
        assert list(js.values())[1:9] == json.loads(
            json.dumps(sphere_report(L_SYM)))


#: Delta = 1025^2 - 1 = 1,050,624, past the walk budget.
L_OVER = Label2.make((1025, 1), (1, 1025))


def _no_walk(*args):
    raise AssertionError("a residue walk started past the budget")


class TestWalkBudget:
    def test_refused_before_any_walk(self, monkeypatch):
        monkeypatch.setattr(sm.invariants, "range", _no_walk, raising=False)
        for route in (residue_pairs, double_points_bruteforce):
            with pytest.raises(DomainError, match="budget"):
                route(L_OVER)
        with pytest.raises(DomainError, match="budget"):
            sm.phi_double_points(sm.ModelMapParams(label=L_OVER))

    def test_formula_has_no_budget(self):
        # Delta - gcds + 2 = 1,050,624 - 1 - 1 - 1026 + 2, halved.
        assert double_points_formula(L_OVER) == 524799
        assert sphere_report(L_OVER).delta == 1050624

    def test_admits_every_documented_delta(self):
        # README's largest example; the benchmark pools stay <= 20,000.
        label = Label2.make((997, 3), (5, 999))
        assert sm.invariants._lattice(label)[0] == 995988
        assert 995988 <= sm.invariants.MAX_WALK_DELTA < delta(L_OVER)


def box_pairs():
    """The coprime admissible pairs p <= 30, |p'| <= 45."""
    return [(p, pp) for p in range(1, 31) for pp in range(-45, 46)
            if math.gcd(p, pp) == 1 and sm.classify_pair(p, pp)[0]]


def sampled_pairs():
    """200 seeded coprime admissible pairs, 30 < p <= 10^4, |p'| <= 1.5e4:
    past the box, where p^2/|D| and the spectrum's n grow."""
    rnd = random.Random(19)
    pairs = []
    while len(pairs) < 200:
        p, pp = rnd.randint(31, 10 ** 4), rnd.randint(-15000, 15000)
        if math.gcd(p, pp) == 1 and sm.classify_pair(p, pp)[0]:
            pairs.append((p, pp))
    return pairs


class TestReflection:
    """ROADMAP item 17 on the invariants layer.  The reflection
    sigma(s, t, theta, phi) = (s, t, pi - theta, -phi) sends an end class
    (m, m') to (m, -m'), so its orbit angle to pi - theta0, and an
    ordering (x, y, k) of a three-end label to (sigma y, sigma x,
    sigma k).  The decay constants and the spectrum depend on cos^2,
    |cos| and |m'/m| only, and the orbit cosine's pole distance and
    |1 - 3 cos^2| are taken from |m'|, so the image agrees bit for bit.
    Exhaustive over the 1,331 admissible coprime pairs with 0 < |m| <= 30
    and 1 <= m' <= 45, and the 520 three-end labels <= 6.

    A mutation that breaks the symmetry fails this class: 4 cos in
    place of 4 |cos| in sigma0.  A sigma-symmetric mutation passes a
    commuting check; tests/test_cli.py::TestSpectrumDigits, which holds
    every printed constant and eigenvalue to an mpmath oracle, is the
    check that is not symmetric."""

    def test_decay_constants_and_spectrum(self):
        count = 0
        for m in range(-30, 31):
            for mp in range(1, 46):
                if m == 0 or math.gcd(m, mp) != 1 or not sm.classify_pair(
                        m, mp)[0]:
                    continue
                count += 1
                data = asymptotic_constants(EndClass(m, mp))
                image = asymptotic_constants(EndClass(*sigma((m, mp))))
                assert image == data, (m, mp)
                assert (generic_spectrum(image.zeta, abs(m), 3)
                        == generic_spectrum(data.zeta, abs(m), 3))
        assert count == 1331

    def test_three_end_labels(self):
        labels = enumerate_labels(6, 3)
        assert len(labels) == 520
        for l3 in labels:
            mirrored = [sigma(x) for x in l3.pairs]
            ok, orderings = sm.validate_label3(mirrored)
            assert ok
            assert orderings == sorted((sigma(y), sigma(x), sigma(k))
                                       for x, y, k in l3.orderings())
            image_l3 = Label3.make(mirrored)
            for x, y, k in l3.orderings():
                report = sphere_report(OrderedLabel3(l3, (x, y, k)))
                g1, g2, gk = report.gcd_triple
                image = sphere_report(OrderedLabel3(
                    image_l3, (sigma(y), sigma(x), sigma(k))))
                assert image == report._replace(gcd_triple=(g2, g1, gk))


class TestDecayRateIdentity:
    """A profile end leaves its orbit angle at the rate of the orbit's
    decay constants: R zeta kappa = 1/sqrt6, where R is the residue of
    s(theta) at the angle in curves.profile_log_terms, and zeta, kappa
    are asymptotic_constants of the end class, (p, p') at theta0 and
    (-p, -p') at theta0_bar.  The two sides are separately coded
    formulas.  Both take the companion angle's root from the exact
    D = 2 p'^2 - 3 p^2, so neither loses digits near D = 0, and each
    side is a few rounded operations: the bound is 1e-14 (stated, not
    fitted: the worst gap is 1.0e-15, in the box, on the seeded sample
    and on conftest.boundary_pairs alike).  The float residues it
    replaced needed 1e-14 (1 + (p^2/|D|)^2)."""

    @staticmethod
    def _check_ends(p, pp):
        """Check each end profile_log_terms accepts; return their count."""
        terms = profile_log_terms(p, pp)
        ends = [(terms.inner[0], EndClass(p, pp))]
        if 2 * pp * pp > 3 * p * p:
            ends.append((terms.outer[0], EndClass(-p, -pp)))
        for residue, end in ends:
            zeta, kappa, _ = asymptotic_constants(end)
            gap = abs(residue * zeta * kappa * math.sqrt(6.0) - 1.0)
            assert gap <= 1e-14, (end, gap)
        return len(ends)

    def test_every_end_in_a_box(self):
        assert sum(self._check_ends(p, pp) for p, pp in box_pairs()) == 2663

    def test_seeded_sample(self):
        for p, pp in sampled_pairs():
            self._check_ends(p, pp)

    def test_boundary_pairs(self):
        for p, pp in boundary_pairs():
            self._check_ends(p, pp)


class TestPolarDecayRates:
    """ROADMAP item 19 at the poles: a profile leaves theta = 0 or pi at
    the rate |1/(2R)|, R the residue of s(theta) over x = cos(theta) =
    +-1 in curves.profile_log_terms (x - 1 ~ -theta^2/2 there), and that
    rate is |lambda_n| for an eigenvalue lambda_n = -sqrt(3/2) + n/p of
    polar_spectrum(p, n_max), n = -p' at 0 and n = p' at pi.
    The eigenvalue is the one polar_spectrum returns, n_max + n-th in its
    sorted list, not the formula.  Both sides round sqrt6 +- 2 p'/p, so
    the bound is 4 eps (sqrt(3/2) + |p'/p|) (stated, not fitted: the
    worst gap is 0.7 eps times that, and 0.17 on the seeded sample)."""

    @staticmethod
    def _check_poles(p, pp):
        eps = 2.0 ** -52
        terms = profile_log_terms(p, pp)
        n_max = abs(pp)
        spectrum = polar_spectrum(p, n_max)
        bound = 4.0 * eps * (math.sqrt(1.5) + abs(pp / p))
        for residue, n in ((terms.at_zero, -pp), (terms.at_pi, pp)):
            eigenvalue, multiplicity = spectrum[n_max + n]
            assert multiplicity == 2
            gap = abs(abs(0.5 / residue) - abs(eigenvalue))
            assert gap <= bound, ((p, pp), n, gap, bound)

    def test_every_polar_end_in_a_box(self):
        pairs = box_pairs()
        for p, pp in pairs:
            self._check_poles(p, pp)
        assert 2 * len(pairs) == 3342

    def test_seeded_sample(self):
        for p, pp in sampled_pairs():
            self._check_poles(p, pp)
