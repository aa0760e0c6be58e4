import math

import pytest

import sympl_moduli as sm
from sympl_moduli import (EndClass, EndDescriptor, GenericSpectrumCase, Label2,
                          OrderedLabel3, PolarSpectrumCase, Side,
                          adjunction_e_pairing, asymptotic_constants,
                          c1_pairing, delta, double_points_bruteforce,
                          double_points_formula, enumerate_labels,
                          fredholm_index, index_lower_bound, l0_spectrum,
                          m0_of, residue_pairs, sphere_report)
from sympl_moduli.errors import (BoundViolation, DegenerateAngle, DomainError,
                                 ZeroPair)

from conftest import double_points_lattice

L_SYM = Label2.make((2, 1), (1, 2))      # Delta = 3, embedded
L_41 = Label2.make((4, 1), (1, 1))       # Delta = 3, one double point
L_5 = Label2.make((1, -1), (1, 4))       # Delta = 5, two double points


def two_and_ordered_three(bound2, bound3):
    """Every two-end label up to bound2, then every ordered three-end
    label up to bound3."""
    labels = list(enumerate_labels(bound2, 2))
    labels += [OrderedLabel3(l3, ordering)
               for l3 in enumerate_labels(bound3, 3)
               for ordering in l3.orderings()]
    return labels


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
            assert residue_pairs(label) == scan, label
            assert 2 * double_points_bruteforce(label) == len(scan), label
            coarse += math.gcd(d, q, qp) > 1
        assert 0 < coarse < len(labels)

    def test_oracle_counts_without_building_pairs(self, monkeypatch):
        # The oracle counts during its own walk: it still answers when
        # the list-building route is unavailable.
        def refuse(label):
            raise AssertionError("the oracle built the residue-pair list")
        expected = {label: double_points_formula(label)
                    for label in (L_SYM, L_41, L_5,
                                  Label2.make((-2, -4), (0, -2)),
                                  Label2.make((4, 2), (1, 2)))}
        monkeypatch.setattr(sm.invariants, "residue_pairs", refuse)
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
            assert len(residue_pairs(label)) == 2 * m_c, label
            assert double_points_lattice(label) == m_c, label

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
            d = label.delta
            pairs = [label.p_pair.as_tuple(), label.q_pair.as_tuple(),
                     label.k_pair.as_tuple()]
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
        assert label.delta == 4
        pairs = [label.p_pair.as_tuple(), label.q_pair.as_tuple(),
                 label.k_pair.as_tuple()]
        assert not any(m % 4 == 0 and mp % 4 == 0 for m, mp in pairs)
        assert double_points_formula(label) == 0
        assert double_points_bruteforce(label) == 0

    def test_prime_rule(self):
        for label in enumerate_labels(5, 2):
            d = label.delta
            if d not in (3, 5, 7, 11, 13):
                continue
            pairs = [label.p_pair.as_tuple(), label.q_pair.as_tuple(),
                     label.k_pair.as_tuple()]
            if any(m % d == 0 and mp % d == 0 for m, mp in pairs):
                continue
            assert double_points_formula(label) == (d - 1) // 2

    def test_non_coprime_pairs_allowed(self):
        label = Label2.make((4, 2), (1, 2))
        assert double_points_formula(label) == double_points_bruteforce(label) == 2


class TestM0:
    @pytest.mark.parametrize("m,expected", [(1, 2), (2, 3), (3, 4), (4, 5),
                                            (5, 7), (10, 13)])
    def test_values(self, m, expected):
        assert m0_of(m) == expected

    def test_defining_property(self):
        for m in range(1, 100_000):
            n = m0_of(m)
            assert 2 * n * n > 3 * m * m
            assert 2 * (n - 1) ** 2 <= 3 * m * m


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
        with pytest.raises(BoundViolation):
            c1_pairing(0, [EndDescriptor.polar(Side.CONCAVE, 1, winding=-1)])
        with pytest.raises(BoundViolation):
            c1_pairing(0, [EndDescriptor.polar(Side.CONVEX, 1, winding=2)])
        # Saturated bounds are fine: -m0 concave, m0 - 1 convex.
        assert c1_pairing(0, [EndDescriptor.polar(Side.CONCAVE, 1, winding=-2)]) == -2
        assert c1_pairing(0, [EndDescriptor.polar(Side.CONVEX, 1, winding=1)]) == 1


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
        data = asymptotic_constants(math.pi / 2, EndClass(1, 0))
        assert data.zeta == pytest.approx(math.sqrt(6), abs=1e-14)
        assert data.kappa == pytest.approx(1 / math.sqrt(6), abs=1e-14)
        assert data.sigma0 == pytest.approx(0.0, abs=1e-15)

    def test_one_one_orbit_regression(self):
        # Frozen from a 40-digit evaluation at cos(theta0) = (sqrt3-1)/sqrt6.
        theta0 = sm.solve_theta0(1, 1)
        data = asymptotic_constants(theta0, EndClass(1, 1))
        assert data.zeta == pytest.approx(3.8182833799891661, rel=1e-14)
        assert data.kappa == pytest.approx(0.29534524728443612, rel=1e-14)

    def test_degenerate_angle(self):
        with pytest.raises(DegenerateAngle):
            asymptotic_constants(sm.solve_theta0(0, 1))

    def test_sigma0_needs_m(self):
        with pytest.raises(ZeroPair):
            asymptotic_constants(math.pi / 2, EndClass(0, 1))

    def test_positive_in_range(self):
        for p, pp in [(1, 0), (1, 1), (2, 5), (-1, 2), (1, -3)]:
            data = asymptotic_constants(sm.solve_theta0(p, pp))
            assert data.zeta > 0 and data.kappa > 0


class TestSpectrum:
    def test_generic_zero_modes(self):
        spec = l0_spectrum(GenericSpectrumCase(zeta=2.0, period=1), 0)
        assert spec == [(-2.0, 1), (0.0, 1)]

    def test_generic_multiplicities(self):
        spec = l0_spectrum(GenericSpectrumCase(zeta=1.0, period=2), 3)
        zeros = [ev for ev, mult in spec if ev == 0.0]
        assert len(zeros) == 1
        assert sum(mult for ev, mult in spec if ev == 0.0) == 1
        assert all(mult == 2 for ev, mult in spec if ev not in (0.0, -1.0))
        assert spec == sorted(spec)

    def test_polar_value(self):
        spec = l0_spectrum(PolarSpectrumCase(m=1), 1)
        vals = [ev for ev, _ in spec]
        assert vals[1] == pytest.approx(-math.sqrt(1.5), abs=1e-15)
        assert vals[2] == pytest.approx(-math.sqrt(1.5) + 1, abs=1e-15)
        assert vals[2] == pytest.approx(-0.22474487139158905, abs=1e-15)

    def test_polar_never_zero(self):
        for m in range(1, 101):
            spec = l0_spectrum(PolarSpectrumCase(m=m), 2 * m)
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
        for label in two_and_ordered_three(4, 4):
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

    def test_json_keys(self):
        js = sphere_report(L_SYM).to_json(L_SYM)
        assert list(js) == ["label", "delta", "gcds", "m_C", "index", "aleph",
                            "e_pairing", "c1", "chi"]


#: Delta = 1025^2 - 1 = 1,050,624, past the walk budget.
L_OVER = Label2.make((1025, 1), (1, 1025))


def _no_walk(*args):
    raise AssertionError("a residue walk started past the budget")


class TestWalkBudget:
    def test_refused_before_any_walk(self, monkeypatch):
        monkeypatch.setattr(sm.invariants, "_solve_at", _no_walk)
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
        assert 995988 <= sm.invariants.MAX_WALK_DELTA < L_OVER.delta
