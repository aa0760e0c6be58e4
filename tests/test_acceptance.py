"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced (without -s they appear in the captured output).
"""

import functools
import math
import random
import time

import pytest

import sympl_moduli as sm
from sympl_moduli import (BranchId, CurveSpec, Label2, ModelMapParams,
                          OrderedLabel3, Point4, Tangent4, apply_J,
                          boundary_labels, catalog_entries, contact_eval,
                          coord_functions, double_points_bruteforce,
                          double_points_formula, eval_invariant_curve,
                          integrate_profile, l0_spectrum, lambda_of_theta,
                          omega_eval, phi_double_points, phi_eval,
                          reeb_vector, s_max, solve_theta0, solve_theta0_bar,
                          sphere_report, theta_from_lambda)
from sympl_moduli.geometry import SQRT6, THETA_C
from sympl_moduli.invariants import GenericSpectrumCase, PolarSpectrumCase
from sympl_moduli.reeb import classify_pair

from conftest import double_points_lattice, profile_ode_residual


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num:2d} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {num:2d} ({name}): PASS")
        return wrapper
    return deco


@criterion(1, "oracle equivalence, |entries| <= 10")
def test_criterion_1_oracle_equivalence(labels2_bound10):
    start = time.perf_counter()
    assert len(labels2_bound10) > 10000
    for label in labels2_bound10:
        assert double_points_formula(label) == double_points_bruteforce(label)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


@criterion(2, "paper double-point values and prime rule")
def test_criterion_2_paper_values(labels2_bound10):
    assert double_points_formula(Label2.make((2, 1), (1, 2))) == 0
    checked = 0
    for label in labels2_bound10:
        d = label.delta
        if d not in (3, 5, 7, 11, 13):
            continue
        pairs = [label.p_pair.as_tuple(), label.q_pair.as_tuple(),
                 label.k_pair.as_tuple()]
        if any(m % d == 0 and mp % d == 0 for m, mp in pairs):
            continue
        assert double_points_formula(label) == (d - 1) // 2
        checked += 1
    assert checked > 1000


@criterion(3, "index table")
def test_criterion_3_index_table(labels2_bound10, label3_candidates_bound8):
    for label in labels2_bound10:
        rep = sphere_report(label)
        assert rep.index == 3 == rep.aleph + 1
    for canon, orderings in label3_candidates_bound8:
        for which in range(len(orderings)):
            rep = sphere_report(OrderedLabel3.make(canon, which))
            assert rep.index == 4 == rep.aleph + 1
    exemptions = []
    for entry in catalog_entries():
        assert entry.index() == entry.expected_index
        assert entry.aleph() == entry.expected_aleph
        bound = entry.lower_bound()
        if bound is None:
            exemptions.append(entry.case_id)
        else:
            assert entry.index() >= bound
    # The polar cylinder sits inside the theta in {0, pi} locus, where the
    # bound's intersection count is undefined; it is the only exemption.
    assert exemptions == ["I=aleph=0.polar-cylinder"]


@criterion(4, "orbit-angle residuals, |entries| <= 50")
def test_criterion_4_reeb_residuals():
    def residual(p, pp, theta):
        c = math.cos(theta)
        return abs(pp * (1 - 3 * c * c) - p * SQRT6 * c)

    checked = steep = 0
    for p in range(-50, 51):
        for pp in range(-50, 51):
            if (p, pp) == (0, 0) or not classify_pair(p, pp)[0]:
                continue
            assert residual(p, pp, solve_theta0(p, pp)) < 1e-12
            checked += 1
            if p != 0 and 2 * pp * pp > 3 * p * p:
                assert residual(p, pp, solve_theta0_bar(p, pp)) < 1e-12
                steep += 1
    assert checked > 3000 and steep > 1000


@criterion(5, "trace consistency for (1, 2)")
def test_criterion_5_trace_consistency():
    start = time.perf_counter()
    for range_id in range(3):
        trace = integrate_profile(1, 2, range_id, n_samples=1000)
        thetas = [row.theta for row in trace.samples]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))
        for row in trace.samples:
            f, h, _ = coord_functions(Point4(row.s, row.t, row.theta, row.phi))
            assert abs(row.f - f) / abs(f) < 1e-9
        for row in trace.samples[1:-1]:
            assert profile_ode_residual(trace.spec, row.theta) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f} s"


@criterion(6, "s_max identities")
def test_criterion_6_s_max():
    def numeric_max(spec, lo, hi):
        def scan(a, b, n):
            us = [a + (b - a) * i / (n - 1) for i in range(n)]
            return max((eval_invariant_curve(spec, 0.0, u).s, u) for u in us)
        _, u0 = scan(lo, hi, 601)
        step = (hi - lo) / 600
        best, _ = scan(max(lo, u0 - step), min(hi, u0 + step), 801)
        return best

    plane = CurveSpec.example2(0.0, 2.0, 1)
    assert s_max(plane) == pytest.approx(0.0, abs=1e-15)
    assert numeric_max(plane, 0.0, 3.0) == pytest.approx(0.0, abs=1e-8)

    cyl = CurveSpec.example4(0.0, 2.0 * math.sqrt(2.0) / 3.0)
    assert s_max(cyl) == pytest.approx(0.0, abs=1e-15)
    assert numeric_max(cyl, -3.0, 3.0) == pytest.approx(0.0, abs=1e-8)


@criterion(7, "model-map double points for {(4,1),(1,1)}")
def test_criterion_7_model_map():
    label = Label2.make((4, 1), (1, 1))
    for r in (2.0, 10.0, 100.0):
        params = ModelMapParams(label=label, r=r)
        points = phi_double_points(params)
        assert len(points) == 2
        for dp in points:
            assert dp.residual < 1e-9
            assert abs(dp.w - dp.z.conjugate()) < 1e-9 * (1 + abs(dp.z))
        rnd = random.Random(int(r))
        (p, pp), (q, qp) = label.pairs()
        d = label.delta
        hits = 0
        while hits < 1000:
            z = complex(rnd.uniform(-3, 3), rnd.uniform(-3, 3))
            if abs(z) < 1e-2 or abs(z - 1) < 1e-2:
                continue
            out = phi_eval(params, z)
            assert abs(q * out.v - qp * out.u
                       + d * math.log(r / abs(z))) < 1e-10
            assert abs(p * out.v - pp * out.u
                       - d * math.log(r / abs(1 - z))) < 1e-10
            hits += 1


@criterion(8, "three-end boundary structure and double points, |entries| <= 8")
def test_criterion_8_boundary_structure(label3_candidates_bound8):
    admissible = 0
    for canon, orderings in label3_candidates_bound8:
        assert len(orderings) in (0, 2), canon
        if not orderings:
            continue
        admissible += 1
        l3 = sm.Label3.make(canon)
        b1, b2 = boundary_labels(l3)
        assert sm.validate_label2(*b1.pairs())[0]
        assert sm.validate_label2(*b2.pairs())[0]
        assert b1 != b2
        counts = set()
        for which in (0, 1):
            label = OrderedLabel3.make(canon, which)
            m = double_points_formula(label)
            assert double_points_bruteforce(label) == m
            assert double_points_lattice(label) == m
            points = phi_double_points(ModelMapParams(label=label))
            assert len(points) == 2 * m
            assert all(dp.residual < 1e-9 for dp in points)
            counts.add(m)
        assert len(counts) == 1, canon
    assert admissible == 1562


@criterion(9, "spectral sanity")
def test_criterion_9_spectra():
    for m in range(1, 101):
        spec = l0_spectrum(PolarSpectrumCase(m=m), 2 * m)
        assert all(abs(ev) > 1e-12 for ev, _ in spec)
    for p, pp in [(1, 0), (1, 1), (2, 5), (-1, 2)]:
        data = sm.asymptotic_constants(sm.EndClass(p, pp))
        spec = l0_spectrum(GenericSpectrumCase(zeta=data.zeta,
                                               period=abs(p)), 50)
        zeros = [(ev, mult) for ev, mult in spec if abs(ev) < 1e-12]
        assert zeros == [(0.0, 1)]


@criterion(10, "geometry suite")
def test_criterion_10_geometry():
    rnd = random.Random(42)
    frame = [Tangent4(v_s=1), Tangent4(v_t=1), Tangent4(v_theta=1),
             Tangent4(v_phi=1)]
    for _ in range(120):
        p = Point4(s=rnd.uniform(-2, 2), t=rnd.uniform(0, 2 * math.pi),
                   theta=rnd.uniform(0.02, math.pi - 0.02),
                   phi=rnd.uniform(0, 2 * math.pi))
        assert contact_eval(p, reeb_vector(p)) == pytest.approx(1.0, abs=1e-12)
        v = Tangent4(*(rnd.uniform(-1, 1) for _ in range(4)))
        jjv = apply_J(p, apply_J(p, v))
        for got, want in ((jjv.v_s, v.v_s), (jjv.v_t, v.v_t),
                          (jjv.v_theta, v.v_theta), (jjv.v_phi, v.v_phi)):
            assert got == pytest.approx(-want, abs=1e-10)
        g = coord_functions(p)[2]
        diag = [1.0, 1.0, 1.0, math.sin(p.theta) ** 2]
        for i, ei in enumerate(frame):
            for j, ej in enumerate(frame):
                got = omega_eval(p, ei, apply_J(p, ej)) / g
                assert got == pytest.approx(diag[i] if i == j else 0.0,
                                            abs=1e-10)
    # Angle-inversion round trip on each monotonicity branch.
    branches = [(BranchId.A, 0.01, THETA_C - 0.01),
                (BranchId.B, THETA_C + 0.01, math.pi - THETA_C - 0.01),
                (BranchId.C, math.pi - THETA_C + 0.01, math.pi - 0.01)]
    for branch, lo, hi in branches:
        for _ in range(100):
            theta = rnd.uniform(lo, hi)
            back = theta_from_lambda(lambda_of_theta(theta), branch)
            assert back == pytest.approx(theta, abs=1e-10)
