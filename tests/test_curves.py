import hashlib
import math

import pytest

from sympl_moduli import (CurveSpec, ReebOrbit, classify_branches,
                          coord_functions, eval_invariant_curve,
                          integrate_profile, profile_ds_dtheta, s_max,
                          s_of_theta, solve_theta0, solve_theta0_bar)
from sympl_moduli.curves import profile_log_terms, profile_ode_residual
from sympl_moduli.errors import (BranchError, DomainError, InvalidLabel,
                                  WrongExample)
from sympl_moduli.geometry import Point4

SQRT6_ = math.sqrt(6.0)

# Pairs covering both regimes (two and three ranges), both signs of p',
# p' = 0, and (4, 5) and (5, -6) on either side of the three-range
# threshold 2 p'^2 = 3 p^2.
CLOSED_FORM_PAIRS = [(1, 0), (1, 1), (1, 2), (1, -2), (2, 5), (4, 5),
                     (12, -19), (5, -6)]


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
        assert ranges[1].hi == pytest.approx(solve_theta0_bar(1, 2))

    def test_steep_negative_mirrored(self):
        ranges = classify_branches(1, -2)
        assert [(r.lo_label, r.hi_label) for r in ranges] == [
            ("pole0", "theta0_bar"), ("theta0_bar", "theta0"),
            ("theta0", "polePi")]

    def test_needs_positive_p(self):
        with pytest.raises(InvalidLabel):
            classify_branches(-1, 2)


class TestPinnedCurves:
    def test_values_keep_their_bits(self):
        """s_of_theta at seven angles and eval_invariant_curve at five
        points of every range of CLOSED_FORM_PAIRS keep their bits.

        The digest was recorded at the commit before a pair's fixed
        angles and theta ranges were given one source, before any of
        that code changed.
        """
        vals = []
        for p, pp in CLOSED_FORM_PAIRS:
            for rid, rng in enumerate(classify_branches(p, pp)):
                mid = 0.5 * (rng.lo + rng.hi)
                spec = CurveSpec.profile(p, pp, rid, phi0=0.3, s_anchor=0.2)
                for frac in (1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-6):
                    theta = rng.lo + (rng.hi - rng.lo) * frac
                    vals.append(s_of_theta(p, pp, mid, 0.2, theta))
                for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                    theta = rng.lo + (rng.hi - rng.lo) * frac
                    s = s_of_theta(p, pp, mid, 0.2, theta)
                    g = 1.0 - 3.0 * math.cos(theta) ** 2
                    u = math.exp(-SQRT6_ * s) * g
                    pt = eval_invariant_curve(spec, 0.5, u)
                    vals.extend((pt.s, pt.t, pt.theta, pt.phi))
        assert len(vals) == 567
        digest = hashlib.sha256("\n".join(map(repr, vals)).encode()).hexdigest()
        assert digest == ("c3d555f949d626163f6968890671c39f"
                          "300a9e9e4387d1609a6d8c0cec94777e")


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
        with pytest.raises(BranchError):
            s_of_theta(1, 2, th0 - 0.2, 0.0, th0 + 0.2)
        with pytest.raises(BranchError):
            s_of_theta(1, 2, th0, 0.0, th0 + 0.1)

    @pytest.mark.parametrize("p,pp,theta", [
        (1, 0, 0.0), (1, 0, math.pi / 2), (1, 0, math.pi),
        (1, 2, solve_theta0(1, 2)), (1, 2, solve_theta0_bar(1, 2))],
        ids=["pole0", "theta0-p'=0", "polePi", "theta0", "theta0_bar"])
    def test_equal_fixed_angles_rejected(self, p, pp, theta):
        # s diverges at a fixed angle, also when both angles sit on it.
        with pytest.raises(BranchError):
            s_of_theta(p, pp, theta, 0.7, theta)

    @pytest.mark.parametrize("p,pp", [(-1, -2), (2, 4), (0, 1)],
                             ids=["negative-p", "not-coprime", "zero-p"])
    def test_domain_is_that_of_classify_branches(self, p, pp):
        # s depends on p'/p only, but the profile families are labelled
        # by p > 0 coprime to p'; s_of_theta refuses what
        # classify_branches and integrate_profile refuse.
        with pytest.raises(InvalidLabel):
            s_of_theta(p, pp, 0.5, 0.0, 0.6)

    def test_monotone_on_steep_upper_range(self):
        # s has no interior extrema on the range from the companion angle
        # to the pole: the integrand never vanishes there.
        thb = solve_theta0_bar(1, 2)
        lo, hi = thb + 1e-3, math.pi - 1e-3
        vals = [s_of_theta(1, 2, lo, 0.0, lo + (hi - lo) * i / 200)
                for i in range(201)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


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

    def test_csv_round_trip(self, tmp_path):
        tr = integrate_profile(1, 2, 1, n_samples=50)
        path = tmp_path / "trace.csv"
        tr.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "s,t,theta,phi,f,h"
        assert len(lines) == 51
        for line, row in zip(lines[1:], tr.samples):
            vals = [float(x) for x in line.split(",")]
            assert vals[0] == pytest.approx(row.s, rel=1e-11)
            assert vals[2] == pytest.approx(row.theta, rel=1e-11)


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
        data = asymptotic_constants(th0)
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
        from sympl_moduli import asymptotic_constants
        th = solve_theta0(-1, -2)
        assert th == pytest.approx(solve_theta0_bar(1, 2), abs=1e-14)
        lam0 = 2.0 * math.sin(th) ** 2
        data = asymptotic_constants(th)
        tr = integrate_profile(1, 2, 1, n_samples=4000, clip=1e-6)
        rows = tuple(reversed(tr.samples))   # theta0_bar is the upper end
        r1, r2 = rows[2], rows[20]
        slope = ((math.log(abs(r2.h / r2.f - lam0))
                  - math.log(abs(r1.h / r1.f - lam0)))
                 / (math.log(abs(r2.f)) - math.log(abs(r1.f))))
        assert -slope == pytest.approx(data.zeta * data.kappa, rel=1e-2)


def _mpmath_s(p, pp, theta_ref, theta):
    """s(theta) - s(theta_ref) by mpmath quadrature of ds/dtheta written
    out from the profile equation, split geometrically toward theta
    (which may sit next to a fixed angle, where the integrand blows up)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        a = mp.mpf(pp) / p
        s6 = mp.sqrt(6)

        def ds(th):
            c, sn = mp.cos(th), mp.sin(th)
            return -(1 - 3 * c * c + s6 * a * c * sn * sn) / (
                (s6 * c - a * (1 - 3 * c * c)) * sn)

        lo, hi = mp.mpf(theta_ref), mp.mpf(theta)
        cuts = [hi - (hi - lo) * mp.mpf(10) ** -k for k in range(0, 12, 3)]
        return float(mp.quad(ds, cuts + [hi]))


class TestClosedForm:
    @pytest.mark.parametrize("p,pp", CLOSED_FORM_PAIRS)
    def test_matches_mpmath_quadrature(self, p, pp):
        for rng in classify_branches(p, pp):
            mid = 0.5 * (rng.lo + rng.hi)
            for clip in (1e-3, 1e-6, 1e-9):
                for theta in (rng.lo + clip, rng.hi - clip):
                    want = _mpmath_s(p, pp, mid, theta)
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

    @pytest.mark.parametrize("p,pp", CLOSED_FORM_PAIRS)
    def test_orbit_angle_residue_is_decay_rate(self, p, pp):
        # s ~ log|cos theta - cos theta0| / (sqrt6 zeta kappa) at the
        # orbit angle; the companion angle theta0_bar is the orbit angle
        # of (-p, -p') and carries that orbit's constants.
        from sympl_moduli import asymptotic_constants
        by_angle = {t.angle: t for t in profile_log_terms(p, pp)}
        ends = [solve_theta0(p, pp)]
        if 2 * pp * pp > 3 * p * p:
            ends.append(solve_theta0_bar(p, pp))
            assert ends[1] == solve_theta0(-p, -pp)
        for th in ends:
            data = asymptotic_constants(th)
            want = 1.0 / (SQRT6_ * data.zeta * data.kappa)
            assert by_angle[th].residue == pytest.approx(want, rel=1e-12)
            assert by_angle[th].pole == pytest.approx(math.cos(th), abs=1e-15)

    @pytest.mark.parametrize("p,pp", CLOSED_FORM_PAIRS)
    def test_residues_sum_to_leading_ratio(self, p, pp):
        terms = profile_log_terms(p, pp)
        # ds/dx ~ (sum of residues) / x at infinity: the ratio of the
        # leading coefficients of N and D.
        total = sum(t.residue for t in terms)
        assert total == pytest.approx(SQRT6_ / 2 if pp == 0 else SQRT6_ / 3,
                                      rel=1e-13)
        assert len(terms) == (3 if pp == 0 else 4)

    def test_trace_rows_match_s_of_theta(self):
        tr = integrate_profile(2, 5, 1, s_anchor=0.4, n_samples=101)
        anchor = tr.spec.anchor_angle()
        for row in tr.samples[::10]:
            assert row.s == pytest.approx(
                s_of_theta(2, 5, anchor, 0.4, row.theta), rel=1e-13, abs=1e-13)


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
        with pytest.raises(WrongExample):
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
        with pytest.raises(DomainError):
            eval_invariant_curve(spec, 0.0, -1.0)

    def test_pole_cylinder_height(self):
        spec = CurveSpec.example1(ReebOrbit.pole_plus())
        pt = eval_invariant_curve(spec, 0.0, 2.0)
        assert pt.s == pytest.approx(0.0, abs=1e-15)
        assert pt.theta == 0.0
        pt = eval_invariant_curve(spec, 0.0, 2.0 * math.exp(-SQRT6_))
        assert pt.s == pytest.approx(1.0, abs=1e-12)

    def test_plane_origin(self):
        pt = eval_invariant_curve(CurveSpec.example2(0.0, 2.0, 1), 0.7, 0.0)
        assert pt.s == pytest.approx(0.0, abs=1e-15)
        assert pt.theta == 0.0
        pt = eval_invariant_curve(CurveSpec.example2(0.0, 2.0, -1), 0.7, 0.0)
        assert pt.theta == math.pi

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
        # u = 1e308 is still inside: f = -u at s = -289.25.
        pt = eval_invariant_curve(CurveSpec.example1(ReebOrbit.pole_plus()),
                                  0.0, 1e308)
        assert coord_functions(pt)[0] == pytest.approx(-1e308)

    def test_profile_point_consistency(self):
        spec = CurveSpec.profile(1, 2, 1)
        for u in (-1.0, 0.1, 1.0):
            pt = eval_invariant_curve(spec, 0.0, u)
            f, h, _ = coord_functions(pt)
            assert f == pytest.approx(u, rel=1e-9, abs=1e-11)
        with pytest.raises(DomainError):
            eval_invariant_curve(spec, 0.0, 1e12)

    def test_profile_point_at_default_clip(self):
        # At the default clip of 1e-9, e^{-sqrt6 s} overflows at the
        # bracket end near theta0_bar; the bisection must still find u.
        tr = integrate_profile(4, 5, 1, n_samples=200, clip=1e-4)
        row = tr.samples[100]
        pt = eval_invariant_curve(CurveSpec.profile(4, 5, 1), 0.0, row.f)
        assert pt.theta == pytest.approx(row.theta, abs=1e-11)
        assert pt.s == pytest.approx(row.s, abs=1e-10)

    def test_clip_swallowing_the_range(self):
        with pytest.raises(BranchError):
            eval_invariant_curve(CurveSpec.profile(1, 2, 1), 0.0, 0.1, clip=2.0)
        with pytest.raises(BranchError):
            integrate_profile(1, 2, 1, clip=-1e-3)

    def test_overflowing_trace_is_a_domain_error(self):
        with pytest.raises(DomainError):
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
        # u is 0 at every angle of the clipped range, so the bisection
        # cannot see where u = 0 (theta = pi - THETA_C); it must not
        # return the angle it stops at.
        spec = CurveSpec.profile(1, 2, 1, s_anchor=400.0)
        with pytest.raises(DomainError, match="underflow"):
            eval_invariant_curve(spec, 0.0, 0.0, clip=1e-4)

    def test_profile_example_ids(self):
        assert CurveSpec.profile(1, 2, 0).example_id == 5
        assert CurveSpec.profile(1, 2, 1).example_id == 6
        assert CurveSpec.profile(1, 2, 2).example_id == 7
        assert CurveSpec.profile(1, -2, 0).example_id == 7
        assert CurveSpec.profile(1, 1, 0).example_id == 5
        assert CurveSpec.profile(1, 1, 1).example_id == 5
