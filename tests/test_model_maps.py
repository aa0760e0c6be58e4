import cmath
import math
import random

import pytest

from sympl_moduli import (Label2, ModelMapParams, double_points_bruteforce,
                          double_points_formula, enumerate_labels,
                          immersion_residual, phi_double_points, phi_eval)
from sympl_moduli.errors import PunctureError
from sympl_moduli.model_maps import double_points_json, residual_tolerance

L_UNIT = Label2.make((1, 0), (0, 1))
L_SYM = Label2.make((2, 1), (1, 2))
L_41 = Label2.make((4, 1), (1, 1))
L_5 = Label2.make((1, -1), (1, 4))


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
        with pytest.raises(PunctureError):
            phi_eval(params, 0j)
        with pytest.raises(PunctureError):
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


class TestImmersion:
    def test_unit_label_first_component(self):
        params = ModelMapParams(label=L_UNIT)
        rnd = random.Random(4)
        for _ in range(100):
            z = random_z(rnd)
            d1, _ = immersion_residual(params, z)
            assert d1 == 1.0 / z
            assert d1 != 0

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


class TestTolerance:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SYMPL_MODULI_TOL", "1e-3")
        assert residual_tolerance() == 1e-3
        monkeypatch.delenv("SYMPL_MODULI_TOL")
        assert residual_tolerance() == 1e-9

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("SYMPL_MODULI_TOL", "-1")
        with pytest.raises(ValueError):
            residual_tolerance()


def test_json_shape():
    pts = phi_double_points(ModelMapParams(label=L_41))
    js = double_points_json(pts)
    assert js[0].keys() == {"a", "b", "z", "w", "residual"}
    assert js[0]["z"] == [pts[0].z.real, pts[0].z.imag]
