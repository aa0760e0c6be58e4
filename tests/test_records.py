"""The contract of the package's immutable records (named tuples)."""

import math

import pytest

from sympl_moduli import (CurveSpec, EndClass, Label2, Label3,
                          ModelMapParams, Point4, ReebOrbit, enumerate_labels)
from sympl_moduli.errors import DomainError

L_21 = Label2.make((2, 1), (1, 2))


class TestRepr:
    def test_end_class(self):
        assert repr(EndClass(1, 2)) == "EndClass(m=1, m_prime=2)"

    def test_label2(self):
        assert repr(L_21) == ("Label2(p_pair=EndClass(m=2, m_prime=1), "
                              "q_pair=EndClass(m=1, m_prime=2))")


class TestHashAndOrder:
    def test_hash_is_that_of_the_field_tuple(self):
        assert hash(L_21) == hash((L_21.p_pair, L_21.q_pair))
        assert hash(L_21) == hash(((2, 1), (1, 2)))
        assert hash(EndClass(3, -4)) == hash((3, -4))

    def test_enumeration_is_sorted(self):
        for ends in (2, 3):
            labels = enumerate_labels(3, ends)
            assert sorted(labels) == labels

    def test_end_class_order(self):
        assert EndClass(-1, 5) < EndClass(1, -5) < EndClass(1, 2)

    def test_equal_to_plain_tuples(self):
        assert EndClass(1, 2) == (1, 2)
        assert L_21 == ((2, 1), (1, 2))
        m, mp = EndClass(3, 7)
        assert (m, mp) == (3, 7)


class TestImmutable:
    @pytest.mark.parametrize("record,field", [
        (EndClass(1, 2), "m"),
        (L_21, "p_pair"),
        (Label3.make([(1, -1), (1, 4), (-2, -3)]), "pairs"),
        (Point4(0.0, 1.0, 0.5, 2.0), "t"),
        (ModelMapParams(L_21), "r"),
        (ReebOrbit.generic(1, 2), "theta0"),
        (CurveSpec.profile(1, 2, 0), "s_anchor"),
    ], ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
    def test_assignment_raises(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


class TestValidation:
    def test_zero_end_class(self):
        with pytest.raises(DomainError, match=r"\(0, 0\) is not an end class"):
            EndClass(0, 0)

    @pytest.mark.parametrize("theta", [-1e-12, math.pi + 1e-12, math.nan])
    def test_point_theta_outside_closed_range(self, theta):
        with pytest.raises(ValueError, match="outside"):
            Point4(0.0, 0.0, theta, 0.0)

    @pytest.mark.parametrize("field", ["t", "phi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_point_angle_not_finite(self, field, value):
        # fmod raised a bare 'math domain error' on inf and kept a nan.
        coords = {"s": 0.0, "t": 0.0, "theta": 1.0, "phi": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} = {value} is not"):
            Point4(**coords)

    def test_point_angles_reduced(self):
        pt = Point4(s=1.5, t=-0.5, theta=math.pi, phi=7.0)
        assert pt == (1.5, 2 * math.pi - 0.5, math.pi, 7.0 - 2 * math.pi)
        assert Point4(0.0, 2 * math.pi, 0.0, -2 * math.pi).t == 0.0

    def test_model_map_scale(self):
        with pytest.raises(ValueError, match="scale"):
            ModelMapParams(L_21, r=0.5)

    def test_model_map_twist(self):
        with pytest.raises(ValueError, match="a_prime"):
            ModelMapParams(L_21, a_prime=2.0)

    def test_model_map_defaults(self):
        assert ModelMapParams(label=L_21) == (L_21, 10.0, 1.0, 1.0)
