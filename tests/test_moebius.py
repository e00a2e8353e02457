import math

import pytest
from hypothesis import given, strategies as st

from superq import moebius
from superq.moebius import BlochPoint, CartesianBloch, ExtendedComplex

from conftest import bloch_to_zeta


class TestExtendedComplex:
    def test_canonical_form(self):
        z = ExtendedComplex(2.0 + 1.0j, -3.0j)
        assert abs(z.u) ** 2 + abs(z.v) ** 2 == pytest.approx(1.0, abs=1e-15)
        assert z.v.imag == 0.0
        assert z.v.real >= 0.0

    def test_infinity_is_canonical(self):
        inf = ExtendedComplex.infinity()
        assert inf.is_infinite
        assert inf.u == 1.0
        assert inf.v == 0.0

    def test_from_value_round_trip(self):
        for zeta in (0.5, -2.0 + 1.0j, 1e-8j, 3e7):
            z = ExtendedComplex.from_value(zeta)
            assert abs(z.u / z.v - zeta) <= 1e-14 * abs(zeta)

    @given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False))
    def test_round_trip_property(self, zeta):
        z = ExtendedComplex.from_value(zeta)
        assert abs(z.u / z.v - zeta) <= 1e-13 * abs(zeta)

    def test_canonicalization_idempotent(self):
        z = ExtendedComplex(0.3 - 0.7j, 1.1 + 0.2j)
        again = ExtendedComplex(z.u, z.v)
        assert abs(again.u - z.u) <= 2e-16
        assert abs(again.v - z.v) <= 2e-16

    @pytest.mark.parametrize(
        "u,v,canonical_u,canonical_v",
        [
            (1.7e308, 1.7e308, 1 / math.sqrt(2.0), 1 / math.sqrt(2.0)),
            (1e308, -1e308j, 1j / math.sqrt(2.0), 1 / math.sqrt(2.0)),
            (-1.7e308j, 0.0, 1.0, 0.0),
        ],
    )
    def test_huge_coordinates_normalize(self, u, v, canonical_u, canonical_v):
        # |u| alone, or the norm of (|u|, |v|), can exceed the largest float here
        z = ExtendedComplex(u, v)
        assert abs(z.u - canonical_u) <= 1e-15
        assert abs(z.v - canonical_v) <= 1e-15
        assert z.v.imag == 0.0 and z.v.real >= 0.0

    def test_huge_value_lies_next_to_the_pole(self):
        z = ExtendedComplex.from_value(1.7e308 + 1.7e308j)
        assert not z.is_infinite
        assert z.u == pytest.approx((1 + 1j) / math.sqrt(2.0), abs=1e-15)
        assert 0.0 < z.v.real < 1e-300

    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            ExtendedComplex(0.0, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ExtendedComplex.from_value(complex("nan"))

    def test_inf_value_maps_to_pole(self):
        assert ExtendedComplex.from_value(complex("inf")).is_infinite



class TestBlochPoint:
    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            BlochPoint(-0.1, 0.0)
        with pytest.raises(ValueError):
            BlochPoint(3.2, 0.0)

    def test_phi_reduced_mod_two_pi(self):
        point = BlochPoint(1.0, 7.0)
        assert 0.0 <= point.phi < 2.0 * math.pi
        assert point.phi == pytest.approx(7.0 - 2.0 * math.pi)

    @pytest.mark.parametrize("phi", [-1e-300, -3.350949159174982e-275, -1e-17, -2.0 * math.pi - 1e-17])
    def test_phi_whose_remainder_rounds_to_two_pi_is_zero(self, phi):
        # phi % (2 pi) rounds to 2 pi itself; the canonical phi lies in [0, 2 pi) and
        # reduces to itself, so a second BlochPoint of it keeps it
        point = BlochPoint(1.0, phi)
        assert point.phi == 0.0
        assert BlochPoint(1.0, point.phi).phi == 0.0

    @pytest.mark.parametrize(
        "theta,phi",
        [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf), (0.0, -math.inf)],
    )
    def test_non_finite_angles_rejected(self, theta, phi):
        with pytest.raises(ValueError, match="finite|lie in"):
            BlochPoint(theta, phi)

    def test_phi_zero_at_poles(self):
        assert BlochPoint(0.0, 1.5).phi == 0.0
        assert BlochPoint(math.pi, 1.5).phi == 0.0


class TestProjection:
    def test_origin_maps_to_north_pole(self):
        point = moebius.zeta_to_bloch(ExtendedComplex.from_value(0.0))
        assert (point.theta, point.phi) == (0.0, 0.0)

    def test_pole_maps_to_south_pole(self):
        point = moebius.zeta_to_bloch(ExtendedComplex.infinity())
        assert (point.theta, point.phi) == (math.pi, 0.0)

    def test_unit_real_maps_to_equator(self):
        point = moebius.zeta_to_bloch(ExtendedComplex.from_value(1.0))
        assert point.theta == pytest.approx(math.pi / 2, abs=1e-15)
        assert point.phi == 0.0

    def test_unit_imaginary_phase(self):
        point = moebius.zeta_to_bloch(ExtendedComplex.from_value(1.0j))
        assert point.phi == pytest.approx(math.pi / 2, abs=1e-15)

    def test_minus_one_maps_to_equator_pi(self):
        point = moebius.zeta_to_bloch(ExtendedComplex.from_value(-1.0))
        assert point.theta == pytest.approx(math.pi / 2, abs=1e-15)
        assert point.phi == pytest.approx(math.pi, abs=1e-15)

    def test_round_trip_grid(self):
        worst = 0.0
        for i in range(10):
            for j in range(10):
                theta = math.pi * i / 9
                phi = 2.0 * math.pi * j / 10
                point = BlochPoint(theta, phi)
                back = moebius.zeta_to_bloch(bloch_to_zeta(point))
                worst = max(worst, abs(back.theta - point.theta), abs(back.phi - point.phi))
        assert worst <= 1e-12

    @given(
        st.floats(min_value=0.01, max_value=math.pi - 0.01),
        st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9),
    )
    def test_round_trip_property(self, theta, phi):
        point = BlochPoint(theta, phi)
        back = moebius.zeta_to_bloch(bloch_to_zeta(point))
        assert abs(back.theta - point.theta) <= 1e-12
        assert abs(back.phi - point.phi) <= 1e-9 * (1.0 + point.phi)

    def test_no_nan_at_poles(self):
        for zeta in (ExtendedComplex.from_value(0.0), ExtendedComplex.infinity()):
            point = moebius.zeta_to_bloch(zeta)
            cart = moebius.bloch_cartesian(point)
            assert math.isfinite(cart.x) and math.isfinite(cart.y) and math.isfinite(cart.z)


class TestCartesian:
    def test_north_pole(self):
        cart = moebius.bloch_cartesian(BlochPoint(0.0, 0.0))
        assert (cart.x, cart.y, cart.z) == (0.0, 0.0, 1.0)

    def test_equator_diagonal(self):
        cart = moebius.bloch_cartesian(BlochPoint(math.pi / 2, math.pi / 4))
        assert cart.x == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert cart.y == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert cart.z == pytest.approx(0.0, abs=1e-15)

    def test_half_angle_height_identity(self):
        for i in range(50):
            theta = math.pi * i / 49
            cart = moebius.bloch_cartesian(BlochPoint(theta, 0.9))
            assert abs(2.0 * math.sin(theta / 2) ** 2 - (1.0 - cart.z)) <= 1e-14

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            CartesianBloch(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("coords", [(math.nan, 0.0, 0.0), (0.0, 0.0, math.inf)])
    def test_non_finite_vector_rejected(self, coords):
        # |r|^2 - 1 is NaN or inf here; a NaN compares false with the tolerance
        with pytest.raises(ValueError, match="must be a unit vector"):
            CartesianBloch(*coords)

    def test_grid_rejects_a_non_finite_point(self):
        thetas = [0.3, 2.0]
        cos_phi, sin_phi = moebius._grid_phases(thetas, [0.0, 1.0])
        cos_phi[-1, -1] = math.nan
        with pytest.raises(ValueError, match="must be a unit vector"):
            moebius._cartesian_grid(thetas, cos_phi, sin_phi)


class TestConcurrenceCircle:
    def test_equator_is_maximally_entangled(self):
        assert moebius.concurrence_circle(math.pi / 2) == (1.0, math.cos(math.pi / 2))

    def test_north_pole_is_separable(self):
        assert moebius.concurrence_circle(0.0) == (0.0, 1.0)

    def test_thirty_degrees(self):
        c, z = moebius.concurrence_circle(math.pi / 6)
        assert c == pytest.approx(0.5, abs=1e-15)
        assert z == pytest.approx(math.sqrt(3) / 2, abs=1e-15)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            moebius.concurrence_circle(-0.5)

    def test_height_equals_sqrt_complement_on_upper_half(self):
        for i in range(8):
            theta1 = 0.5 * math.pi * i / 7
            c, z = moebius.concurrence_circle(theta1)
            assert abs(z - math.sqrt(1.0 - c * c)) <= 1e-12

    def test_homogeneous_concurrence_matches_projection(self):
        values = [0.0, 0.3, 1.0, 2.5, 1.0j, -0.7 + 0.2j]
        points = [ExtendedComplex.from_value(v) for v in values]
        points.append(ExtendedComplex.infinity())
        for zeta in points:
            theta1 = moebius.zeta_to_bloch(zeta).theta
            homogeneous = 2.0 * abs(zeta.u) * zeta.v.real
            assert abs(homogeneous - math.sin(theta1)) <= 1e-12
