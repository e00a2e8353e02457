import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from superq import entanglement, fock
from superq.entanglement import (
    collapse_probabilities,
    concurrence_gram,
    concurrence_n_state,
    concurrence_superqubit,
    displacement_invariance_check,
    entanglement_entropy_bits,
    entanglement_report,
    entropy_from_z,
    reduced_boson_density,
)
from superq.errors import NormalizationError, NumericalConsistencyError
from superq.moebius import ExtendedComplex, zeta_to_bloch
from superq.superstate import (
    CoherentParams,
    SuperQubitParams,
    SuperVector,
    flip_state,
    n_superparticle_state,
    pole_probabilities,
    super_coherent_state,
    super_qubit_state,
)


def binary_entropy(p):
    """Independent oracle: -p log2 p - (1-p) log2 (1-p)."""
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def random_state(rng, dim):
    raw = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
    raw /= np.linalg.norm(raw)
    return SuperVector(raw.reshape(2, -1))


class TestReducedDensity:
    def test_product_state_is_rank_one_projector(self):
        state = SuperVector([fock.basis_ket(0, 4).coeffs, np.zeros(4)])
        rho = reduced_boson_density(state)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.mat, expected, atol=1e-15)

    def test_maximally_entangled_state_is_balanced(self):
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        state = SuperVector(
            [inv_sqrt2 * fock.basis_ket(1, 4).coeffs, inv_sqrt2 * fock.basis_ket(0, 4).coeffs]
        )
        rho = reduced_boson_density(state)
        np.testing.assert_allclose(np.diag(rho.mat), [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_unit_trace_and_hermitian_for_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            rho = reduced_boson_density(random_state(rng, 12))
            assert abs(np.trace(rho.mat) - 1.0) <= 1e-12
            assert np.abs(rho.mat - rho.mat.conj().T).max() <= 1e-14

    def test_positive_semidefinite_rank_two(self):
        rng = np.random.default_rng(29)
        rho = reduced_boson_density(random_state(rng, 10))
        eigenvalues = np.sort(rho.eigenvalues())
        assert eigenvalues[0] >= -1e-12
        assert np.abs(eigenvalues[:-2]).max() <= 1e-10

    def test_unnormalized_input_rejected(self):
        state = SuperVector([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NormalizationError):
            reduced_boson_density(state)


class TestConcurrenceGram:
    def test_maximally_entangled_one_state(self):
        state = n_superparticle_state(1, ExtendedComplex.from_value(1.0), 8)
        assert concurrence_gram(state) == pytest.approx(1.0, abs=1e-14)

    def test_zeta_two_gives_four_fifths(self):
        state = n_superparticle_state(1, ExtendedComplex.from_value(2.0), 8)
        assert concurrence_gram(state) == pytest.approx(0.8, abs=1e-14)

    def test_product_state_is_separable(self):
        lam = 0.5 * math.sqrt(2.0)
        psi0 = lam * fock.basis_ket(2, 6).coeffs
        state = SuperVector([psi0, psi0])
        assert concurrence_gram(state) == 0.0

    def test_clamps_tiny_negative_determinant(self):
        # blocks proportional within rounding: determinant may land at -1e-17
        coeffs = np.array([0.6, 0.8, 0.0], dtype=complex)
        state = SuperVector(
            [coeffs * (1.0 / math.sqrt(2.0)), coeffs * (1.0 / math.sqrt(2.0)) * np.exp(0.3j)]
        )
        assert concurrence_gram(state) == 0.0

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            concurrence_gram(SuperVector([[2.0], [0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf])
    @pytest.mark.parametrize("route", [concurrence_gram, entanglement_entropy_bits])
    def test_non_finite_norm_rejected(self, route, bad):
        # NaN compares false with everything, so a check written as
        # `norm_sq off by more than tol` would let a NaN state through
        with pytest.raises(NormalizationError, match="norm"):
            route(SuperVector([[bad, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("alpha", [0.0, 1.3 - 0.4j])
    def test_pole_product_states_read_zero(self, alpha):
        # at zeta = infinity both blocks are multiples of one boson state;
        # g00 g11 - |g01|^2 rounds to ~1e-16 there and its sqrt to ~1e-8
        pole = ExtendedComplex.infinity()
        for theta in np.linspace(0.0, math.pi, 41):
            for phi in (0.0, 0.4, 2.5, 5.9):
                params = CoherentParams(alpha, SuperQubitParams(theta, phi, pole))
                state = super_coherent_state(params, 64)
                assert concurrence_gram(state) <= 1e-15


class TestClosedConcurrences:
    def test_poles_are_separable(self):
        assert concurrence_n_state(ExtendedComplex.from_value(0.0)) == 0.0
        assert concurrence_n_state(ExtendedComplex.infinity()) == 0.0

    @pytest.mark.parametrize("gamma", [0.0, 0.7, 2.0, 4.5])
    def test_unit_circle_maximally_entangled(self, gamma):
        zeta = ExtendedComplex.from_value(complex(math.cos(gamma), math.sin(gamma)))
        assert concurrence_n_state(zeta) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_gram_for_any_n(self, n):
        zeta = ExtendedComplex.from_value(1.5 - 0.5j)
        state = n_superparticle_state(n, zeta, 16)
        assert abs(concurrence_gram(state) - concurrence_n_state(zeta)) <= 1e-10

    def test_superqubit_south_pole_on_unit_circle(self):
        assert concurrence_superqubit(math.pi, ExtendedComplex.from_value(1.0j)) == (
            pytest.approx(1.0, abs=1e-15)
        )

    def test_superqubit_half_angle(self):
        zeta = ExtendedComplex.from_value(1.0)
        closed = concurrence_superqubit(math.pi / 2, zeta)
        assert closed == pytest.approx(0.5, abs=1e-15)
        state = super_qubit_state(SuperQubitParams(math.pi / 2, 0.0, zeta), 16)
        assert abs(concurrence_gram(state) - closed) <= 1e-10

    def test_superqubit_pole_zeta_separable(self):
        assert concurrence_superqubit(2.0, ExtendedComplex.infinity()) == 0.0

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            concurrence_superqubit(-1.0, ExtendedComplex.from_value(1.0))


class TestEntropy:
    def test_equator_is_one_bit(self):
        assert entropy_from_z(0.0) == 1.0

    def test_poles_are_pure(self):
        assert entropy_from_z(1.0) == 0.0
        assert entropy_from_z(-1.0) == 0.0

    def test_half_height(self):
        # binary entropy of p = 0.75
        assert entropy_from_z(0.5) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            entropy_from_z(1.0000001)

    @given(st.floats(min_value=-0.999999, max_value=0.999999))
    def test_equals_binary_entropy(self, z):
        # cancellation in 1 - z^2 costs both routes ~1e-10 near the poles
        assert entropy_from_z(z) == pytest.approx(binary_entropy(0.5 * (1.0 + z)), abs=1e-9)

    def test_spectral_entropy_matches_closed_form(self):
        for value in (0.2, 0.8, 1.0, 3.0, 0.4 - 1.1j):
            zeta = ExtendedComplex.from_value(value)
            state = n_superparticle_state(1, zeta, 16)
            c = concurrence_gram(state)
            closed = entropy_from_z(math.sqrt(1.0 - c * c))
            rho = reduced_boson_density(state)
            spectral = -sum(
                lam * math.log2(lam) for lam in rho.eigenvalues() if lam > 1e-15
            )
            assert abs(spectral - closed) <= 1e-9
            assert abs(entanglement_entropy_bits(state) - closed) <= 1e-9

    def test_pure_state_entropy_is_zero(self):
        state = SuperVector([fock.basis_ket(0, 4).coeffs, np.zeros(4)])
        assert entanglement_entropy_bits(state) == 0.0


class TestCollapseProbabilities:
    def test_equator(self):
        assert collapse_probabilities(0.0) == (0.5, 0.5)

    def test_north_pole(self):
        assert collapse_probabilities(1.0) == (1.0, 0.0)

    def test_half_height_matches_overlap_oracle(self):
        # cos(theta1) = 0.5 corresponds to zeta = tan(pi/6)
        zeta = ExtendedComplex.from_value(math.tan(math.pi / 6))
        state = n_superparticle_state(1, zeta, 8)
        p0 = abs(SuperVector([fock.basis_ket(1, 8).coeffs, np.zeros(8)]).inner(state)) ** 2
        p1 = abs(SuperVector([np.zeros(8), fock.basis_ket(0, 8).coeffs]).inner(state)) ** 2
        z = math.cos(zeta_to_bloch(zeta).theta)
        closed = collapse_probabilities(z)
        assert closed[0] == pytest.approx(0.75, abs=1e-12)
        assert p0 == pytest.approx(closed[0], abs=1e-12)
        assert p1 == pytest.approx(closed[1], abs=1e-12)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            collapse_probabilities(-1.5)


class TestGramPurityIdentity:
    def test_random_states(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            state = random_state(rng, 14)
            c = concurrence_gram(state)
            purity = reduced_boson_density(state).purity()
            assert abs(c * c - 2.0 * (1.0 - purity)) <= 1e-10

    def test_geometric_identity_on_label_sphere(self):
        for value in (0.1, 0.9, 1.0, 2.4, 0.5j):
            zeta = ExtendedComplex.from_value(value)
            theta1 = zeta_to_bloch(zeta).theta
            assert abs(concurrence_n_state(zeta) - math.sin(theta1)) <= 1e-12
            height = zeta.v.real**2 - abs(zeta.u) ** 2
            assert abs(height - math.cos(theta1)) <= 1e-12


class TestDisplacementInvariance:
    def test_zero_displacement_is_exact(self):
        params = CoherentParams(
            0.0, SuperQubitParams(1.0, 0.5, ExtendedComplex.from_value(1.0))
        )
        assert displacement_invariance_check(params, 32) == 0.0

    def test_equatorial_reference(self):
        # quoted point: alpha = 1.5, theta = pi/2, phi = 0, zeta = 1
        params = CoherentParams(
            1.5, SuperQubitParams(math.pi / 2, 0.0, ExtendedComplex.from_value(1.0))
        )
        assert displacement_invariance_check(params, 96) <= 1e-8

    def test_flip_leaves_concurrence_unchanged(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            state = random_state(rng, 10)
            assert abs(concurrence_gram(flip_state(state)) - concurrence_gram(state)) <= 1e-12


class TestEntanglementReport:
    def test_consistent_report(self):
        zeta = ExtendedComplex.from_value(1.0)
        theta = math.pi / 2
        state = super_qubit_state(SuperQubitParams(theta, 0.0, zeta), 16)
        p0, p1 = pole_probabilities(state, zeta)
        report = entanglement_report(state, concurrence_superqubit(theta, zeta), p0, p1)
        assert abs(report.concurrence_gram - report.concurrence_closed) <= 1e-10
        assert abs(report.p0 + report.p1 - 1.0) <= 1e-12
        assert 0.0 < report.purity <= 1.0
        assert abs(report.concurrence_gram**2 - 2.0 * (1.0 - report.purity)) <= 1e-10

    def test_inconsistent_probabilities_rejected(self):
        state = n_superparticle_state(1, ExtendedComplex.from_value(1.0), 8)
        with pytest.raises(NumericalConsistencyError):
            entanglement_report(state, 1.0, 0.7, 0.7)
