import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superq import entanglement
from superq.cli import sweep_thetas
from superq.entanglement import (
    DensityMatrix,
    collapse_probabilities,
    concurrence_gram,
    concurrence_n_state,
    concurrence_superqubit,
    entanglement_entropy_bits,
    entropy_from_z,
    reduced_boson_density,
)
from superq.errors import NormalizationError
from superq.moebius import ExtendedComplex, _grid_phases, zeta_to_bloch
from superq.superstate import (
    CoherentParams,
    SuperQubitParams,
    SuperVector,
    _super_qubit_grid,
    _undisplaced,
    flip_state,
    n_superparticle_state,
    super_coherent_state,
    super_qubit_state,
)

from conftest import basis_ket


def binary_entropy(p):
    """Independent oracle: -p log2 p - (1-p) log2 (1-p)."""
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def random_state(rng, dim):
    raw = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
    raw /= np.linalg.norm(raw)
    return SuperVector(raw.reshape(2, -1))


def dense_rho(rho):
    """The dim x dim matrix F F^dag of a DensityMatrix's factor, formed here only."""
    return rho.factor @ rho.factor.conj().T


class TestReducedDensity:
    def test_product_state_is_rank_one_projector(self):
        state = SuperVector([basis_ket(0, 4), np.zeros(4)])
        rho = reduced_boson_density(state)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(dense_rho(rho), expected, atol=1e-15)
        np.testing.assert_allclose(rho.eigenvalues(), [1.0, 0.0], atol=1e-15)

    def test_maximally_entangled_state_is_balanced(self):
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        state = SuperVector(
            [inv_sqrt2 * basis_ket(1, 4), inv_sqrt2 * basis_ket(0, 4)]
        )
        rho = reduced_boson_density(state)
        np.testing.assert_allclose(np.diag(dense_rho(rho)), [0.5, 0.5, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(rho.eigenvalues(), [0.5, 0.5], atol=1e-15)

    def test_unit_trace_and_hermitian_for_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            state = random_state(rng, 12)
            rho = reduced_boson_density(state)
            assert rho.factor.shape == (12, 2) and not rho.factor.flags.writeable
            assert (rho.factor == state.coeffs.T).all()
            mat = dense_rho(rho)
            assert abs(np.trace(mat) - 1.0) <= 1e-12
            assert np.abs(mat - mat.conj().T).max() <= 1e-14

    def test_positive_semidefinite_rank_two(self):
        rng = np.random.default_rng(29)
        rho = reduced_boson_density(random_state(rng, 10))
        eigenvalues = rho.eigenvalues()
        assert eigenvalues.shape == (2,) and eigenvalues[0] >= eigenvalues[1] >= -1e-12
        # the trace left outside the two eigenvalues bounds every other eigenvalue of rho >= 0
        assert abs(np.vdot(rho.factor, rho.factor).real - eigenvalues.sum()) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 9, 64, 512])
    def test_spectrum_and_purity_equal_a_dense_reference(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(6):
            rho = reduced_boson_density(random_state(rng, dim))
            dense = np.linalg.eigvalsh(dense_rho(rho))[::-1]
            np.testing.assert_allclose(rho.eigenvalues(), dense[:2], rtol=0.0, atol=1e-15)
            assert np.abs(dense[2:]).max(initial=0.0) <= 1e-15
            assert abs(rho.purity() - np.sum(dense * dense)) <= 1e-15

    def test_unnormalized_input_rejected(self):
        state = SuperVector([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NormalizationError):
            reduced_boson_density(state)

    def test_non_finite_matrix_rejected(self):
        # ||F||^2 is NaN, and NaN compares false with 1e-12
        with pytest.raises(NormalizationError, match="norm\\^2 = nan"):
            DensityMatrix(np.full((2, 2), math.nan))

    def test_factor_of_two_columns_only(self):
        with pytest.raises(ValueError, match=r"\(dim, 2\)"):
            DensityMatrix(np.eye(3) / math.sqrt(3.0))


class TestTwoRoutes:
    """The Gram route and the reduced-density route share no code."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the other route was called")

    def state(self):
        return random_state(np.random.default_rng(41), 9)

    def test_density_route_runs_without_the_gram_kernel(self, monkeypatch):
        state = self.state()
        for name in ("_gram_entries", "_concurrence", "_entropies"):
            monkeypatch.setattr(entanglement, name, self.refuse)
        with pytest.raises(AssertionError, match="other route"):
            concurrence_gram(state)
        rho = reduced_boson_density(state)
        assert 0.5 <= rho.purity() <= 1.0
        assert np.sort(rho.eigenvalues())[-2:].sum() == pytest.approx(1.0, abs=1e-12)

    def test_gram_route_runs_without_the_density_matrix(self, monkeypatch):
        state = self.state()
        monkeypatch.setattr(entanglement, "DensityMatrix", self.refuse)
        with pytest.raises(AssertionError, match="other route"):
            reduced_boson_density(state)
        assert 0.0 <= concurrence_gram(state) <= 1.0
        assert 0.0 <= entanglement_entropy_bits(state) <= 1.0


class TestConcurrenceGram:
    def test_maximally_entangled_one_state(self):
        state = n_superparticle_state(1, ExtendedComplex.from_value(1.0), 8)
        assert concurrence_gram(state) == pytest.approx(1.0, abs=1e-14)

    def test_zeta_two_gives_four_fifths(self):
        state = n_superparticle_state(1, ExtendedComplex.from_value(2.0), 8)
        assert concurrence_gram(state) == pytest.approx(0.8, abs=1e-14)

    def test_product_state_is_separable(self):
        lam = 0.5 * math.sqrt(2.0)
        psi0 = lam * basis_ket(2, 6)
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

    @pytest.mark.parametrize(
        "bad",
        [
            math.nan,
            complex(0.0, math.nan),
            # numpy warns on inf * 0 in the Gram entries before the state is refused
            pytest.param(
                math.inf,
                marks=pytest.mark.filterwarnings(
                    "ignore:invalid value encountered in vecdot:RuntimeWarning"
                ),
            ),
        ],
    )
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
        with pytest.raises(ValueError, match=r"^theta must lie in \[0, pi\], got -1.0$"):
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
        with pytest.raises(ValueError, match=r"^z must lie in \[-1, 1\], got 1.0000001$"):
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
        state = SuperVector([basis_ket(0, 4), np.zeros(4)])
        assert entanglement_entropy_bits(state) == 0.0


def exact_entropy(coeffs) -> float:
    """The spectral entropy of one (2, L) state, computed from its own float coefficients.

    The Gram entries and det G are exact Fractions; the square root and the
    logarithms run in decimal at 60 digits.  No library spectrum is read.
    """
    (re0, im0), (re1, im1) = (
        [list(map(Fraction, part.tolist())) for part in (row.real, row.imag)] for row in coeffs
    )
    g00 = sum(a * a + b * b for a, b in zip(re0, im0))
    g11 = sum(a * a + b * b for a, b in zip(re1, im1))
    g01_re = sum(a0 * a1 + b0 * b1 for a0, b0, a1, b1 in zip(re0, im0, re1, im1))
    g01_im = sum(a0 * b1 - b0 * a1 for a0, b0, a1, b1 in zip(re0, im0, re1, im1))
    mod_sq = g01_re * g01_re + g01_im * g01_im
    with decimal.localcontext() as context:
        context.prec = 60

        def dec(value):
            return decimal.Decimal(value.numerator) / value.denominator

        high = (dec(g00 + g11) + dec((g00 - g11) ** 2 + 4 * mod_sq).sqrt()) / 2
        low = dec(g00 * g11 - mod_sq) / high
        total = sum(lam * lam.ln() for lam in (low, high) if lam > 0)
        return float(-total / decimal.Decimal(2).ln())


def worst_entropy_error(coeffs) -> float:
    """The largest |_entropies - exact_entropy| over a (K, 2, L) stack."""
    got = entanglement._entropies(*entanglement._gram_entries(coeffs))
    return max(abs(value - exact_entropy(state)) for value, state in zip(got.tolist(), coeffs))


def normalized(coeffs):
    return coeffs / np.sqrt(np.vecdot(coeffs, coeffs).real.sum(axis=-1))[:, None, None]


class TestSpectralEntropyAccuracy:
    """The closed 2x2 spectrum against the exact entropy of each state's coefficients."""

    TOL = 1e-15

    @pytest.mark.parametrize(
        "zeta, grid",
        [(ExtendedComplex.from_value(0.5 - 1.3j), (49, 30)), (ExtendedComplex.infinity(), (25, 25))],
        ids=["generic_49x30", "pole_25x25"],
    )
    def test_sweep_grids(self, zeta, grid):
        # the sweep's stacks, two levels padded with zeros to 8
        t_count, p_count = grid
        thetas = sweep_thetas(t_count)
        phis = [2.0 * math.pi * j / p_count for j in range(p_count)]
        coeffs = _undisplaced(_super_qubit_grid(thetas, *_grid_phases(thetas, phis), [zeta]), 8)
        assert worst_entropy_error(coeffs) <= self.TOL

    def test_random_states(self):
        rng = np.random.default_rng(3)
        coeffs = normalized(rng.standard_normal((300, 2, 16)) + 1j * rng.standard_normal((300, 2, 16)))
        assert worst_entropy_error(coeffs) <= self.TOL

    def test_near_parallel_blocks(self):
        # second block = c * first + eps * random: lam- ~ eps^2, where
        # g00 + g11 - sqrt(...) would cancel
        rng = np.random.default_rng(4)
        first = rng.standard_normal((280, 16)) + 1j * rng.standard_normal((280, 16))
        noise = rng.standard_normal((280, 16)) + 1j * rng.standard_normal((280, 16))
        scale = rng.standard_normal((280, 1)) + 1j * rng.standard_normal((280, 1))
        eps = np.repeat(10.0 ** -np.arange(1, 8), 40)[:, None]
        coeffs = normalized(np.stack([first, scale * first + eps * noise], axis=1))
        assert worst_entropy_error(coeffs) <= self.TOL

    def test_pure_states(self):
        # spectra exactly (0, 1): the sum is 1 log2 1 alone, and reads +0.0
        pure = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1j]]])
        got = entanglement._entropies(*entanglement._gram_entries(pure))
        assert list(map(float.hex, got.tolist())) == ["0x0.0p+0"] * 2


def per_value_entropies(g00, g11, g01, det):
    """The entropy expression in Python floats, value by value: the reference for the distinct-eigenvalue pass."""
    gap, re, im = g00 - g11, g01.real, g01.imag
    high = 0.5 * (g00 + g11 + np.sqrt(gap * gap + 4.0 * (re * re + im * im)))
    return np.array([
        -((lo * math.log2(lo) if lo > 0.0 else 0.0) + hi * math.log2(hi)) + 0.0
        for lo, hi in zip(np.ravel(det / high).tolist(), np.ravel(high).tolist())
    ])


def sweep_stack(zeta, t_count, p_count):
    thetas = sweep_thetas(t_count)
    phis = [2.0 * math.pi * j / p_count for j in range(p_count)]
    return _super_qubit_grid(thetas, *_grid_phases(thetas, phis), [zeta])


class TestEntropyRoutes:
    """_entropies bit for bit against the per-value expression, for one state and for stacks."""

    @staticmethod
    def assert_per_value(coeffs):
        entries = entanglement._gram_entries(coeffs)
        assert entanglement._entropies(*entries).tobytes() == per_value_entropies(*entries).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        count=st.integers(1, 30),
        dim=st.integers(2, 10),
        pure=st.floats(0.0, 1.0),
        repeats=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_stacks(self, count, dim, pure, repeats, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((count, 2, dim)) + 1j * rng.standard_normal((count, 2, dim))
        # a share of product states (one block zero: lam- = 0) and of parallel blocks
        product = rng.random(count) < pure
        coeffs[product, 1] = 0.0
        parallel = rng.random(count) < 0.2
        coeffs[parallel, 1] = (0.5 - 2j) * coeffs[parallel, 0]
        # and states repeated down the stack, as a sweep grid repeats its spectra
        self.assert_per_value(normalized(np.tile(coeffs, (repeats, 1, 1))))

    @settings(max_examples=40, deadline=None)
    @given(
        zeta=st.one_of(
            st.sampled_from([ExtendedComplex.infinity(), ExtendedComplex.from_value(0.0)]),
            st.builds(lambda re, im: ExtendedComplex.from_value(complex(re, im)), st.floats(-4, 4), st.floats(-4, 4)),
        ),
        grid=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    )
    def test_sweep_grids(self, zeta, grid):
        self.assert_per_value(sweep_stack(zeta, *grid))

    def test_pole_grid_and_pure_states_read_plus_zero(self):
        # no entropy of the zeta = infinity grid is -0.0, and pure states read +0.0 alone and stacked
        grid = sweep_stack(ExtendedComplex.infinity(), 25, 25)
        self.assert_per_value(grid)
        entropies = entanglement._entropies(*entanglement._gram_entries(grid))
        assert not (np.signbit(entropies) & (entropies == 0.0)).any()
        pure = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1j]]])
        for stack in (pure, pure[:1]):
            got = entanglement._entropies(*entanglement._gram_entries(stack))
            assert list(map(float.hex, got.tolist())) == ["0x0.0p+0"] * len(stack)


class TestCollapseProbabilities:
    def test_equator(self):
        assert collapse_probabilities(0.0) == (0.5, 0.5)

    def test_north_pole(self):
        assert collapse_probabilities(1.0) == (1.0, 0.0)

    def test_half_height_matches_overlap_oracle(self):
        # cos(theta1) = 0.5 corresponds to zeta = tan(pi/6)
        zeta = ExtendedComplex.from_value(math.tan(math.pi / 6))
        state = n_superparticle_state(1, zeta, 8)
        p0 = abs(np.vdot([basis_ket(1, 8), np.zeros(8)], state.coeffs)) ** 2
        p1 = abs(np.vdot([np.zeros(8), basis_ket(0, 8)], state.coeffs)) ** 2
        z = math.cos(zeta_to_bloch(zeta).theta)
        closed = collapse_probabilities(z)
        assert closed[0] == pytest.approx(0.75, abs=1e-12)
        assert p0 == pytest.approx(closed[0], abs=1e-12)
        assert p1 == pytest.approx(closed[1], abs=1e-12)

    def test_domain_enforced(self):
        with pytest.raises(ValueError, match=r"^z must lie in \[-1, 1\], got -1.5$"):
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
    @staticmethod
    def drift(params, dim):
        displaced = concurrence_gram(super_coherent_state(params, dim))
        return abs(displaced - concurrence_gram(super_qubit_state(params.base, dim)))

    def test_zero_displacement_is_exact(self):
        params = CoherentParams(
            0.0, SuperQubitParams(1.0, 0.5, ExtendedComplex.from_value(1.0))
        )
        assert self.drift(params, 32) == 0.0

    def test_equatorial_reference(self):
        # quoted point: alpha = 1.5, theta = pi/2, phi = 0, zeta = 1
        params = CoherentParams(
            1.5, SuperQubitParams(math.pi / 2, 0.0, ExtendedComplex.from_value(1.0))
        )
        assert self.drift(params, 96) <= 1e-8

    def test_flip_leaves_concurrence_unchanged(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            state = random_state(rng, 10)
            assert abs(concurrence_gram(flip_state(state)) - concurrence_gram(state)) <= 1e-12
