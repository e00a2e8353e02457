import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superq import fock, superstate
from superq.cli import sweep_thetas
from superq.entanglement import reduced_boson_density
from superq.errors import (
    InvalidDimensionError,
    SingularParameterError,
    TruncationError,
)
from superq.moebius import ExtendedComplex, _grid_phases
from superq.superstate import (
    BlockOperator,
    CoherentParams,
    SuperQubitParams,
    SuperVector,
    _displace_low_levels,
    _pole_probabilities,
    _super_qubit_grid,
    _undisplaced,
    commutator_suite,
    flip_operator,
    flip_state,
    n_superparticle_state,
    pole_probabilities,
    super_annihilation,
    super_annihilation_transposed,
    super_coherent_state,
    super_creation_gate,
    super_number_operator,
    super_qubit_state,
)

from conftest import basis_ket, block_operator, guarded_max_abs

ZETA_SAMPLES = [
    ExtendedComplex.from_value(0.4),
    ExtendedComplex.from_value(1.0),
    ExtendedComplex.from_value(2.0 + 1.0j),
    ExtendedComplex.from_value(-0.3 + 1.7j),
]


def random_state(rng, dim):
    raw = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
    raw /= np.linalg.norm(raw)
    return SuperVector(raw.reshape(2, -1))


class TestSuperVector:
    def test_block_dims_must_agree(self):
        with pytest.raises(InvalidDimensionError, match="must form a"):
            SuperVector([basis_ket(0, 3), basis_ket(0, 4)])

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (3, 4), (2, 0), (2, 2, 2), (0, 2), ()])
    def test_shape_must_be_two_by_dim(self, shape):
        with pytest.raises(InvalidDimensionError, match="must form a"):
            SuperVector(np.zeros(shape))

    def test_constructor_copies_and_freezes(self):
        coeffs = np.array([[0.6, 0.0], [0.0, 0.8j]])
        state = SuperVector(coeffs)
        coeffs[0, 0] = 9.0
        assert state.coeffs[0, 0] == 0.6 and coeffs.flags.writeable
        assert state.coeffs.dtype == np.complex128 and state.coeffs.shape == (2, 2)
        for view in (state.coeffs, state.coeffs[0], state.coeffs[1]):
            with pytest.raises(ValueError):
                view[0] = 1.0

    def test_fortran_ordered_input_is_stored_c_ordered(self):
        flat = np.arange(8.0) + 1j * np.arange(8.0)
        transposed = flat.reshape(4, 2).T
        assert not transposed.flags.c_contiguous
        state = SuperVector(transposed)
        assert state.coeffs.flags.c_contiguous
        np.testing.assert_array_equal(state.coeffs, transposed)
        # the ravelled reduction runs psi0 before psi1
        np.testing.assert_array_equal(
            state.coeffs.ravel(), np.concatenate([transposed[0], transposed[1]])
        )

    def test_block_norms_sq_sum_to_norm_sq(self):
        state = SuperVector([[0.6, 0.0], [0.0, 0.8j]])
        g00, g11 = state.block_norms_sq()
        assert (g00, g11) == (
            float(np.vdot(state.coeffs[0], state.coeffs[0]).real),
            float(np.vdot(state.coeffs[1], state.coeffs[1]).real),
        )
        assert state.norm_sq() == g00 + g11

    def test_blocks_are_row_views(self):
        state = random_state(np.random.default_rng(2), 5)
        assert state.coeffs.shape == (2, 5)
        assert np.shares_memory(state.coeffs[0], state.coeffs)
        assert np.shares_memory(state.coeffs[1], state.coeffs)

    def test_norm_splits_over_blocks(self):
        state = SuperVector([[0.6, 0.0], [0.0, 0.8]])
        assert state.norm() == pytest.approx(1.0)

    def test_array_round_trip(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 5)
        again = SuperVector(state.coeffs)
        assert again.coeffs is not state.coeffs
        assert (again - state).norm() == 0.0


@pytest.mark.parametrize(
    "build",
    [
        lambda: n_superparticle_state(1, ExtendedComplex.from_value(1.0), 4),
        lambda: fock.FockVector(basis_ket(1, 4)),
        lambda: reduced_boson_density(n_superparticle_state(1, ExtendedComplex.from_value(1.0), 4)),
    ],
    ids=["SuperVector", "FockVector", "DensityMatrix"],
)
def test_array_valued_types_compare_and_hash_by_identity(build):
    # a field-wise dataclass __eq__ would raise on the truth value of the arrays
    value, twin = build(), build()
    assert value == value and not value != value
    assert value != twin
    assert hash(value) == hash(value)
    assert len({value, twin, value}) == 2


def _blocks(state):
    """The two blocks of a state as separate contiguous arrays, as the per-block code held them."""
    return np.array(state.coeffs[0]), np.array(state.coeffs[1])


@st.composite
def coherent_points(draw):
    """A super-coherent parameter point and a dim at or above its displacement guard."""
    zeta = draw(
        st.one_of(
            st.just(ExtendedComplex.infinity()),
            st.builds(
                lambda re, im: ExtendedComplex.from_value(complex(re, im)),
                st.floats(-4, 4),
                st.floats(-4, 4),
            ),
        )
    )
    base = SuperQubitParams(draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 6.3)), zeta)
    alpha = complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
    dim = max(fock.required_displacement_dim(alpha), draw(st.integers(2, 64)))
    return CoherentParams(alpha, base), dim


class TestPerBlockReferences:
    """The (2, dim) array reduces block by block, bit for bit like separate blocks."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 80), st.integers(0, 2**32 - 1))
    def test_norm_and_flip(self, dim, seed):
        rng = np.random.default_rng(seed)
        x = SuperVector(rng.standard_normal((2, dim, 2)) @ [1.0, 1j])
        x0, x1 = _blocks(x)
        assert x.norm_sq() == float(np.vdot(x0, x0).real) + float(np.vdot(x1, x1).real)
        assert flip_state(x).coeffs.tobytes() == np.concatenate([x1, x0]).tobytes()
        for guard in {0, dim // 2, dim - 1}:
            keep = dim - guard
            g00, g11 = (float(np.vdot(block[:keep], block[:keep]).real) for block in (x0, x1))
            assert superstate._norms(x.coeffs[:, :keep]) == math.sqrt(g00 + g11)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 80), st.integers(0, 2**32 - 1))
    def test_stacked_norms_equal_each_state(self, dim, seed):
        stack = np.random.default_rng(seed).standard_normal((5, 2, dim, 2)) @ [1.0, 1j]
        states = [SuperVector(coeffs) for coeffs in stack]
        assert superstate._norms(stack).tolist() == [state.norm() for state in states]
        for guard in {0, dim // 2, dim - 1}:
            got = superstate._norms(stack[..., : dim - guard]).tolist()
            assert got == [SuperVector(coeffs[:, : dim - guard]).norm() for coeffs in stack]

    @settings(max_examples=100, deadline=None)
    @given(coherent_points())
    def test_super_coherent_state(self, point):
        params, dim = point
        r0, r1 = _blocks(super_qubit_state(params.base, dim))
        d0, d1 = fock.displaced_columns(params.alpha, dim)
        if params.alpha == 0:
            expected = np.concatenate([r0, r1])
        else:
            expected = np.concatenate([r0[0] * d0 + r0[1] * d1, r1[0] * d0 + r1[1] * d1])
        assert super_coherent_state(params, dim).coeffs.tobytes() == expected.tobytes()


class TestBlockOperator:
    def test_full_layout(self):
        op = block_operator(np.eye(2), 2 * np.eye(2), 3 * np.eye(2), 4 * np.eye(2))
        expected = np.kron(np.array([[1, 2], [3, 4]]), np.eye(2))
        np.testing.assert_array_equal(op.full(), expected)

    def test_apply_matches_full_matrix(self):
        rng = np.random.default_rng(11)
        dim = 6
        blocks = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(4)]
        op = block_operator(*blocks)
        state = random_state(rng, dim)
        np.testing.assert_allclose(
            op.apply(state).coeffs.ravel(), op.full() @ state.coeffs.ravel(), atol=1e-14
        )

    def test_matmul_matches_full_product(self):
        rng = np.random.default_rng(13)
        dim = 5
        ops = []
        for _ in range(2):
            blocks = [rng.standard_normal((dim, dim)) for _ in range(4)]
            ops.append(block_operator(*blocks))
        np.testing.assert_allclose(
            (ops[0] @ ops[1]).full(), ops[0].full() @ ops[1].full(), atol=1e-12
        )

    def test_dagger_matches_full_adjoint(self):
        rng = np.random.default_rng(17)
        dim = 4
        blocks = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(4)]
        op = block_operator(*blocks)
        np.testing.assert_array_equal(op.dagger().full(), op.full().conj().T)

    @pytest.mark.parametrize(
        "band",
        [{0: np.ones(3)}, {1: np.ones(4)}, {-1: np.ones(1)}, {4: np.ones(1)}, {0: np.ones((4, 1))}],
    )
    def test_diagonal_of_wrong_length_refused(self, band):
        with pytest.raises(InvalidDimensionError, match="diagonal"):
            BlockOperator(4, ({}, band, {}, {}))

    def test_four_blocks_and_positive_dim_required(self):
        with pytest.raises(InvalidDimensionError, match="4 blocks"):
            BlockOperator(3, ({}, {}, {}))
        with pytest.raises(InvalidDimensionError, match="dim must be"):
            BlockOperator(0, ({}, {}, {}, {}))

    def test_constructor_copies_diagonals_read_only(self):
        diagonal = np.arange(3.0, dtype=np.complex128)
        op = BlockOperator(3, ({0: diagonal}, {}, {}, {1: np.ones(2)}))
        diagonal[0] = 9.0
        assert op.bands[0][0][0] == 0.0 and diagonal.flags.writeable
        for band in op.bands:
            with pytest.raises(TypeError):
                band[2] = np.ones(1)
            for stored in band.values():
                assert stored.dtype == np.complex128
                with pytest.raises(ValueError):
                    stored[0] = 1.0


class TestSuperNumber:
    def test_boson_block_eigenvalue(self):
        op = super_number_operator(8)
        state = SuperVector([basis_ket(2, 8), np.zeros(8)])
        assert (op.apply(state) - 2.0 * state).norm() == 0.0

    def test_fermion_block_counts_one_extra(self):
        op = super_number_operator(8)
        state = SuperVector([np.zeros(8), basis_ket(1, 8)])
        assert (op.apply(state) - 2.0 * state).norm() == 0.0

    def test_matches_tensor_construction(self):
        dim = 12
        direct = super_number_operator(dim).full()
        tensor = np.kron(np.diag([0.0, 1.0]), np.eye(dim)) + np.kron(
            np.eye(2), np.diag(np.arange(dim, dtype=float))
        )
        assert np.abs(direct - tensor).max() == 0.0

    def test_n_state_is_exact_eigenstate(self):
        dim = 16
        op = super_number_operator(dim)
        for zeta in ZETA_SAMPLES:
            for n in range(dim):
                state = n_superparticle_state(n, zeta, dim)
                assert (op.apply(state) - float(n) * state).norm() == 0.0


class TestSuperAnnihilation:
    def test_pole_gives_block_diagonal(self):
        dim = 6
        op = super_annihilation(ExtendedComplex.infinity(), dim)
        a = fock.boson_annihilator(dim)
        assert np.abs(op.ul - a).max() == 0.0
        assert np.abs(op.lr - a).max() == 0.0
        assert np.abs(op.ur).max() == 0.0
        assert np.abs(op.ll).max() == 0.0

    def test_unit_zeta_dim2(self):
        op = super_annihilation(ExtendedComplex.from_value(1.0), 2)
        np.testing.assert_allclose(op.ul, [[0, 1], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(op.ur, [[-1, 0], [0, -1]], atol=1e-15)
        np.testing.assert_allclose(op.ll, np.zeros((2, 2)), atol=0)
        np.testing.assert_allclose(op.lr, [[0, 1], [0, 0]], atol=1e-15)

    def test_zero_zeta_rejected(self):
        with pytest.raises(SingularParameterError):
            super_annihilation(ExtendedComplex.from_value(0.0), 4)

    def test_annihilates_reference_states(self):
        # residual quoted for zeta = 2 + i, theta = 1.1, phi = 0.7
        dim = 64
        zeta = ExtendedComplex.from_value(2.0 + 1.0j)
        state = super_qubit_state(SuperQubitParams(1.1, 0.7, zeta), dim)
        assert super_annihilation(zeta, dim).apply(state).norm() <= 1e-10

    def test_annihilates_both_basis_states(self):
        dim = 32
        for zeta in ZETA_SAMPLES:
            op = super_annihilation(zeta, dim)
            assert op.apply(n_superparticle_state(0, zeta, dim)).norm() <= 1e-15
            assert op.apply(n_superparticle_state(1, zeta, dim)).norm() <= 1e-15


class TestNSuperparticleState:
    def test_zero_state_ignores_zeta(self):
        for zeta in ZETA_SAMPLES + [ExtendedComplex.infinity()]:
            state = n_superparticle_state(0, zeta, 4)
            np.testing.assert_array_equal(state.coeffs[0], basis_ket(0, 4))
            assert not state.coeffs[1].any()

    def test_one_state_at_unit_zeta(self):
        state = n_superparticle_state(1, ExtendedComplex.from_value(1.0), 4)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert state.coeffs[0, 1] == pytest.approx(inv_sqrt2, abs=1e-15)
        assert state.coeffs[1, 0] == pytest.approx(inv_sqrt2, abs=1e-15)
        assert abs(state.norm_sq() - 1.0) <= 1e-12

    def test_pole_keeps_only_fermion_block(self):
        state = n_superparticle_state(2, ExtendedComplex.infinity(), 4)
        assert not state.coeffs[0].any()
        np.testing.assert_array_equal(state.coeffs[1], basis_ket(1, 4))

    def test_truncation_rejected(self):
        with pytest.raises(TruncationError) as excinfo:
            n_superparticle_state(8, ExtendedComplex.from_value(1.0), 8)
        assert excinfo.value.required_dim == 9

    def test_orthogonality_of_basis_states(self):
        for zeta in ZETA_SAMPLES:
            bra = n_superparticle_state(0, zeta, 8)
            ket = n_superparticle_state(1, zeta, 8)
            assert np.vdot(bra.coeffs, ket.coeffs) == 0.0


class TestSuperQubitState:
    def test_north_pole_gives_vacuum(self):
        zeta = ExtendedComplex.from_value(0.7j)
        state = super_qubit_state(SuperQubitParams(0.0, 0.3, zeta), 8)
        assert (state - n_superparticle_state(0, zeta, 8)).norm() == 0.0

    def test_zero_zeta_is_bosonic_product(self):
        theta, phi = 1.2, 0.8
        state = super_qubit_state(
            SuperQubitParams(theta, phi, ExtendedComplex.from_value(0.0)), 8
        )
        assert not state.coeffs[1].any()
        assert state.coeffs[0, 0] == pytest.approx(math.cos(theta / 2))
        assert state.coeffs[0, 1] == pytest.approx(cmath.rect(math.sin(theta / 2), phi))

    def test_pole_zeta_is_fermionic_product(self):
        theta, phi = 1.2, 0.8
        state = super_qubit_state(
            SuperQubitParams(theta, phi, ExtendedComplex.infinity()), 8
        )
        assert state.coeffs[0, 0] == pytest.approx(math.cos(theta / 2))
        assert state.coeffs[1, 0] == pytest.approx(cmath.rect(math.sin(theta / 2), phi))
        assert abs(state.coeffs[0, 1]) == 0.0

    @pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (0.9, 2.2), (math.pi, 0.0)])
    def test_normalized(self, theta, phi):
        for zeta in ZETA_SAMPLES:
            state = super_qubit_state(SuperQubitParams(theta, phi, zeta), 16)
            assert abs(state.norm_sq() - 1.0) <= 1e-12

    def test_measurement_probabilities_from_overlaps(self):
        theta, phi = 1.7, 0.4
        for zeta in ZETA_SAMPLES + [ExtendedComplex.infinity()]:
            state = super_qubit_state(SuperQubitParams(theta, phi, zeta), 16)
            p0, p1 = pole_probabilities(state, zeta)
            assert p0 == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-12)
            assert p1 == pytest.approx(math.sin(theta / 2) ** 2, abs=1e-12)

    def test_creation_gate_raises_vacuum(self):
        for zeta in ZETA_SAMPLES + [ExtendedComplex.infinity()]:
            raised = super_creation_gate(zeta, 8).apply(n_superparticle_state(0, zeta, 8))
            assert (raised - n_superparticle_state(1, zeta, 8)).norm() <= 1e-12


def pole_overlaps(coeffs, zeta) -> list[list[tuple[float, float]]]:
    """(Re, Im) of <pole|psi> per pole and per state of an undisplaced stack, in the pole kernel's order.

    Python floats on levels 0 and 1 of each block: Re sums Re p Re psi and
    Im p Im psi, Im sums -Im p Re psi and Re p Im psi, level by level; the
    overlap adds the two blocks, psi0 first.
    """
    poles = [[[1, 0], [0, 0]], [[0, zeta.v], [zeta.u, 0]]]
    rows = []
    for pole in poles:
        row = []
        for state in coeffs.tolist():
            blocks = []
            for p_block, c_block in zip(pole, state):
                re_terms, im_terms = [], []
                for p, c in zip(map(complex, p_block), c_block[:2]):
                    re_terms += [p.real * c.real, p.imag * c.imag]
                    im_terms += [-p.imag * c.real, p.real * c.imag]
                blocks.append((sum(re_terms), sum(im_terms)))
            (re0, im0), (re1, im1) = blocks
            row.append((re0 + re1, im0 + im1))
        rows.append(row)
    return rows


class TestPoleProbabilityAccuracy:
    """Each pole probability against |overlap|^2 computed exactly from the float overlap."""

    ULPS = 1.5

    @staticmethod
    def sweep_stack(zeta, t_count, p_count):
        thetas = sweep_thetas(t_count)
        phis = [2.0 * math.pi * j / p_count for j in range(p_count)]
        return _undisplaced(_super_qubit_grid(thetas, *_grid_phases(thetas, phis), zeta), 8)

    def assert_squares_accurate(self, coeffs, zeta):
        got = _pole_probabilities(coeffs, zeta).tolist()
        overlaps = pole_overlaps(coeffs, zeta)
        worst = Fraction(0)
        for got_row, overlap_row in zip(got, overlaps):
            for value, (re, im) in zip(got_row, overlap_row):
                exact = Fraction(re) * Fraction(re) + Fraction(im) * Fraction(im)
                worst = max(worst, abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))
        assert worst <= self.ULPS, f"{float(worst):.3f} ulp"
        # the kernel sums the overlap in the order above and squares each part as x * x
        assert got == [[re * re + im * im for re, im in row] for row in overlaps]

    @pytest.mark.parametrize(
        "zeta, grid",
        [(ExtendedComplex.infinity(), (14, 5)), (ExtendedComplex.from_value(0.5 - 1.3j), (9, 7))],
        ids=["golden_pole_14x5", "golden_generic_9x7"],
    )
    def test_golden_sweep_grids(self, zeta, grid):
        self.assert_squares_accurate(self.sweep_stack(zeta, *grid), zeta)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sweep_grids(self, seed):
        rng = np.random.default_rng(seed)
        zeta = ExtendedComplex.from_value(cmath.rect(10.0 ** rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi)))
        t_count, p_count = rng.integers(10, 41, size=2)
        self.assert_squares_accurate(self.sweep_stack(zeta, int(t_count), int(p_count)), zeta)


class TestSuperCoherentState:
    def test_zero_alpha_returns_reference_exactly(self):
        base = SuperQubitParams(0.9, 0.3, ExtendedComplex.from_value(1.5))
        coherent = super_coherent_state(CoherentParams(0.0, base), 32)
        assert (coherent - super_qubit_state(base, 32)).norm() == 0.0

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_zero_alpha_needs_no_guard_dim(self, dim):
        base = SuperQubitParams(0.9, 0.3, ExtendedComplex.from_value(1.5))
        coherent = super_coherent_state(CoherentParams(0.0, base), dim)
        assert (coherent - super_qubit_state(base, dim)).norm() == 0.0

    def test_eigenvalue_relation(self):
        # quoted residual point: alpha = 1.2 - 0.3i, zeta = 1, theta = pi/3, phi = 0.4
        dim = 96
        zeta = ExtendedComplex.from_value(1.0)
        params = CoherentParams(1.2 - 0.3j, SuperQubitParams(math.pi / 3, 0.4, zeta))
        state = super_coherent_state(params, dim)
        residual = super_annihilation(zeta, dim).apply(state) - params.alpha * state
        assert residual.norm() <= 1e-8

    def test_block_form_from_displaced_number_states(self):
        dim = 64
        alpha = 0.8 - 0.5j
        theta, phi = 1.1, 2.0
        zeta = ExtendedComplex.from_value(0.6 + 0.9j)
        state = super_coherent_state(CoherentParams(alpha, SuperQubitParams(theta, phi, zeta)), dim)
        d0, d1 = fock.displaced_columns(alpha, dim)
        amp1 = cmath.rect(math.sin(theta / 2), phi)
        psi0 = math.cos(theta / 2) * d0 + amp1 * zeta.v * d1
        psi1 = amp1 * zeta.u * d0
        assert np.abs(state.coeffs[0] - psi0).max() <= 1e-10
        assert np.abs(state.coeffs[1] - psi1).max() <= 1e-10

    def test_guard_violation(self):
        base = SuperQubitParams(0.5, 0.0, ExtendedComplex.from_value(1.0))
        with pytest.raises(TruncationError):
            super_coherent_state(CoherentParams(2.0, base), 8)

    def test_displaced_probabilities_match_reference(self):
        dim = 64
        alpha = 1.1 + 0.2j
        zeta = ExtendedComplex.from_value(0.8)
        theta = 2.1
        state = super_coherent_state(CoherentParams(alpha, SuperQubitParams(theta, 1.0, zeta)), dim)
        p0, p1 = pole_probabilities(state, zeta, alpha)
        assert p0 == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-10)
        assert p1 == pytest.approx(math.sin(theta / 2) ** 2, abs=1e-10)


class TestFlip:
    def test_involution_exact(self):
        flip = flip_operator(6)
        assert np.abs((flip @ flip).full() - np.eye(12)).max() == 0.0

    def test_swaps_blocks(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 6)
        flipped = flip_operator(6).apply(state)
        np.testing.assert_array_equal(flipped.coeffs[0], state.coeffs[1])
        np.testing.assert_array_equal(flipped.coeffs[1], state.coeffs[0])
        direct = flip_state(state)
        assert (flipped - direct).norm() == 0.0

    def test_conjugation_transposes_annihilation(self):
        dim = 16
        flip = flip_operator(dim)
        for zeta in ZETA_SAMPLES + [ExtendedComplex.infinity()]:
            conjugated = (flip @ super_annihilation(zeta, dim) @ flip).full()
            target = super_annihilation_transposed(zeta, dim).full()
            assert np.abs(conjugated - target).max() == 0.0

    def test_conjugation_flips_fermion_number(self):
        dim = 5
        flip = flip_operator(dim).full()
        n_f = np.kron(np.diag([0.0, 1.0]), np.eye(dim))
        flipped = flip @ n_f @ flip
        assert np.abs(flipped - np.kron(np.diag([1.0, 0.0]), np.eye(dim))).max() == 0.0

    def test_commutes_with_displacement(self):
        rng = np.random.default_rng(5)
        dim = 32
        d = fock.displacement_operator(0.6 + 0.2j, dim)
        for _ in range(5):
            state = random_state(rng, dim)
            displaced = SuperVector([d @ psi for psi in state.coeffs])
            swapped = flip_state(state)
            displaced_swapped = SuperVector([d @ psi for psi in swapped.coeffs])
            assert (flip_state(displaced) - displaced_swapped).norm() <= 1e-12


class TestFlippedCoherent:
    def test_maximally_entangled_reference(self):
        zeta = ExtendedComplex.from_value(1.0)
        state = flip_state(
            super_coherent_state(CoherentParams(0.0, SuperQubitParams(math.pi, 0.0, zeta)), 24)
        )
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert state.coeffs[0, 0] == pytest.approx(inv_sqrt2, abs=1e-15)
        assert state.coeffs[1, 1] == pytest.approx(inv_sqrt2, abs=1e-15)

    def test_transposed_eigenvalue_relation(self):
        # quoted residual point: alpha = 0.8i, zeta = 1 + i, theta = 2, phi = 1
        dim = 96
        zeta = ExtendedComplex.from_value(1.0 + 1.0j)
        params = CoherentParams(0.8j, SuperQubitParams(2.0, 1.0, zeta))
        state = flip_state(super_coherent_state(params, dim))
        residual = super_annihilation_transposed(zeta, dim).apply(state) - params.alpha * state
        assert residual.norm() <= 1e-8

    @pytest.mark.parametrize("zeta", ZETA_SAMPLES + [ExtendedComplex.infinity()])
    def test_orderings_agree(self, zeta):
        # displacing the flipped reference gives the flipped coherent state:
        # the displacement acts on each block alone
        dim = 48
        params = CoherentParams(0.9, SuperQubitParams(1.3, 0.2, zeta))
        displaced_then_flipped = flip_state(super_coherent_state(params, dim))
        flipped_reference = flip_state(super_qubit_state(params.base, dim))
        flipped_then_displaced = SuperVector(
            _displace_low_levels(params.alpha, flipped_reference.coeffs[:, :2], dim)
        )
        assert (flipped_then_displaced - displaced_then_flipped).norm() == 0.0

    @pytest.mark.parametrize("zeta", ZETA_SAMPLES + [ExtendedComplex.infinity()])
    @pytest.mark.parametrize("alpha", [0.0, 0.9, -1.2 + 0.4j, -0.0 - 0.7j])
    @pytest.mark.parametrize("theta,phi", [(0.0, math.pi), (1.3, 0.2), (math.pi, 4.0)])
    def test_equals_flipped_state_byte_for_byte(self, zeta, alpha, theta, phi):
        # the flipped state one point at a time, as the CLI builds it, against
        # the stacked spelling verify reads: the grid row, displaced, blocks reversed
        dim = 40
        params = CoherentParams(alpha, SuperQubitParams(theta, phi, zeta))
        flipped = flip_state(super_coherent_state(params, dim))
        low = _super_qubit_grid([theta], *_grid_phases([theta], [phi]), zeta)
        stack = _undisplaced(low, dim) if alpha == 0 else _displace_low_levels(alpha, low, dim)
        reference = stack[0, ::-1]
        assert flipped.coeffs[0].tobytes() == reference[0].tobytes()
        assert flipped.coeffs[1].tobytes() == reference[1].tobytes()


class TestCommutatorSuite:
    @pytest.mark.parametrize(
        "zeta,dim",
        [
            (ExtendedComplex.from_value(1.0), 64),
            (ExtendedComplex.from_value(2.0j), 32),
            (ExtendedComplex.from_value(0.3 - 1.2j), 48),
        ],
    )
    def test_residuals_small(self, zeta, dim):
        residuals = commutator_suite(zeta, dim)
        assert residuals.number_lowering <= 1e-10
        assert residuals.number_raising <= 1e-10
        assert residuals.ladder <= 1e-10

    def test_pole_reduces_to_bosonic_algebra(self):
        residuals = commutator_suite(ExtendedComplex.infinity(), 64)
        assert residuals.ladder <= 1e-10

    def test_zero_zeta_singular(self):
        with pytest.raises(SingularParameterError):
            commutator_suite(ExtendedComplex.from_value(0.0), 16)


class TestParams:
    def test_phi_canonical_at_poles(self):
        params = SuperQubitParams(0.0, 2.5, ExtendedComplex.from_value(1.0))
        assert params.phi == 0.0

    def test_theta_range(self):
        with pytest.raises(ValueError):
            SuperQubitParams(4.0, 0.0, ExtendedComplex.from_value(1.0))

    def test_alpha_must_be_finite(self):
        base = SuperQubitParams(0.5, 0.0, ExtendedComplex.from_value(1.0))
        with pytest.raises(ValueError):
            CoherentParams(complex("inf"), base)


class TestBlockOperatorOwnership:
    def test_caller_arrays_are_copied(self):
        blocks = [np.eye(3) * (k + 1) for k in range(4)]
        op = block_operator(*blocks)
        for block in blocks:
            block[0, 0] = -9.0
        np.testing.assert_array_equal(op.full(), np.kron(np.array([[1, 2], [3, 4]]), np.eye(3)))
        assert all(block.flags.writeable for block in blocks)

    def test_blocks_of_derived_operators_are_read_only(self):
        a_op = super_annihilation(ExtendedComplex.from_value(0.7), 6)
        for op in (a_op, a_op.dagger(), a_op @ a_op.dagger(), a_op - a_op, a_op + a_op):
            for block in (op.ul, op.ur, op.ll, op.lr):
                with pytest.raises(ValueError):
                    block[0, 0] = 1.0

    def test_zero_blocks_stay_dense_arrays(self):
        a_op = super_annihilation(ExtendedComplex.from_value(0.7), 6)
        product = a_op @ a_op
        assert isinstance(product.ll, np.ndarray) and product.ll.shape == (6, 6)
        assert not product.ll.any()

    @pytest.mark.parametrize("dim", [2, 7])
    def test_banded_products_equal_entrywise_block_products(self, dim):
        # each entry of these products has at most one nonzero term, rounded
        # by numpy's elementwise complex multiply; BLAS may fuse that multiply
        # (complex x complex entries such as (-1/zeta) * u), so the dense
        # GEMM/GEMV agrees to rounding, not bit for bit
        zeta = ExtendedComplex.from_value(1.3 - 0.4j)
        ops = [
            super_annihilation(zeta, dim),
            super_annihilation_transposed(zeta, dim),
            super_creation_gate(zeta, dim),
            flip_operator(dim),
            super_number_operator(dim),
        ]
        rng = np.random.default_rng(3)
        state = random_state(rng, dim)
        psi0, psi1 = state.coeffs

        def matvec(m, v):
            return (m * v[None, :]).sum(axis=1)

        def matmul(m, n):
            return (m[:, :, None] * n[None, :, :]).sum(axis=1)

        for x in ops:
            applied = x.apply(state)
            expected0 = matvec(x.ul, psi0) + matvec(x.ur, psi1)
            expected1 = matvec(x.ll, psi0) + matvec(x.lr, psi1)
            np.testing.assert_array_equal(applied.coeffs[0], expected0)
            np.testing.assert_array_equal(applied.coeffs[1], expected1)
            np.testing.assert_allclose(
                applied.coeffs[0], x.ul @ psi0 + x.ur @ psi1, rtol=1e-15, atol=1e-15
            )
            for y in ops:
                product = x @ y
                blocks = [
                    (product.ul, (x.ul, y.ul), (x.ur, y.ll)),
                    (product.ur, (x.ul, y.ur), (x.ur, y.lr)),
                    (product.ll, (x.ll, y.ul), (x.lr, y.ll)),
                    (product.lr, (x.ll, y.ur), (x.lr, y.lr)),
                ]
                for block, first, second in blocks:
                    np.testing.assert_array_equal(block, matmul(*first) + matmul(*second))
                    np.testing.assert_allclose(
                        block, first[0] @ first[1] + second[0] @ second[1], rtol=1e-15, atol=1e-15
                    )


def _dense_from_bands(dim, offsets, rng):
    block = np.zeros((dim, dim), dtype=np.complex128)
    for offset in offsets:
        size = dim - abs(offset)
        rows = np.arange(max(0, -offset), max(0, -offset) + size)
        block[rows, rows + offset] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return block


@st.composite
def banded_blocks(draw, count=2):
    """count quadruples of dense blocks of one dim in 2..64, each with 0-3 random diagonals."""
    dim = draw(st.integers(2, 64))
    offsets = st.lists(st.integers(-(dim - 1), dim - 1), max_size=3, unique=True)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [[_dense_from_bands(dim, draw(offsets), rng) for _ in range(4)] for _ in range(count)]


def _offsets(block):
    rows, cols = np.nonzero(block)
    return sorted({int(k) for k in cols - rows})


class TestBandedBlockOperator:
    @settings(max_examples=150, deadline=None)
    @given(banded_blocks())
    def test_operations_match_dense_numpy(self, operands):
        x, y = (block_operator(*blocks) for blocks in operands)
        dense_x, dense_y = (np.block([blocks[:2], blocks[2:]]) for blocks in operands)
        assert [sorted(band) for band in x.bands] == [_offsets(block) for block in operands[0]]
        np.testing.assert_array_equal(x.full(), dense_x)
        np.testing.assert_allclose((x @ y).full(), dense_x @ dense_y, rtol=1e-13, atol=1e-13)
        state = random_state(np.random.default_rng(x.dim), x.dim)
        np.testing.assert_allclose(
            x.apply(state).coeffs.ravel(), dense_x @ state.coeffs.ravel(), rtol=1e-13, atol=1e-13
        )
        np.testing.assert_array_equal((x + y).full(), dense_x + dense_y)
        np.testing.assert_array_equal((x - y).full(), dense_x - dense_y)
        np.testing.assert_array_equal(x.dagger().full(), dense_x.conj().T)

    @settings(max_examples=100, deadline=None)
    @given(banded_blocks(count=1), st.integers(0, 63))
    def test_max_abs_equals_dense_guarded_max(self, operands, guard):
        op = block_operator(*operands[0])
        guard = guard % op.dim
        assert op.max_abs(guard) == guarded_max_abs(op.full(), op.dim, guard)

    @settings(max_examples=100, deadline=None)
    @given(banded_blocks(count=1), st.integers(0, 2**32 - 1))
    def test_stacked_apply_equals_each_state_bit_for_bit(self, operands, seed):
        op = block_operator(*operands[0])
        stack = np.random.default_rng(seed).standard_normal((3, 2, 2, op.dim, 2)) @ [1.0, 1j]
        applied = op.apply_coeffs(stack)
        assert applied.shape == stack.shape
        for index in np.ndindex(stack.shape[:2]):
            assert applied[index].tobytes() == op.apply(SuperVector(stack[index])).coeffs.tobytes()

    def test_apply_refuses_another_dim(self):
        with pytest.raises(InvalidDimensionError, match=r"applies to \(\.\.\., 2, 4\) coefficients"):
            flip_operator(4).apply_coeffs(np.zeros((3, 2, 5)))
        with pytest.raises(InvalidDimensionError, match="got shape"):
            flip_operator(4).apply(SuperVector(np.zeros((2, 5))))

    def test_zero_operator_has_empty_bands(self):
        op = block_operator(*(np.zeros((4, 4)) for _ in range(4)))
        assert op.bands == ({}, {}, {}, {})
        assert op.max_abs() == 0.0
        assert not (op @ op).full().any()
        assert not op.apply(random_state(np.random.default_rng(1), 4)).coeffs.any()

    @pytest.mark.parametrize("guard", [-1, 4, 5])
    def test_max_abs_rejects_guard_outside_dim(self, guard):
        with pytest.raises(InvalidDimensionError, match="guard must satisfy"):
            flip_operator(4).max_abs(guard)

    def test_storage_is_o_dim(self):
        # one dense 2048 x 2048 complex block is 64 MiB
        dim = 2048
        zeta = ExtendedComplex.from_value(0.7 - 0.2j)
        state = random_state(np.random.default_rng(9), dim)
        tracemalloc.start()
        try:
            a_op = super_annihilation(zeta, dim)
            product = a_op @ a_op.dagger()
            applied = a_op.apply(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert sorted(product.bands[0]) == [0] and applied.coeffs.shape == (2, dim)

    @pytest.mark.parametrize("zeta", ZETA_SAMPLES + [ExtendedComplex.infinity()])
    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_builders_equal_dense_constructions(self, zeta, dim):
        a = fock.boson_annihilator(dim)
        ad = a.conj().T
        eye = np.eye(dim, dtype=np.complex128)
        zeros = np.zeros_like(eye)
        n = np.diag(np.arange(dim, dtype=np.complex128))
        coeff = -(zeta.v / zeta.u)
        expected = {
            "annihilation": (super_annihilation(zeta, dim), [[a, coeff * eye], [zeros, a]]),
            "transposed": (
                super_annihilation_transposed(zeta, dim),
                [[a, zeros], [coeff * eye, a]],
            ),
            "gate": (
                super_creation_gate(zeta, dim),
                [[zeta.v * ad, zeros], [zeta.u * eye, zeta.v * ad]],
            ),
            "number": (
                super_number_operator(dim),
                [[n, zeros], [zeros, n + eye]],
            ),
            "flip": (flip_operator(dim), [[zeros, eye], [eye, zeros]]),
        }
        for name, (op, blocks) in expected.items():
            np.testing.assert_array_equal(op.full(), np.block(blocks), err_msg=name)
            assert all(all(d.any() for d in band.values()) for band in op.bands), name

    def test_fermion_diagonal(self):
        op = BlockOperator.fermion_diagonal(0.0, 2.5j, 3)
        np.testing.assert_array_equal(op.full(), np.kron(np.diag([0.0, 2.5j]), np.eye(3)))
        assert op.bands[0] == {}

    def test_dense_accessors_match_full(self):
        op = super_annihilation(ExtendedComplex.from_value(0.4 + 1.1j), 5)
        np.testing.assert_array_equal(np.block([[op.ul, op.ur], [op.ll, op.lr]]), op.full())
        with pytest.raises(AttributeError):
            op.missing  # noqa: B018


class TestGuardedMaxAbs:
    """BlockOperator.max_abs of dense blocks against the indexed dense max."""

    @pytest.mark.parametrize("dim,guard", [(2, 0), (2, 1), (9, 8), (48, 8), (64, 3)])
    def test_equals_indexed_reference(self, dim, guard):
        rng = np.random.default_rng(dim * 100 + guard)
        shape = (dim, dim)
        blocks = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(4)]
        op = block_operator(*blocks)
        assert op.max_abs(guard) == guarded_max_abs(np.block([blocks[:2], blocks[2:]]), dim, guard)

    def test_nan_propagates(self):
        lower_right = np.zeros((4, 4))
        lower_right[0, 0] = np.nan
        zeros = np.zeros((4, 4))
        assert math.isnan(block_operator(zeros, zeros, zeros, lower_right).max_abs(1))
