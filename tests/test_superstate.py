import cmath
import math

import numpy as np
import pytest

from superq import fock, superstate
from superq.errors import (
    InvalidDimensionError,
    SingularParameterError,
    TruncationError,
)
from superq.moebius import ExtendedComplex
from superq.superstate import (
    BlockOperator,
    CoherentParams,
    SuperQubitParams,
    SuperVector,
    commutator_suite,
    flip_operator,
    flip_state,
    flipped_super_coherent_state,
    guarded_norm,
    n_superparticle_state,
    pole_probabilities,
    super_annihilation,
    super_annihilation_transposed,
    super_coherent_state,
    super_creation_gate,
    super_number_operator,
    super_qubit_state,
)

ZETA_SAMPLES = [
    ExtendedComplex.from_value(0.4),
    ExtendedComplex.from_value(1.0),
    ExtendedComplex.from_value(2.0 + 1.0j),
    ExtendedComplex.from_value(-0.3 + 1.7j),
]


def random_state(rng, dim):
    raw = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
    raw /= np.linalg.norm(raw)
    return SuperVector.from_array(raw)


class TestSuperVector:
    def test_block_dims_must_agree(self):
        with pytest.raises(InvalidDimensionError):
            SuperVector(fock.basis_ket(0, 3), fock.basis_ket(0, 4))

    def test_norm_splits_over_blocks(self):
        state = SuperVector(fock.FockVector([0.6, 0.0]), fock.FockVector([0.0, 0.8]))
        assert state.norm() == pytest.approx(1.0)
        assert state.is_normalized()

    def test_array_round_trip(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 5)
        again = SuperVector.from_array(state.to_array())
        assert (again - state).norm() == 0.0


class TestBlockOperator:
    def test_full_layout(self):
        op = BlockOperator(
            np.eye(2), 2 * np.eye(2), 3 * np.eye(2), 4 * np.eye(2)
        )
        expected = np.kron(np.array([[1, 2], [3, 4]]), np.eye(2))
        np.testing.assert_array_equal(op.full(), expected)

    def test_apply_matches_full_matrix(self):
        rng = np.random.default_rng(11)
        dim = 6
        blocks = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(4)]
        op = BlockOperator(*blocks)
        state = random_state(rng, dim)
        np.testing.assert_allclose(
            op.apply(state).to_array(), op.full() @ state.to_array(), atol=1e-14
        )

    def test_matmul_matches_full_product(self):
        rng = np.random.default_rng(13)
        dim = 5
        ops = []
        for _ in range(2):
            blocks = [rng.standard_normal((dim, dim)) for _ in range(4)]
            ops.append(BlockOperator(*blocks))
        np.testing.assert_allclose(
            (ops[0] @ ops[1]).full(), ops[0].full() @ ops[1].full(), atol=1e-12
        )

    def test_dagger_matches_full_adjoint(self):
        rng = np.random.default_rng(17)
        dim = 4
        blocks = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(4)]
        op = BlockOperator(*blocks)
        np.testing.assert_array_equal(op.dagger().full(), op.full().conj().T)

    def test_block_shapes_must_agree(self):
        with pytest.raises(InvalidDimensionError):
            BlockOperator(np.eye(2), np.eye(3), np.eye(2), np.eye(2))


class TestSuperNumber:
    def test_boson_block_eigenvalue(self):
        op = super_number_operator(8)
        state = SuperVector(fock.basis_ket(2, 8), fock.zero_vector(8))
        assert (op.apply(state) - 2.0 * state).norm() == 0.0

    def test_fermion_block_counts_one_extra(self):
        op = super_number_operator(8)
        state = SuperVector(fock.zero_vector(8), fock.basis_ket(1, 8))
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
            np.testing.assert_array_equal(state.psi0.coeffs, fock.basis_ket(0, 4).coeffs)
            assert state.psi1.norm() == 0.0

    def test_one_state_at_unit_zeta(self):
        state = n_superparticle_state(1, ExtendedComplex.from_value(1.0), 4)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert state.psi0.coeffs[1] == pytest.approx(inv_sqrt2, abs=1e-15)
        assert state.psi1.coeffs[0] == pytest.approx(inv_sqrt2, abs=1e-15)
        assert state.is_normalized()

    def test_pole_keeps_only_fermion_block(self):
        state = n_superparticle_state(2, ExtendedComplex.infinity(), 4)
        assert state.psi0.norm() == 0.0
        np.testing.assert_array_equal(state.psi1.coeffs, fock.basis_ket(1, 4).coeffs)

    def test_truncation_rejected(self):
        with pytest.raises(TruncationError) as excinfo:
            n_superparticle_state(8, ExtendedComplex.from_value(1.0), 8)
        assert excinfo.value.required_dim == 9

    def test_orthogonality_of_basis_states(self):
        for zeta in ZETA_SAMPLES:
            bra = n_superparticle_state(0, zeta, 8)
            ket = n_superparticle_state(1, zeta, 8)
            assert bra.inner(ket) == 0.0


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
        assert state.psi1.norm() == 0.0
        assert state.psi0.coeffs[0] == pytest.approx(math.cos(theta / 2))
        assert state.psi0.coeffs[1] == pytest.approx(cmath.rect(math.sin(theta / 2), phi))

    def test_pole_zeta_is_fermionic_product(self):
        theta, phi = 1.2, 0.8
        state = super_qubit_state(
            SuperQubitParams(theta, phi, ExtendedComplex.infinity()), 8
        )
        assert state.psi0.coeffs[0] == pytest.approx(math.cos(theta / 2))
        assert state.psi1.coeffs[0] == pytest.approx(cmath.rect(math.sin(theta / 2), phi))
        assert abs(state.psi0.coeffs[1]) == 0.0

    @pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (0.9, 2.2), (math.pi, 0.0)])
    def test_normalized(self, theta, phi):
        for zeta in ZETA_SAMPLES:
            state = super_qubit_state(SuperQubitParams(theta, phi, zeta), 16)
            assert state.is_normalized()

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
        d0 = fock.displaced_number_state(alpha, 0, dim).coeffs
        d1 = fock.displaced_number_state(alpha, 1, dim).coeffs
        amp1 = cmath.rect(math.sin(theta / 2), phi)
        psi0 = math.cos(theta / 2) * d0 + amp1 * zeta.v * d1
        psi1 = amp1 * zeta.u * d0
        assert np.abs(state.psi0.coeffs - psi0).max() <= 1e-10
        assert np.abs(state.psi1.coeffs - psi1).max() <= 1e-10

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
        np.testing.assert_array_equal(flipped.psi0.coeffs, state.psi1.coeffs)
        np.testing.assert_array_equal(flipped.psi1.coeffs, state.psi0.coeffs)
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
            displaced = SuperVector(
                fock.FockVector(d @ state.psi0.coeffs), fock.FockVector(d @ state.psi1.coeffs)
            )
            swapped = flip_state(state)
            displaced_swapped = SuperVector(
                fock.FockVector(d @ swapped.psi0.coeffs), fock.FockVector(d @ swapped.psi1.coeffs)
            )
            assert (flip_state(displaced) - displaced_swapped).norm() <= 1e-12


class TestFlippedCoherent:
    def test_maximally_entangled_reference(self):
        zeta = ExtendedComplex.from_value(1.0)
        state = flipped_super_coherent_state(
            CoherentParams(0.0, SuperQubitParams(math.pi, 0.0, zeta)), 24
        )
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert state.psi0.coeffs[0] == pytest.approx(inv_sqrt2, abs=1e-15)
        assert state.psi1.coeffs[1] == pytest.approx(inv_sqrt2, abs=1e-15)

    def test_transposed_eigenvalue_relation(self):
        # quoted residual point: alpha = 0.8i, zeta = 1 + i, theta = 2, phi = 1
        dim = 96
        zeta = ExtendedComplex.from_value(1.0 + 1.0j)
        params = CoherentParams(0.8j, SuperQubitParams(2.0, 1.0, zeta))
        state = flipped_super_coherent_state(params, dim)
        residual = super_annihilation_transposed(zeta, dim).apply(state) - params.alpha * state
        assert residual.norm() <= 1e-8

    def test_orderings_agree(self):
        dim = 48
        params = CoherentParams(0.9, SuperQubitParams(1.3, 0.2, ExtendedComplex.from_value(2.0)))
        displaced_then_flipped = flip_state(super_coherent_state(params, dim))
        assert (flipped_super_coherent_state(params, dim) - displaced_then_flipped).norm() == 0.0

    @pytest.mark.parametrize("zeta", ZETA_SAMPLES + [ExtendedComplex.infinity()])
    @pytest.mark.parametrize("alpha", [0.0, 0.9, -1.2 + 0.4j, -0.0 - 0.7j])
    @pytest.mark.parametrize("theta,phi", [(0.0, math.pi), (1.3, 0.2), (math.pi, 4.0)])
    def test_equals_flipped_state_byte_for_byte(self, zeta, alpha, theta, phi):
        dim = 40
        params = CoherentParams(alpha, SuperQubitParams(theta, phi, zeta))
        flipped = flipped_super_coherent_state(params, dim)
        reference = flip_state(super_coherent_state(params, dim))
        assert flipped.psi0.coeffs.tobytes() == reference.psi0.coeffs.tobytes()
        assert flipped.psi1.coeffs.tobytes() == reference.psi1.coeffs.tobytes()


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

    def test_guarded_norm_drops_top_levels(self):
        coeffs = np.zeros(8, dtype=complex)
        coeffs[7] = 1.0
        state = SuperVector(fock.FockVector(coeffs), fock.zero_vector(8))
        assert guarded_norm(state, guard=2) == 0.0
        assert guarded_norm(state, guard=0) == 1.0

    @pytest.mark.parametrize("dim,guard", [(2, 0), (2, 1), (9, 8), (48, 8), (64, 3)])
    def test_guarded_norm_matches_indexed_reference(self, dim, guard):
        state = random_state(np.random.default_rng(dim + guard), dim)
        keep = superstate.guarded_levels(dim, guard)
        reference = float(np.linalg.norm(state.to_array()[keep]))
        assert guarded_norm(state, guard) == reference

    @pytest.mark.parametrize("guard", [-1, 8, 9])
    def test_guarded_norm_rejects_guard_outside_dim(self, guard):
        with pytest.raises(InvalidDimensionError, match="guard must satisfy"):
            guarded_norm(n_superparticle_state(0, ExtendedComplex.from_value(1.0), 8), guard)


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
        op = BlockOperator(*blocks)
        for block in blocks:
            block[0, 0] = -9.0
        np.testing.assert_array_equal(op.full(), np.kron(np.array([[1, 2], [3, 4]]), np.eye(3)))
        assert all(block.flags.writeable for block in blocks)

    def test_boson_diagonal_copies_caller_array(self):
        mat = np.arange(4.0).reshape(2, 2)
        op = BlockOperator.boson_diagonal(mat)
        mat[0, 0] = 9.0
        assert op.ul[0, 0] == 0.0 and op.lr[0, 0] == 0.0

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
    def test_zero_aware_products_equal_all_block_products(self, dim):
        # skipping a zero block drops only exact zero terms: the values equal
        # those of all eight block products (up to the sign of zero entries)
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
        psi0, psi1 = state.psi0.coeffs, state.psi1.coeffs
        for x in ops:
            applied = x.apply(state)
            np.testing.assert_array_equal(applied.psi0.coeffs, x.ul @ psi0 + x.ur @ psi1)
            np.testing.assert_array_equal(applied.psi1.coeffs, x.ll @ psi0 + x.lr @ psi1)
            for y in ops:
                product = x @ y
                np.testing.assert_array_equal(product.ul, x.ul @ y.ul + x.ur @ y.ll)
                np.testing.assert_array_equal(product.ur, x.ul @ y.ur + x.ur @ y.lr)
                np.testing.assert_array_equal(product.ll, x.ll @ y.ul + x.lr @ y.ll)
                np.testing.assert_array_equal(product.lr, x.ll @ y.ur + x.lr @ y.lr)
