import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from superq import uncertainty
from superq.errors import TruncationError
from superq.moebius import ExtendedComplex
from superq.superstate import (
    CoherentParams,
    SuperQubitParams,
    guarded_max_abs,
    super_coherent_state,
    super_qubit_state,
)
from superq.uncertainty import (
    GOLDEN_RATIO,
    fibonacci_ladder,
    fibonacci_number,
    fibonacci_record,
    golden_limit,
    mean_quadratures_closed,
    quadrature_operators,
    quadrature_stats_closed,
    quadrature_stats_numeric,
    variance_quadratures_closed,
)


def params(alpha, theta, phi, zeta_value):
    return CoherentParams(
        alpha, SuperQubitParams(theta, phi, ExtendedComplex.from_value(zeta_value))
    )


SYMMETRIC_POINT = params(0.0, math.pi / 2, math.pi / 4, 1.0)


class TestQuadratureOperators:
    def test_position_block_dim2(self):
        x_op, _ = quadrature_operators(2)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(x_op.ul, [[0, inv_sqrt2], [inv_sqrt2, 0]], atol=1e-16)
        np.testing.assert_array_equal(x_op.ul, x_op.lr)
        assert np.abs(x_op.ur).max() == 0.0

    @pytest.mark.parametrize("dim", [2, 3, 17, 64])
    def test_blocks_equal_the_dense_oracle_matrices_bit_for_bit(self, dim):
        off = np.sqrt(np.arange(1.0, dim)) * (1.0 / math.sqrt(2.0))
        x = (np.diag(off, 1) + np.diag(off, -1)).astype(complex)
        p = np.diag(-1j * off, 1) + np.diag(1j * off, -1)
        x_op, p_op = quadrature_operators(dim)
        for op, dense in ((x_op, x), (p_op, p)):
            assert op.ul.tobytes() == dense.tobytes()
            assert op.lr.tobytes() == dense.tobytes()
            assert op.bands[1] == {} and op.bands[2] == {}

    @pytest.mark.parametrize("dim", [3, 17, 64])
    def test_banded_images_equal_the_exactly_summed_dense_product(self, dim):
        # each dense row holds two nonzero entries, so adding its products in
        # any order gives the banded image; the displaced state is cut from
        # dim 64 so that every level is occupied
        undisplaced = super_qubit_state(SYMMETRIC_POINT.base, dim).coeffs
        displaced = super_coherent_state(params(1.2 - 0.7j, 1.1, 0.4, 0.6 + 0.3j), 64).coeffs[:, :dim]
        for op in quadrature_operators(dim):
            full = op.full()
            for state in (undisplaced, displaced):
                products = full * state.ravel()
                reference = [complex(math.fsum(row.real), math.fsum(row.imag)) for row in products]
                assert op.apply_coeffs(state).tobytes() == np.array(reference).tobytes()

    def test_oracle_memory_is_linear_in_dim(self):
        # a dense X and P pair at dim 2048 would take 2 * 2048**2 * 16 bytes = 128 MiB
        point = params(0.9 + 0.4j, 1.1, 0.4, 0.6 + 0.3j)
        tracemalloc.start()
        try:
            quadrature_stats_numeric(point, 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_memoised_per_dim_and_read_only(self):
        x_op, p_op = quadrature_operators(24)
        again = quadrature_operators(24)
        assert again[0] is x_op and again[1] is p_op
        assert quadrature_operators(25)[0] is not x_op
        for op in (x_op, p_op):
            with pytest.raises(dataclasses.FrozenInstanceError):
                op.dim = 3
            for band in op.bands:
                with pytest.raises(TypeError):
                    band[0] = np.zeros(24)
                for diagonal in band.values():
                    with pytest.raises(ValueError):
                        diagonal[0] = 7.0

    def test_hermitian(self):
        for op in quadrature_operators(24):
            assert np.abs(op.full() - op.full().conj().T).max() == 0.0

    def test_canonical_commutator_on_guarded_block(self):
        dim = 64
        x_op, p_op = quadrature_operators(dim)
        residual = (x_op @ p_op - p_op @ x_op).full() - 1j * np.eye(2 * dim)
        assert guarded_max_abs(residual, dim) <= 1e-12


class TestClosedMoments:
    def test_means_vanish_at_north_pole(self):
        assert mean_quadratures_closed(params(0.0, 0.0, 0.0, 1.0)) == (0.0, 0.0)

    def test_displacement_sets_classical_point(self):
        mean_x, mean_p = mean_quadratures_closed(params(1.0 + 1.0j, 0.0, 0.0, 0.5))
        assert mean_x == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert mean_p == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_equator_mean_matches_matrix_oracle(self):
        point = params(0.0, math.pi / 2, 0.0, 0.0)
        numeric = quadrature_stats_numeric(point, 64)
        closed = mean_quadratures_closed(point)
        # frozen from the dense expectation: <X> = 1/sqrt(2) at this point
        assert numeric.mean_x == pytest.approx(0.7071067811865475, abs=1e-12)
        assert closed[0] == pytest.approx(numeric.mean_x, abs=1e-10)
        assert closed[1] == pytest.approx(numeric.mean_p, abs=1e-10)

    def test_variances_at_north_pole_are_vacuum(self):
        for zeta_value in (0.0, 1.0, 3.0 - 1.0j):
            var_x, var_p = variance_quadratures_closed(params(0.7j, 0.0, 0.0, zeta_value))
            assert var_x == pytest.approx(0.5, abs=1e-15)
            assert var_p == pytest.approx(0.5, abs=1e-15)

    def test_five_eighths_point(self):
        var_x, var_p = variance_quadratures_closed(SYMMETRIC_POINT)
        assert var_x == pytest.approx(0.625, abs=1e-15)
        assert var_p == pytest.approx(0.625, abs=1e-15)

    def test_pole_zeta_variances_are_vacuum(self):
        base = SuperQubitParams(2.0, 1.0, ExtendedComplex.infinity())
        var_x, var_p = variance_quadratures_closed(CoherentParams(0.0, base))
        assert var_x == 0.5
        assert var_p == 0.5

    def test_product_is_geometric_mean_square(self):
        stats = quadrature_stats_closed(params(0.3, 1.2, 0.4, 0.8))
        assert stats.product == pytest.approx(math.sqrt(stats.var_x * stats.var_p), abs=1e-15)
        symmetric = quadrature_stats_closed(SYMMETRIC_POINT)
        assert abs(symmetric.product - symmetric.var_x) <= 1e-12


class TestMatrixOracle:
    @pytest.mark.parametrize("dim", [3, 8])
    def test_undisplaced_oracle_exact_at_small_dim(self, dim):
        # at alpha = 0 the state lives on levels 0, 1 and X, P reach level 2 at most
        small = quadrature_stats_numeric(SYMMETRIC_POINT, dim)
        full = quadrature_stats_numeric(SYMMETRIC_POINT, 64)
        for name in ("mean_x", "mean_p", "var_x", "var_p", "product"):
            assert getattr(small, name) == pytest.approx(getattr(full, name), abs=1e-15)

    def test_undisplaced_oracle_refuses_dim_two(self):
        # X|1> has a |2> component, which two levels cannot hold
        with pytest.raises(TruncationError, match="dim >= 3") as excinfo:
            quadrature_stats_numeric(SYMMETRIC_POINT, 2)
        assert excinfo.value.required_dim == 3

    def test_variances_match_at_quoted_point(self):
        point = params(1.3 - 0.7j, 1.0, 0.5, 2.0)
        closed = quadrature_stats_closed(point)
        numeric = quadrature_stats_numeric(point, 96)
        assert abs(closed.var_x - numeric.var_x) <= 1e-8
        assert abs(closed.var_p - numeric.var_p) <= 1e-8
        assert abs(closed.mean_x - numeric.mean_x) <= 1e-8
        assert abs(closed.mean_p - numeric.mean_p) <= 1e-8

    def test_alpha_independence_of_variances(self):
        base = SuperQubitParams(1.0, 0.5, ExtendedComplex.from_value(2.0))
        at_zero = quadrature_stats_numeric(CoherentParams(0.0, base), 96)
        displaced = quadrature_stats_numeric(CoherentParams(1.5 - 0.8j, base), 96)
        assert abs(at_zero.var_x - displaced.var_x) <= 1e-8
        assert abs(at_zero.var_p - displaced.var_p) <= 1e-8

    def test_symmetric_point_equality(self):
        for zeta_value in (0.5, 1.0, 2.0):
            point = params(0.0, math.pi / 2, math.pi / 4, zeta_value)
            var_x, var_p = variance_quadratures_closed(point)
            assert abs(var_x - var_p) <= 1e-12
            numeric = quadrature_stats_numeric(point, 64)
            assert abs(numeric.var_x - numeric.var_p) <= 1e-8

    def test_variance_floor_on_symmetric_family(self):
        for theta in np.linspace(0.0, math.pi, 9):
            for zeta_value in (0.3, 1.0, 2.5):
                var_x, var_p = variance_quadratures_closed(
                    params(0.0, float(theta), math.pi / 4, zeta_value)
                )
                assert min(var_x, var_p) >= 0.5 - 1e-10


class TestFibonacci:
    def test_convention_seed_values(self):
        assert [fibonacci_number(n) for n in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]

    def test_record_n5_is_five_eighths(self):
        record = fibonacci_record(5, 64)
        assert record.zeta_sq == Fraction(1, 1)
        assert record.dispersion_closed == Fraction(5, 8)
        assert record.fib_n == 5

    def test_record_n3(self):
        record = fibonacci_record(3, 64)
        assert record.zeta_sq == Fraction(1, 2)
        assert record.dispersion_closed == Fraction(2, 3)

    def test_ladder_starts_at_three(self):
        with pytest.raises(ValueError):
            fibonacci_record(2, 64)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_exact_rational_identity(self, n):
        record = fibonacci_record(n, 32)
        assert (1 + Fraction(1, 2) / (1 + record.zeta_sq)) / 2 == record.dispersion_closed
        assert record.dispersion_closed == Fraction(
            fibonacci_number(n), fibonacci_number(n + 1)
        )

    @pytest.mark.parametrize("n", range(3, 21))
    def test_fibonacci_chain_identities(self, n):
        f = fibonacci_number
        assert 2 * f(n - 1) + f(n - 2) == f(n + 1)
        assert f(n + 1) + f(n - 2) == 2 * f(n)

    def test_numeric_oracle_agrees(self):
        for n in range(3, 21):
            record = fibonacci_record(n, 64)
            assert abs(record.dispersion_numeric - float(record.dispersion_closed)) <= 1e-8

    def test_circle_radii_oscillate_around_golden_point(self):
        center = GOLDEN_RATIO - 0.5
        signs = [
            1 if float(fibonacci_record(n, 32).zeta_sq) > center else -1
            for n in range(3, 15)
        ]
        assert all(a != b for a, b in zip(signs, signs[1:]))

    def test_dispersion_converges_monotonically(self):
        gaps = [
            abs(float(fibonacci_record(n, 32).dispersion_closed) - 1.0 / GOLDEN_RATIO)
            for n in range(3, 21)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_gap_at_twenty(self):
        record = fibonacci_record(20, 64)
        assert abs(float(record.dispersion_closed) - 1.0 / GOLDEN_RATIO) <= 1e-7

    @pytest.mark.parametrize("dim", [3, 8, 64, 200])
    def test_ladder_equals_each_record_bit_for_bit(self, dim):
        ladder = fibonacci_ladder(90, dim)
        assert [record.n for record in ladder] == list(range(3, 91))
        for record in ladder:
            alone = fibonacci_record(record.n, dim)
            assert record.dispersion_numeric.hex() == alone.dispersion_numeric.hex()
            assert (record.fib_n, record.zeta_sq, record.dispersion_closed) == (
                alone.fib_n,
                alone.zeta_sq,
                alone.dispersion_closed,
            )

    def test_ladder_reads_the_oracle_operators_once(self, monkeypatch):
        calls = []
        operators = uncertainty.quadrature_operators
        monkeypatch.setattr(uncertainty, "quadrature_operators", lambda dim: calls.append(dim) or operators(dim))
        assert len(fibonacci_ladder(40, 24)) == 38
        assert calls == [24]

    def test_ladder_refusals(self):
        assert fibonacci_ladder(2, 64) == []
        with pytest.raises(TruncationError, match="needs dim >= 3, got 2"):
            fibonacci_ladder(10, 2)


class TestGoldenLimit:
    def test_values(self):
        zeta_sq_inf, dispersion_inf = golden_limit()
        assert zeta_sq_inf == pytest.approx(1.118033988749895, abs=1e-15)
        assert dispersion_inf == pytest.approx(0.6180339887498948, abs=1e-15)
        assert dispersion_inf == pytest.approx(1.0 / GOLDEN_RATIO, abs=1e-16)

    def test_closed_variance_reproduces_golden_dispersion(self):
        zeta_sq_inf, dispersion_inf = golden_limit()
        point = params(0.0, math.pi / 2, math.pi / 4, math.sqrt(zeta_sq_inf))
        var_x, var_p = variance_quadratures_closed(point)
        assert abs(var_x - dispersion_inf) <= 1e-14
        assert abs(var_p - dispersion_inf) <= 1e-14

    def test_golden_ratio_identity(self):
        # phi^2 = phi + 1 pins (phi + 1)/(2 phi + 1) = 1/phi
        assert (GOLDEN_RATIO + 1.0) / (2.0 * GOLDEN_RATIO + 1.0) == pytest.approx(
            1.0 / GOLDEN_RATIO, abs=1e-16
        )
