import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import factorial

from superq import fock, verify
from superq.errors import InvalidDimensionError, TruncationError

from conftest import basis_ket


def coherent_coefficients(alpha, dim):
    """Independent expansion e^{-|a|^2/2} a^n / sqrt(n!)."""
    n = np.arange(dim)
    return np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / np.sqrt(factorial(n))


class TestLadderOperators:
    def test_annihilator_dim2(self):
        a = fock.boson_annihilator(2)
        np.testing.assert_array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_annihilator_superdiagonal_entry(self):
        a = fock.boson_annihilator(6)
        assert a[3, 4] == 2.0

    def test_annihilator_lowers_basis_ket(self):
        a = fock.boson_annihilator(4)
        np.testing.assert_array_equal(a @ basis_ket(1, 4), basis_ket(0, 4))

    def test_creator_raises_with_sqrt_factor(self):
        dim = 12
        ad = fock.boson_annihilator(dim).conj().T
        for n in range(dim - 1):
            expected = math.sqrt(n + 1) * basis_ket(n + 1, dim)
            np.testing.assert_array_equal(ad @ basis_ket(n, dim), expected)

    def test_commutator_is_identity_below_truncation(self):
        dim = 16
        a = fock.boson_annihilator(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        np.testing.assert_allclose(comm[: dim - 1, : dim - 1], np.eye(dim - 1), atol=1e-13)
        assert comm[dim - 1, dim - 1] == pytest.approx(1 - dim, abs=1e-12)

    def test_number_matches_ladder_product(self):
        # sqrt(n) is rounded, so the product recovers n only to machine precision
        dim = 16
        a = fock.boson_annihilator(dim)
        assert np.abs(a.conj().T @ a - np.diag(np.arange(dim))).max() <= 1e-14

    def test_small_dimensions_rejected(self):
        with pytest.raises(InvalidDimensionError):
            fock.boson_annihilator(1)


class TestFockVector:
    def test_coefficients_are_read_only(self):
        vec = fock.FockVector(basis_ket(0, 3))
        with pytest.raises(ValueError):
            vec.coeffs[0] = 2.0

    def test_rejects_non_vectors(self):
        with pytest.raises(InvalidDimensionError):
            fock.FockVector(np.zeros((2, 2)))
        with pytest.raises(InvalidDimensionError):
            fock.FockVector([])


class TestDisplacement:
    def test_zero_displacement_is_identity(self):
        np.testing.assert_array_equal(fock.displacement_operator(0.0, 24), np.eye(24))

    def test_vacuum_amplitude(self):
        d = fock.displacement_operator(1.0, 64)
        assert d[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-10)

    @pytest.mark.parametrize("alpha", [1.0, 0.5j, 1.2 - 0.8j, -2.0 + 0.3j])
    def test_first_column_matches_coherent_expansion(self, alpha):
        dim = 64
        column = fock.displacement_operator(alpha, dim)[:, 0]
        expected = coherent_coefficients(alpha, dim)
        assert np.abs(column - expected)[: dim - fock.GUARD_BAND].max() <= 1e-10

    @pytest.mark.parametrize("alpha", [0.3, 1.0j, 1.5 - 1.0j, 2.4])
    def test_unitarity(self, alpha):
        dim = 64
        d = fock.displacement_operator(alpha, dim)
        assert np.abs(d.conj().T @ d - np.eye(dim)).max() <= 1e-10

    def test_inverse_displacement(self):
        alpha = 1.0 + 0.5j
        dim = 64
        product = fock.displacement_operator(alpha, dim) @ fock.displacement_operator(-alpha, dim)
        assert np.abs(product - np.eye(dim)).max() <= 1e-9

    @pytest.mark.parametrize(
        "alpha,beta",
        [(2.0, 2.0j), (1.5 + 0.5j, -0.5 + 1.0j), (1.0, 0.5j)],
    )
    def test_composition_law_on_protected_block(self, alpha, beta):
        # entries are reliable only for levels whose displaced images fit,
        # so the checked block excludes those reachable past the truncation
        dim = 96
        keep = dim - fock.required_displacement_dim(abs(alpha) + abs(beta))
        phase = np.exp(1j * (alpha * np.conj(beta)).imag)
        product = fock.displacement_operator(alpha, dim) @ fock.displacement_operator(beta, dim)
        target = phase * fock.displacement_operator(alpha + beta, dim)
        assert np.abs(product - target)[:keep, :keep].max() <= 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 1.3, 2.0])
    def test_coherent_tail_mass_under_guard(self, alpha):
        dim = fock.required_displacement_dim(alpha)
        tail = coherent_coefficients(alpha, 2 * dim)[dim - fock.GUARD_BAND :]
        assert np.sum(np.abs(tail) ** 2) <= 1e-12

    def test_guard_violation_carries_required_dim(self):
        with pytest.raises(TruncationError) as excinfo:
            fock.displacement_operator(2.0, 8)
        assert excinfo.value.required_dim == 36

    def test_required_dim_floor(self):
        assert fock.required_displacement_dim(0.0) == 20
        assert fock.required_displacement_dim(2.0) == 36

    @pytest.mark.parametrize("modulus", [0.0, 0.3, 1.0, 2.5, 3.7, 5.0])
    def test_required_dim_unchanged_up_to_five(self, modulus):
        assert fock.required_displacement_dim(modulus) == math.ceil(
            modulus * modulus + 6.0 * modulus + 20.0
        )

    def test_required_dim_grows_with_the_closed_column_tail(self):
        assert fock.required_displacement_dim(8.0) == 138
        assert fock.required_displacement_dim(10.0j) == 190

    @pytest.mark.parametrize("modulus", [0.5, 3.0, 6.0, 8.0, 10.0, 14.0])
    def test_required_dim_bounds_tail_of_both_columns(self, modulus):
        # Poisson tail of |D|0>|^2 plus that of |D|1>|^2 = p_n (n - r^2)^2 / r^2
        dim = fock.required_displacement_dim(modulus)
        r_sq = modulus * modulus

        def tail(start):
            n = np.arange(start, 4 * dim)
            log_p = -r_sq + n * math.log(r_sq) - np.array([math.lgamma(k + 1.0) for k in n])
            return np.sum(np.exp(log_p) * (1.0 + (n - r_sq) ** 2 / r_sq))

        assert tail(dim) <= 1e-13
        floor = math.ceil(r_sq + 6.0 * modulus + 20.0)
        assert dim == floor or tail(dim - 1) > 1e-13


class TestDisplacedNumberStates:
    def test_zero_displacement_gives_basis_ket(self):
        np.testing.assert_array_equal(fock.displaced_columns(0.0, 24)[1], basis_ket(1, 24))

    def test_displaced_vacuum_is_coherent_vector(self):
        column = fock.displaced_columns(1.0, 64)[0]
        assert np.abs(column - coherent_coefficients(1.0, 64)).max() <= 1e-10

    def test_displaced_one_matches_shifted_creator(self):
        # D a^dag D^dag = a^dag - conj(alpha), so D|1> = (a^dag - conj(alpha)) D|0>
        alpha = 1.0
        dim = 64
        coherent = fock.displaced_columns(alpha, dim)[0]
        expected = (fock.boson_annihilator(dim).conj().T - np.conj(alpha) * np.eye(dim)) @ coherent
        column = fock.displaced_columns(alpha, dim)[1]
        assert np.abs(column - expected).max() <= 1e-9

    @pytest.mark.parametrize("alpha,m", [(0.7, 0), (1.1 - 0.4j, 1)])
    def test_normalized(self, alpha, m):
        column = fock.displaced_columns(alpha, 64)[m]
        assert abs(np.vdot(column, column).real - 1.0) <= 1e-10

    def test_guard_violation_carries_required_dim(self):
        with pytest.raises(TruncationError) as excinfo:
            fock.displaced_columns(8.0, 132)
        assert excinfo.value.required_dim == 138

    @pytest.mark.parametrize("alpha", [8.0, -5.0 + 6.0j, 7.5j])
    def test_vacuum_column_is_exact_where_spectral_route_drifts(self, alpha):
        dim = fock.required_displacement_dim(alpha)
        closed = fock.displaced_columns(alpha, dim)[0]
        expected = coherent_coefficients(alpha, dim)
        assert np.abs(closed - expected).max() <= 1e-13

    def test_large_displacement_does_not_underflow(self):
        # e^{-|alpha|^2/2} alone underflows to 0 at |alpha| = 40
        alpha = 40.0 * np.exp(0.3j)
        dim = fock.required_displacement_dim(alpha)
        for m in (0, 1):
            coeffs = fock.displaced_columns(alpha, dim)[m]
            assert np.all(np.isfinite(coeffs))
            assert abs(np.vdot(coeffs, coeffs).real - 1.0) <= 1e-12
        vacuum = fock.displaced_columns(alpha, dim)[0]
        # Poisson weights with integer mean 1600 peak at 1599 and 1600 alike
        assert np.argmax(np.abs(vacuum)) in (1599, 1600)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=12.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_closed_columns_orthonormal_and_eigen(self, modulus, phase):
        alpha = complex(modulus * math.cos(phase), modulus * math.sin(phase))
        dim = fock.required_displacement_dim(alpha)
        d0 = fock.displaced_columns(alpha, dim)[0]
        d1 = fock.displaced_columns(alpha, dim)[1]
        assert abs(np.vdot(d0, d0).real - 1.0) <= 1e-12
        assert abs(np.vdot(d1, d1).real - 1.0) <= 1e-12
        assert abs(np.vdot(d0, d1)) <= 1e-12
        keep = dim - fock.GUARD_BAND
        lowered = fock.boson_annihilator(dim) @ d0
        assert np.abs(lowered - alpha * d0)[:keep].max() <= 1e-12 * max(1.0, abs(alpha))


class TestUndisplacedColumns:
    """alpha = 0 displaces nothing, so the guard's dim >= 20 does not apply."""

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_zero_alpha_gives_basis_columns_at_small_dim(self, dim):
        for m in (0, 1):
            np.testing.assert_array_equal(fock.displaced_columns(0, dim)[m], basis_ket(m, dim))

    @pytest.mark.parametrize("dim", [2, 8])
    def test_zero_alpha_operator_is_identity_at_small_dim(self, dim):
        np.testing.assert_array_equal(fock.displacement_operator(0, dim), np.eye(dim))

    def test_one_level_rejected(self):
        with pytest.raises(InvalidDimensionError):
            fock.displaced_columns(0, 1)


class TestHugeDisplacementGuard:
    """The refusal costs O(dim) whatever |alpha|, and names the dim it needs."""

    @pytest.fixture
    def scanned_levels(self, monkeypatch):
        spans = []
        original = fock._log_coherent_moduli

        def recording(modulus, start, stop):
            spans.append(stop - start)
            return original(modulus, start, stop)

        monkeypatch.setattr(fock, "_log_coherent_moduli", recording)
        return spans

    @pytest.mark.parametrize(
        "alpha,named",
        [
            (1000.0, "dim >= 1006020,"),
            (1e154, "dim >= 1.000e+308,"),
            (1e200, "dim >= 1.000e+400,"),
            (complex(1.7e308, 1.7e308), "dim >= 5.780e+616,"),
        ],
    )
    def test_refusal_scans_nothing_and_names_dim(self, scanned_levels, alpha, named):
        with pytest.raises(TruncationError) as excinfo:
            fock.ensure_displacement_dim(alpha, 64)
        assert named in str(excinfo.value)
        assert excinfo.value.required_dim > 64
        assert scanned_levels == []

    @pytest.mark.parametrize("dim", [64, 100, 132])
    def test_scan_names_the_exact_dim_over_o_dim_levels(self, scanned_levels, dim):
        # |alpha| = 8: floor 132, the closed-column tail needs 138
        with pytest.raises(TruncationError) as excinfo:
            fock.ensure_displacement_dim(8.0, dim)
        assert excinfo.value.required_dim == 138
        assert f"dim >= 138, got {dim}" in str(excinfo.value)
        assert max(scanned_levels) <= 6 * 8 + 61

    def test_tail_scan_is_o_alpha(self, scanned_levels):
        # the crossing sits about 1.9 |alpha| past the floor
        dim = fock.required_displacement_dim(1000.0)
        assert 1006020 < dim < 1006020 + 2000
        assert scanned_levels == [6 * 1000 + 61]


def _full_window_required_dim(alpha):
    """The tail scan over every level floor..2*floor, the reference for the O(|alpha|) window."""
    a = abs(alpha)
    floor = math.ceil(a * a + 6.0 * a + 20.0)
    if a == 0:
        return floor
    moduli = np.exp(fock._log_coherent_moduli(a, floor - 1, 2 * floor))
    shifted = np.sqrt(np.arange(floor, 2.0 * floor)) * moduli[:-1] - a * moduli[1:]
    tails = np.cumsum((moduli[1:] ** 2 + shifted**2)[::-1])[::-1]
    return floor + int(np.argmax(tails <= fock.DISPLACED_TAIL_TOL))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=60.0), st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_windowed_tail_scan_matches_full_scan(modulus, phase):
    alpha = complex(modulus * math.cos(phase), modulus * math.sin(phase))
    assert fock.required_displacement_dim(alpha) == _full_window_required_dim(alpha)


class TestColumnMemo:
    """displaced_columns memoises per exact (Re alpha, Im alpha, dim) bits."""

    @pytest.mark.parametrize("x", [0.5, -1.3, 2.0])
    @pytest.mark.parametrize("first_sign", [1.0, -1.0])
    def test_signed_zero_keys_match_cold_calls(self, x, first_sign):
        dim = 40
        cold = {}
        for sign in (1.0, -1.0):
            fock._memoised_columns.cache_clear()
            cold[sign] = [col.tobytes() for col in fock.displaced_columns(complex(x, sign * 0.0), dim)]
        fock._memoised_columns.cache_clear()
        for sign in (first_sign, -first_sign, first_sign):
            warm = [col.tobytes() for col in fock.displaced_columns(complex(x, sign * 0.0), dim)]
            assert warm == cold[sign]

    def test_cached_columns_reject_writes(self):
        d0, d1 = fock.displaced_columns(1.2 - 0.3j, 40)
        for column in (d0, d1, *fock.displaced_columns(0, 4)):
            with pytest.raises(ValueError):
                column[0] = 7.0
        again = fock.displaced_columns(1.2 - 0.3j, 40)
        assert again[0] is d0 and again[1] is d1

    def test_memo_is_bounded(self):
        for k in range(40):
            fock.displaced_columns(0.01 * (k + 1), 24)
        assert fock._memoised_columns.cache_info().currsize <= fock._memoised_columns.cache_info().maxsize


class TestLogFactorialTable:
    """The closed columns read lgamma(n + 1), n < dim, from one table per dim."""

    def test_registered_as_a_memo(self):
        from conftest import MEMOS

        assert fock._log_factorials in MEMOS

    @pytest.mark.parametrize("dim", [1, 2, 64, 513, 4096])
    def test_table_is_lgamma_bit_for_bit(self, dim):
        table = fock._log_factorials(dim)
        assert table.shape == (dim,) and not table.flags.writeable
        assert [value.hex() for value in table.tolist()] == [
            math.lgamma(n + 1.0).hex() for n in range(dim)
        ]
        assert fock._log_factorials(dim) is table

    @pytest.mark.parametrize("alpha", [0.3 - 1.1j, 4.0, -2.5 + 2.5j, 1e-300])
    def test_columns_match_the_untabled_moduli(self, alpha):
        dim = 96
        tabled = fock._log_coherent_moduli(abs(alpha), 0, dim, fock._log_factorials(dim))
        assert tabled.tobytes() == fock._log_coherent_moduli(abs(alpha), 0, dim).tobytes()

    def test_one_table_per_dim(self):
        for k in range(5):
            for dim in (40, 72):
                fock.displaced_columns(0.25 * (k + 1), dim)
        info = fock._log_factorials.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    def test_refused_displacement_builds_no_table(self, run_cli):
        # the guard's tail scan runs past the floor |alpha|^2 + 6 |alpha| + 20,
        # far past dim, and keeps its own lgamma window
        code, out, err = run_cli(
            ["coherent", "--alpha-re=30000", "--theta=1", "--zeta-re=1", "--dim", "100000"]
        )
        assert (code, out) == (2, "")
        assert "needs dim >=" in err
        assert fock._log_factorials.cache_info().currsize == 0


class TestOracleColumnMemo:
    """oracle_columns memoises the dense D's first two columns per exact (Re alpha, Im alpha, dim) bits."""

    ALPHAS = (verify._ALGEBRA_ALPHA, *verify._EIGEN_ALPHAS)

    @pytest.mark.parametrize("dim", [36, 64, 128])
    def test_columns_are_the_dense_oracle_bit_for_bit(self, dim):
        for alpha in self.ALPHAS:
            columns = fock.oracle_columns(alpha, dim)
            assert columns.shape == (dim, 2)
            assert columns.tobytes() == fock.displacement_operator(alpha, dim)[:, 0:2].tobytes()

    def test_cached_columns_reject_writes_and_repeat(self):
        columns = fock.oracle_columns(1.2 - 0.3j, 40)
        with pytest.raises(ValueError):
            columns[0, 0] = 7.0
        assert fock.oracle_columns(1.2 - 0.3j, 40) is columns

    def test_a_miss_runs_the_dense_oracle_once(self, monkeypatch):
        calls = []
        dense = fock.displacement_operator
        monkeypatch.setattr(fock, "displacement_operator", lambda alpha, dim: calls.append((alpha, dim)) or dense(alpha, dim))
        for _ in range(3):
            fock.oracle_columns(0.9 + 0.4j, 48)
        assert calls == [(0.9 + 0.4j, 48)]

    def test_signed_zero_keys_are_distinct(self):
        plus = fock.oracle_columns(complex(0.5, 0.0), 24)
        minus = fock.oracle_columns(complex(0.5, -0.0), 24)
        assert plus is not minus
        assert fock._memoised_oracle_columns.cache_info().currsize == 2
        assert fock.oracle_columns(complex(0.5, 0.0), 24) is plus
        assert fock.oracle_columns(complex(0.5, -0.0), 24) is minus

    def test_memo_holds_four_amplitudes_at_four_dims(self):
        assert fock._memoised_oracle_columns.cache_info().maxsize >= 16
        for k in range(40):
            fock.oracle_columns(0.01 * (k + 1), 24)
        assert fock._memoised_oracle_columns.cache_info().currsize <= fock._memoised_oracle_columns.cache_info().maxsize

    def test_dense_operator_stays_fresh_full_and_writable(self):
        fock.oracle_columns(1.2 - 0.3j, 40)
        first = fock.displacement_operator(1.2 - 0.3j, 40)
        second = fock.displacement_operator(1.2 - 0.3j, 40)
        assert first.shape == (40, 40)
        assert first is not second and not np.shares_memory(first, second)
        first[0, 0] = 7.0
        assert second[0, 0] != 7.0


class TestArrayOwnership:
    def test_fock_vector_copies_caller_array(self):
        coeffs = np.array([0.6, 0.8j])
        vec = fock.FockVector(coeffs)
        coeffs[0] = 5.0
        assert vec.coeffs[0] == 0.6
        assert coeffs.flags.writeable
