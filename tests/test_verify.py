import cmath
import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from superq import moebius, uncertainty, verify
from superq.entanglement import concurrence_gram, concurrence_superqubit
from superq.errors import TruncationError
from superq.fock import GUARD_BAND, required_displacement_dim
from superq.moebius import ExtendedComplex, _grid_phases
from superq.serialize import dumps
from superq.superstate import (
    BlockOperator,
    CoherentParams,
    SuperQubitParams,
    SuperVector,
    _displace_low_levels,
    _norms,
    _super_qubit_grid,
    _undisplaced,
    commutator_suite,
    flip_state,
    pole_probabilities,
    super_annihilation,
    super_annihilation_transposed,
    super_coherent_state,
    super_qubit_state,
)
from superq.uncertainty import _quadrature_stats, quadrature_operators, quadrature_stats_numeric
from superq.verify import SUITE_NAMES, Check, VerificationReport, required_suite_dim, run_verify

from conftest import guarded_norm, rebind


# Every check of a default ``verify --suite all`` report, in order, with its tolerance.
ALL_INVENTORY = [
    ("commutator_number_lowering", 1e-10),
    ("commutator_number_raising", 1e-10),
    ("commutator_ladder", 1e-10),
    ("flip_involution", 0.0),
    ("flip_transposes_annihilation", 0.0),
    ("super_number_tensor_split", 0.0),
    ("flip_conjugates_fermion_number", 0.0),
    ("creation_gate_raises_vacuum", 1e-12),
    ("flip_commutes_with_displacement", 1e-12),
    ("quadrature_hermiticity", 1e-14),
    ("quadrature_canonical_commutator", 1e-12),
    ("reference_annihilation", 1e-10),
    ("coherent_eigenrelation", 1e-8),
    ("flipped_coherent_eigenrelation", 1e-8),
    ("closed_coherent_columns_vs_truncated_displacement", 1e-8),
    ("n_state_concurrence_closed_vs_gram", 1e-10),
    ("n_state_concurrence_n_independence", 1e-12),
    ("superqubit_concurrence_closed_vs_gram", 1e-10),
    ("alpha_invariance_of_concurrence", 1e-8),
    ("flip_invariance_of_concurrence", 1e-12),
    ("gram_purity_identity", 1e-10),
    ("density_rank_bound", 1e-10),
    ("spectral_entropy_matches_closed_form", 1e-9),
    ("entropy_pole_values", 0.0),
    ("geometric_concurrence_identity", 1e-12),
    ("pole_probability_identity", 1e-12),
    ("mean_quadratures_closed_vs_matrix", 1e-8),
    ("variance_quadratures_closed_vs_matrix", 1e-8),
    ("variance_alpha_independence", 1e-8),
    ("symmetric_point_variance_equality_closed", 1e-12),
    ("symmetric_point_variance_equality_numeric", 1e-8),
    ("five_eighths_point_closed", 1e-15),
    ("five_eighths_point_numeric", 1e-8),
    ("variance_floor_on_symmetric_family", 1e-10),
    ("golden_point_variance", 1e-14),
    *((f"fibonacci_record[n={n}]", 1e-8) for n in range(3, 21)),
    ("fibonacci_circle_sign_alternation", 0.0),
    ("fibonacci_dispersion_monotone_convergence", 0.0),
    ("golden_gap_at_n20", 1e-7),
]


def nan_number_lowering(monkeypatch):
    """Make every commutator_suite call in verify report a NaN number_lowering residual."""
    real = verify.commutator_suite

    def patched(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), number_lowering=math.nan)

    monkeypatch.setattr(verify, "commutator_suite", patched)


class TestRunVerify:
    def test_all_suites_pass_at_default_settings(self):
        report = run_verify("all", dim=48, n_max=12)
        failed = [check.name for check in report.checks if not check.passed]
        assert failed == []
        assert report.all_passed
        assert report.passed == report.total

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_individual_suites(self, suite):
        report = run_verify(suite, dim=48, n_max=8)
        assert report.all_passed, [c.name for c in report.checks if not c.passed]
        assert report.suite == suite

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_verify("spectra")

    def test_guard_violation_propagates(self):
        # the eigen amplitudes need dim >= 36
        with pytest.raises(TruncationError):
            run_verify("eigen", dim=16)

    def test_deterministic_given_seed(self):
        first = run_verify("entangle", dim=32, seed=99)
        second = run_verify("entangle", dim=32, seed=99)
        assert first.checks == second.checks

    def test_impossible_tolerance_reports_failures(self):
        report = run_verify("uncertainty", dim=48, tol=1e-30)
        assert not report.all_passed
        assert report.passed < report.total
        # pinned structural identities are not affected by tol
        by_name = {check.name: check for check in report.checks}
        assert by_name["golden_point_variance"].tolerance == 1e-14

    def test_eigen_check_inventory(self):
        report = run_verify("eigen", dim=48)
        assert [check.name for check in report.checks] == [
            "reference_annihilation",
            "coherent_eigenrelation",
            "flipped_coherent_eigenrelation",
            "closed_coherent_columns_vs_truncated_displacement",
        ]
        columns = report.checks[-1]
        assert columns.tolerance == report.tol
        assert 0.0 < columns.residual <= 1e-10

    @pytest.mark.parametrize("dim", [36, 64])
    def test_all_suites_check_inventory(self, dim):
        report = run_verify("all", dim=dim)
        assert [(check.name, check.tolerance) for check in report.checks] == ALL_INVENTORY
        assert report.all_passed

    def test_fibonacci_check_inventory(self):
        report = run_verify("fibonacci", n_max=20)
        names = [check.name for check in report.checks]
        assert names[:18] == [f"fibonacci_record[n={n}]" for n in range(3, 21)]
        assert "fibonacci_circle_sign_alternation" in names
        assert "fibonacci_dispersion_monotone_convergence" in names
        assert "golden_gap_at_n20" in names
        assert len(names) == 21

    @pytest.mark.parametrize("n_max", [45, 200])
    def test_fibonacci_ladder_properties_hold_at_any_depth(self, n_max):
        # from n ~ 40 on, the radii and the gaps sit within float rounding of
        # their golden limits; the sign and the gap order are decided exactly
        report = run_verify("fibonacci", dim=64, n_max=n_max)
        by_name = {check.name: check for check in report.checks}
        assert by_name["fibonacci_circle_sign_alternation"].residual == 0.0
        assert by_name["fibonacci_dispersion_monotone_convergence"].residual == 0.0
        assert report.all_passed, [c.name for c in report.checks if not c.passed]

    @pytest.mark.parametrize("seed", [12345, 7])
    @pytest.mark.parametrize("dim", [64, 128, 512])
    def test_spectral_entropy_reads_rounding_only(self, dim, seed):
        # rho's two eigenvalues come from its (dim, 2) factor; a dense eigvalsh
        # adds a -lam log2 lam term for each rounding-level eigenvalue above 1e-16
        report = run_verify("entangle", dim=dim, seed=seed)
        by_name = {check.name: check for check in report.checks}
        assert by_name["spectral_entropy_matches_closed_form"].residual <= 1e-14

    def test_payload_is_consistent(self):
        report = run_verify("algebra", dim=32)
        payload = report.to_payload()
        assert payload["suite"] == "algebra"
        assert payload["summary"]["total"] == len(payload["checks"])
        assert payload["summary"]["passed"] == sum(
            1 for check in payload["checks"] if check["pass"]
        )
        for check in payload["checks"]:
            assert check["pass"] == (check["residual"] <= check["tolerance"])

    def test_suites_run_in_table_order(self):
        report = run_verify("all", dim=36, n_max=5)
        assert SUITE_NAMES == ("algebra", "eigen", "entangle", "uncertainty", "fibonacci")
        assert list(report.timings_ms) == list(SUITE_NAMES)
        assert report.checks[0].name == "commutator_number_lowering"
        assert report.checks[-1].name == "fibonacci_dispersion_monotone_convergence"

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_dispatch_calls_the_module_suite_function(self, suite, monkeypatch):
        # the suite function is looked up on each run, so rebinding it (as a
        # profiler wrapping ``verify._suite_*`` does) takes effect; every
        # suite takes (dim, tol, seed, n_max)
        seen = []

        def replacement(*args):
            seen.append(args)
            return [verify.Check("stub", 0.0, 0.0)]

        monkeypatch.setattr(verify, f"_suite_{suite}", replacement)
        report = run_verify(suite, dim=48, tol=1e-9, seed=5, n_max=7)
        assert [check.name for check in report.checks] == ["stub"]
        assert seen == [(48, 1e-9, 5, 7)]

    @pytest.mark.parametrize(
        "suite,kwargs,message",
        [
            ("all", {"tol": 0.0}, "tol must be positive and finite, got 0.0"),
            ("all", {"tol": math.nan}, "tol must be positive and finite, got nan"),
            ("all", {"tol": math.inf}, "tol must be positive and finite, got inf"),
            ("all", {"tol": -1e-8}, "tol must be positive and finite, got -1e-08"),
            ("all", {"seed": -1}, "seed must be >= 0, got -1"),
            ("fibonacci", {"seed": -1}, "seed must be >= 0, got -1"),
            ("all", {"n_max": 2}, "n_max must be >= 3, got 2"),
            ("fibonacci", {"n_max": 2}, "n_max must be >= 3, got 2"),
        ],
    )
    def test_invalid_parameters_rejected(self, suite, kwargs, message, monkeypatch):
        calls = []
        for name in SUITE_NAMES:
            monkeypatch.setattr(verify, f"_suite_{name}", lambda *args, _name=name: calls.append(_name) or [])
        with pytest.raises(ValueError) as info:
            run_verify(suite, dim=48, **kwargs)
        assert str(info.value) == message
        assert calls == []


class TestSuiteDimFloor:
    @pytest.mark.parametrize("suite", ("all",) + SUITE_NAMES)
    def test_floor_is_the_smallest_dim_that_runs(self, suite):
        floor = required_suite_dim(suite)
        report = run_verify(suite, dim=floor, n_max=5)
        assert report.total > 0
        with pytest.raises(TruncationError) as info:
            run_verify(suite, dim=floor - 1, n_max=5)
        assert info.value.required_dim == floor
        assert str(info.value) == f"suite {suite!r} needs dim >= {floor}, got {floor - 1}"

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_floor_is_tight(self, suite, monkeypatch):
        floor = required_suite_dim(suite)
        monkeypatch.setattr(verify, "required_suite_dim", lambda name: 2)
        with pytest.raises(ValueError):
            run_verify(suite, dim=floor - 1, n_max=5)

    @pytest.mark.parametrize("dim", (2, 8, 9, 20))
    def test_algebra_below_floor_names_it(self, dim):
        with pytest.raises(TruncationError, match=f"needs dim >= {required_suite_dim('algebra')}"):
            run_verify("algebra", dim=dim)

    def test_all_needs_every_suite(self):
        assert required_suite_dim("all") == max(map(required_suite_dim, SUITE_NAMES))

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite 'spectra'"):
            required_suite_dim("spectra")


def canonical_commutator(dim):
    """quadrature_canonical_commutator's residual, as the algebra suite computes it, on the bands alone."""
    x_op, p_op = quadrature_operators(dim)
    return (x_op @ p_op - p_op @ x_op - BlockOperator.fermion_diagonal(1j, 1j, dim)).max_abs(GUARD_BAND)


def number_lowering(dim):
    """commutator_number_lowering's residual: the worst over the suite's labels and the pole."""
    return max(commutator_suite(zeta, dim).number_lowering for zeta in (*verify._ZETAS, ExtendedComplex.infinity()))


class TestAlgebraAtLargeDims:
    """The algebra suite's banded residuals past the dims tier-1 runs a report at (ROADMAP item 10).

    Each stored entry of X and P is fl(fl(sqrt n) * fl(1/sqrt2)), and the
    residuals grow as n * eps on the guarded levels.  The dense matrices of
    a whole report take ~340 MB at dim 2304, so these compute the two banded
    residuals alone, in O(dim).
    """

    def test_the_banded_residuals_are_the_reports(self):
        residuals = {check.name: check.residual for check in run_verify("algebra", dim=64).checks}
        assert residuals["quadrature_canonical_commutator"] == canonical_commutator(64)
        assert residuals["commutator_number_lowering"] == number_lowering(64)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10: reads 1.36e-12 against its tolerance 1e-12")
    def test_canonical_commutator_holds_at_dim_2304(self):
        tolerances = {check.name: check.tolerance for check in run_verify("algebra", dim=36).checks}
        assert canonical_commutator(2304) <= tolerances["quadrature_canonical_commutator"]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10: reads 1.16e-10 against its tolerance 1e-10")
    def test_number_lowering_holds_at_dim_8192(self):
        tolerances = {check.name: check.tolerance for check in run_verify("algebra", dim=36).checks}
        assert number_lowering(8192) <= tolerances["commutator_number_lowering"]


class TestNonFiniteResiduals:
    def test_nan_residual_fails_its_check(self, monkeypatch):
        nan_number_lowering(monkeypatch)
        report = run_verify("algebra", 36)
        failed = [check.name for check in report.checks if not check.passed]
        assert failed == ["commutator_number_lowering"]
        assert math.isnan(report.checks[0].residual)
        assert not report.all_passed
        assert math.isnan(report.max_residual)

    @pytest.mark.parametrize("field", ["number_lowering", "number_raising", "ladder"])
    @pytest.mark.parametrize("at_pole", [False, True], ids=["first_zeta", "pole"])
    def test_nan_at_one_zeta_fails_only_its_check(self, monkeypatch, field, at_pole):
        # The suite reduces every zeta's residuals to their max with 0.0,
        # where the builtin max would drop a NaN; the pole is the last zeta.
        real = verify.commutator_suite
        first = verify._ZETAS[0]

        def patched(zeta, *args, **kwargs):
            residuals = real(zeta, *args, **kwargs)
            hit = zeta.is_infinite if at_pole else zeta == first
            return dataclasses.replace(residuals, **{field: math.nan}) if hit else residuals

        monkeypatch.setattr(verify, "commutator_suite", patched)
        report = run_verify("algebra", 36)
        failed = [check for check in report.checks if not check.passed]
        assert [check.name for check in failed] == [f"commutator_{field}"]
        assert math.isnan(failed[0].residual)

    @pytest.mark.parametrize("position", [0, -1], ids=["first_entry", "last_entry"])
    @pytest.mark.parametrize(
        "kernel, suite, readers",
        [
            (
                "_norms",
                "eigen",
                {"reference_annihilation", "coherent_eigenrelation", "flipped_coherent_eigenrelation"},
            ),
            (
                "_concurrence",
                "entangle",
                {
                    "superqubit_concurrence_closed_vs_gram",
                    "alpha_invariance_of_concurrence",
                    "flip_invariance_of_concurrence",
                },
            ),
        ],
    )
    def test_nan_in_a_stacked_residual_fails_the_checks_reading_it(
        self, monkeypatch, kernel, suite, readers, position
    ):
        # Each call of the stacked kernel verify reads returns a NaN at one end
        # of its stack; the builtin max keeps a NaN only in first place.
        real = getattr(verify, kernel)

        def patched(*args):
            values = np.array(real(*args))
            values[position] = math.nan
            return values

        monkeypatch.setattr(verify, kernel, patched)
        failed = [check for check in run_verify(suite, 36).checks if not check.passed]
        assert {check.name for check in failed} == readers
        assert all(math.isnan(check.residual) for check in failed)

    def test_nan_residual_serializes_as_null(self, monkeypatch):
        nan_number_lowering(monkeypatch)
        payload = json.loads(dumps(run_verify("algebra", 36).to_payload()))
        assert payload["checks"][0]["residual"] is None
        assert payload["checks"][0]["pass"] is False
        assert payload["summary"]["max_residual"] is None
        assert all(check["residual"] is not None for check in payload["checks"][1:])

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_max_residual_sees_a_non_finite_residual_anywhere(self, position, bad):
        residuals = [0.5, 0.25, 0.75]
        residuals[position] = bad
        checks = tuple(Check(f"c{i}", r, 1.0) for i, r in enumerate(residuals))
        report = VerificationReport("algebra", 36, 1e-8, 1, 20, checks, 0.0, {})
        if math.isnan(bad):
            assert math.isnan(report.max_residual)
        else:
            assert report.max_residual == math.inf
        assert report.passed == 2
        assert report.to_payload()["summary"]["max_residual"] is None
        assert report.to_payload()["checks"][position]["residual"] is None

    def test_max_residual_of_no_checks_is_zero(self):
        report = VerificationReport("fibonacci", 36, 1e-8, 1, 20, (), 0.0, {})
        assert report.max_residual == 0.0


def bits(stats):
    """The fields of a QuadratureStats as exact float text, so -0.0 and 0.0 differ."""
    return [value.hex() for value in dataclasses.astuple(stats)]


# the pole, huge and tiny moduli, or a modulus log-uniform in [0.25, 4] with a uniform phase
ZETAS = st.one_of(
    st.sampled_from(
        [ExtendedComplex.infinity(), ExtendedComplex.from_value(1e300), ExtendedComplex.from_value(-1e-300j)]
    ),
    st.builds(
        lambda log_modulus, phase: ExtendedComplex.from_value(cmath.rect(math.exp(log_modulus), phase)),
        st.floats(math.log(0.25), math.log(4.0)),
        st.floats(0.0, 2.0 * math.pi),
    ),
)


class TestBatchedSuites:
    """The suites evaluate each angle grid as one stack of the CLI's own states."""

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.builds(complex, st.floats(-1.4, 1.4), st.floats(-1.4, 1.4)),
        zeta=ZETAS,
        dim=st.integers(36, 256),
    )
    def test_stacks_are_the_cli_states_bit_for_bit(self, alpha, zeta, dim):
        assume(alpha != 0 and required_displacement_dim(alpha) <= dim)
        low = _super_qubit_grid(verify._THETAS, *_grid_phases(verify._THETAS, verify._PHIS), [zeta])
        reference = _undisplaced(low, dim)
        coherent = _displace_low_levels(alpha, low, dim)
        flipped = coherent[:, ::-1]
        a_op, at_op = super_annihilation(zeta, dim), super_annihilation_transposed(zeta, dim)
        applied, flip_applied = a_op.apply_coeffs(coherent), at_op.apply_coeffs(flipped)
        keep = dim - GUARD_BAND
        norms, guarded = _norms(coherent), _norms((applied - alpha * coherent)[..., :keep])
        grams = verify._concurrences(reference[:, ::-1])
        moments = _quadrature_stats(coherent)
        for k, (theta, phi) in enumerate(verify._ANGLES):
            params = CoherentParams(alpha, SuperQubitParams(theta, phi, zeta))
            state = super_coherent_state(params, dim)
            flip = flip_state(state)
            base = super_qubit_state(params.base, dim)
            assert reference[k].tobytes() == base.coeffs.tobytes()
            assert coherent[k].tobytes() == state.coeffs.tobytes()
            assert flipped[k].tobytes() == flip.coeffs.tobytes()
            assert applied[k].tobytes() == a_op.apply(state).coeffs.tobytes()
            assert flip_applied[k].tobytes() == at_op.apply(flip).coeffs.tobytes()
            assert norms[k] == state.norm()
            residual = a_op.apply(state) - alpha * state
            assert guarded[k] == SuperVector(residual.coeffs[:, :keep]).norm()
            assert grams[k] == concurrence_gram(flip_state(base))
            assert bits(moments[k]) == bits(quadrature_stats_numeric(params, dim))

    @pytest.mark.parametrize("dim", [32, 64])
    def test_entangle_grid_checks_equal_the_per_state_functions(self, dim):
        # each stacked residual is the one the per-state functions give, bit for bit
        superqubit = probability = alpha_drift = flip_drift = 0.0
        for zeta in verify._ZETAS:
            for theta, phi in verify._ANGLES:
                state = super_qubit_state(SuperQubitParams(theta, phi, zeta), dim)
                p0, p1 = pole_probabilities(state, zeta)
                superqubit = max(superqubit, abs(concurrence_gram(state) - concurrence_superqubit(theta, zeta)))
                probability = max(
                    probability,
                    abs(p0 - math.cos(0.5 * theta) ** 2),
                    abs(p1 - math.sin(0.5 * theta) ** 2),
                )
            for theta, phi in verify._HALF_ANGLES:
                params = CoherentParams(verify._ENTANGLE_ALPHA, SuperQubitParams(theta, phi, zeta))
                state = super_qubit_state(params.base, dim)
                displaced = concurrence_gram(super_coherent_state(params, dim))
                alpha_drift = max(alpha_drift, abs(displaced - concurrence_gram(state)))
                flip_drift = max(flip_drift, abs(concurrence_gram(flip_state(state)) - concurrence_gram(state)))
        residuals = {check.name: check.residual for check in run_verify("entangle", dim).checks}
        assert residuals["superqubit_concurrence_closed_vs_gram"] == superqubit
        assert residuals["pole_probability_identity"] == probability
        assert residuals["alpha_invariance_of_concurrence"] == alpha_drift > 0.0
        assert residuals["flip_invariance_of_concurrence"] == flip_drift

    def test_eigen_suite_builds_only_its_builder_rows_and_displaces_each_grid_once(self, monkeypatch):
        built, displaced = [], Counter()
        post_init = SuperVector.__post_init__
        displace = verify._displace_low_levels

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        def counting_displace(alpha, low, dim):
            displaced[alpha, low.shape] += 1
            return displace(alpha, low, dim)

        monkeypatch.setattr(SuperVector, "__post_init__", counting_post_init)
        monkeypatch.setattr(verify, "_displace_low_levels", counting_displace)
        assert run_verify("eigen", dim=48).all_passed
        # per zeta one super_qubit_state, and per alpha one super_coherent_state
        # and one flip_state of it
        assert len(built) == len(verify._ZETAS) * (1 + 2 * len(verify._EIGEN_ALPHAS))
        assert displaced == {(alpha, (25, 2, 2)): 5 for alpha in verify._EIGEN_ALPHAS}

    def test_each_suite_computes_each_angle_grids_phases_once(self, monkeypatch):
        calls = []
        phases = moebius._grid_phases

        def counting_phases(thetas, phis):
            calls.append((tuple(thetas), tuple(phis)))
            return phases(thetas, phis)

        assert rebind(monkeypatch, phases, counting_phases) >= 1
        assert run_verify("all", dim=64).all_passed
        # eigen: the 5 x 5 grid; entangle: the 5 x 5 grid and its stride-2 half;
        # uncertainty: the stride-2 half and the 5 x 1 symmetric column;
        # fibonacci: the ladder's one point
        full, half = (verify._THETAS, verify._PHIS), (verify._THETAS[::2], verify._PHIS[::2])
        column, point = (verify._THETAS, (0.25 * math.pi,)), ((0.5 * math.pi,), (0.25 * math.pi,))
        assert calls == [full, full, half, half, column, point]

    def test_uncertainty_suite_reads_the_oracle_operators_once_per_stack(self, monkeypatch):
        calls, sizes = [], []
        operators, stats = uncertainty.quadrature_operators, verify._quadrature_stats

        def counting_stats(states):
            sizes.append(len(states))
            return stats(states)

        monkeypatch.setattr(uncertainty, "quadrature_operators", lambda dim: calls.append(dim) or operators(dim))
        # the 5/8 point reads the oracle through quadrature_stats_numeric, the uncertainty command's
        for module in (verify, uncertainty):
            monkeypatch.setattr(module, "_quadrature_stats", counting_stats)
        assert run_verify("uncertainty", dim=40).all_passed
        # 5 zetas at alpha = 0 and displaced, 5 symmetric stacks, the 5/8 point
        assert calls == [40] * len(sizes) == [40] * (5 * 2 + 5 + 1)
        # 45 points at alpha = 0 and displaced, 25 symmetric points, the 5/8 point
        assert sum(sizes) == 45 * 2 + 25 + 1

    def test_fibonacci_suite_builds_each_record_once(self, monkeypatch):
        # one ladder call, one banded X and P apply for its 18 states
        ladders, calls = [], []
        ladder, operators = verify.fibonacci_ladder, uncertainty.quadrature_operators
        monkeypatch.setattr(
            verify, "fibonacci_ladder", lambda n_max, dim: ladders.append((n_max, dim)) or ladder(n_max, dim)
        )
        monkeypatch.setattr(uncertainty, "quadrature_operators", lambda dim: calls.append(dim) or operators(dim))
        report = run_verify("fibonacci", dim=40, n_max=20)
        assert report.checks[-1].name == "golden_gap_at_n20"
        assert ladders == [(20, 40)]
        assert calls == [40]

    @pytest.mark.parametrize("n_max", [3, 20, 200])
    def test_fibonacci_numbers_are_computed_twice_per_ladder(self, monkeypatch, n_max):
        # the ladder seeds its recurrence once; the suite walks its own from F_1 = F_2 = 1
        calls = []
        number = uncertainty.fibonacci_number

        def counting(n):
            calls.append(n)
            return number(n)

        assert rebind(monkeypatch, number, counting) >= 1
        assert len(uncertainty.fibonacci_ladder(n_max, 8)) == n_max - 2
        assert calls == [1, 2]
        calls.clear()
        assert run_verify("fibonacci", dim=8, n_max=n_max).all_passed
        assert calls == [1, 2]

    @pytest.mark.parametrize("dim", [GUARD_BAND + 1, 48, 64])
    def test_eigen_gaps_read_the_levels_below_the_guard_band(self, dim):
        # the identity at alpha = 0 leaves each state as its own residual
        identity = BlockOperator.fermion_diagonal(1.0, 1.0, dim)
        states = np.random.default_rng(dim).standard_normal((4, 2, dim, 2)) @ [1.0, 1j]
        expected = [guarded_norm(SuperVector(coeffs)) / np.linalg.norm(coeffs) for coeffs in states]
        np.testing.assert_allclose(verify._eigen_gaps(identity, 0.0, states), expected, rtol=1e-14)
        top_only = np.zeros((1, 2, dim))
        top_only[0, 0, 0], top_only[0, 1, dim - 1] = 3.0, 4.0
        assert verify._eigen_gaps(identity, 0.0, top_only) == [0.6]

    def test_algebra_states_live_on_levels_0_and_1(self):
        # flip_commutes_with_displacement applies D's first two columns to psi[:2]
        for zeta in verify._ZETAS:
            state = super_qubit_state(SuperQubitParams(1.3, 0.7, zeta), 48)
            for coeffs in (state.coeffs, flip_state(state).coeffs):
                assert not coeffs[:, 2:].any()

    def test_dense_oracles_stay(self, monkeypatch):
        seen = Counter()
        for name in ("eigh", "eigvalsh", "svd"):
            real = getattr(np.linalg, name)

            def counting(a, *args, _real=real, _name=name, **kwargs):
                seen[_name, np.shape(a)] += 1
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        # one SVD of the (dim, 2) factor of rho per random state, and no eigvalsh:
        # the Gram spectra of |1, zeta> are closed forms
        per_report = {("svd", (48, 2)): 12}
        assert run_verify("all", dim=48).all_passed
        # the spectral D of the 4 amplitudes, on the first report at a dim only
        assert seen == {("eigh", (48, 48)): 4, **per_report}
        seen.clear()
        assert run_verify("all", dim=48, seed=2).all_passed
        assert seen == per_report
