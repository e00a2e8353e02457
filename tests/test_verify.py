import dataclasses
import json
import math

import pytest

from superq import verify
from superq.errors import TruncationError
from superq.serialize import dumps
from superq.verify import SUITE_NAMES, Check, VerificationReport, required_suite_dim, run_verify


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
        # profiler wrapping ``verify._suite_*`` does) takes effect
        seen = []

        def replacement(*args):
            seen.append(args)
            return [verify.Check("stub", 0.0, 0.0)]

        monkeypatch.setattr(verify, f"_suite_{suite}", replacement)
        report = run_verify(suite, dim=48, seed=5, n_max=7)
        assert [check.name for check in report.checks] == ["stub"]
        assert len(seen) == 1 and seen[0][0] == 48

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            run_verify("all", tol=0.0)
        with pytest.raises(ValueError):
            run_verify("fibonacci", n_max=2)


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


class TestNonFiniteResiduals:
    def test_nan_residual_fails_its_check(self, monkeypatch):
        nan_number_lowering(monkeypatch)
        report = run_verify("algebra", 36)
        failed = [check.name for check in report.checks if not check.passed]
        assert failed == ["commutator_number_lowering"]
        assert math.isnan(report.checks[0].residual)
        assert not report.all_passed
        assert math.isnan(report.max_residual)

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
