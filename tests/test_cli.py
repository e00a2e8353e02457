import contextlib
import csv
import dataclasses
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superq import cli, fock, uncertainty, verify
from superq.cli import FIBONACCI_HEADER, SWEEP_HEADER, main as cli_main, sweep_thetas
from superq.verify import required_suite_dim


class TestGoldenFiles:
    def test_state_json_bytes(self, run_cli, golden_dir):
        code, out, _ = run_cli(
            ["state", "--theta", "0", "--phi", "0", "--zeta-re", "1", "--zeta-im", "0", "--dim", "4"]
        )
        assert code == 0
        assert out == (golden_dir / "state_theta0_zeta1_dim4.json").read_text()

    def test_fibonacci_csv_bytes(self, run_cli, golden_dir):
        code, out, _ = run_cli(["fibonacci", "--n-max", "10", "--dim", "64"])
        assert code == 0
        assert out == (golden_dir / "fibonacci_nmax10_dim64.csv").read_text()

    @pytest.mark.parametrize(
        "name,argv",
        [
            (
                "coherent_theta1.1_alpha0.5_dim24.json",
                ["coherent", "--theta", "1.1", "--phi", "0.4", "--zeta-re", "0.8", "--zeta-im", "-0.3",
                 "--alpha-re", "0.5", "--alpha-im", "-0.2", "--dim", "24"],
            ),
            (
                "concurrence_theta2_dim4.json",
                ["concurrence", "--theta", "2.0", "--phi", "1.0", "--zeta-re", "1.5", "--zeta-im", "-0.5",
                 "--dim", "4"],
            ),
            ("entropy_zeta0.5_dim4.json", ["entropy", "--zeta-re", "0.5", "--zeta-im", "0.25", "--dim", "4"]),
            (
                "uncertainty_alpha0.3_dim24.json",
                ["uncertainty", "--theta", "1.5707963267948966", "--phi", "0.7853981633974483",
                 "--zeta-re", "1", "--alpha-re", "0.3", "--alpha-im", "0.1", "--dim", "24"],
            ),
            (
                "sweep_grid3x4_dim4.csv",
                ["sweep", "--zeta-re", "0.7", "--zeta-im", "0.2", "--grid", "3,4", "--dim", "4"],
            ),
        ],
    )
    def test_command_output_bytes(self, run_cli, golden_dir, name, argv):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out == (golden_dir / name).read_text()

    @pytest.mark.parametrize(
        "name,argv",
        [
            (
                "coherent_theta2.3_alpha-1.2_dim128.json",
                ["coherent", "--theta", "2.3", "--phi", "4", "--zeta-re=-0.7", "--zeta-im", "1.9",
                 "--alpha-re=-1.2", "--alpha-im", "0.4", "--dim", "128"],
            ),
            ("state_n2_zetainf_dim4.json", ["state", "--n", "2", "--zeta-inf", "--dim", "4"]),
            ("fibonacci_nmax90_dim64.csv", ["fibonacci", "--n-max", "90", "--dim", "64"]),
            # dim 64 takes BLAS's blocked dot products; the pole grid holds
            # T = 14, whose last theta is set to pi
            (
                "sweep_zetainf_grid14x5_dim64.csv",
                ["sweep", "--zeta-inf", "--grid", "14,5", "--dim", "64"],
            ),
            (
                "sweep_zeta0.5-1.3i_grid9x7_dim64.csv",
                ["sweep", "--zeta-re", "0.5", "--zeta-im", "-1.3", "--grid", "9,7", "--dim", "64"],
            ),
            # single-state Gram and pole sums on both sides of BLAS's
            # length-8 block: dims 7, 8 and 9
            (
                "concurrence_n3_zeta0.6-0.8i_dim8.json",
                ["concurrence", "--n", "3", "--zeta-re", "0.6", "--zeta-im=-0.8", "--dim", "8"],
            ),
            ("entropy_zeta2+0.5i_dim7.json", ["entropy", "--zeta-re", "2", "--zeta-im", "0.5", "--dim", "7"]),
            (
                "state_theta2.2_zeta0.3+1.1i_dim9.json",
                ["state", "--theta", "2.2", "--phi", "0.4", "--zeta-re", "0.3", "--zeta-im", "1.1",
                 "--dim", "9"],
            ),
        ],
    )
    def test_array_and_big_int_output_bytes(self, run_cli, golden_dir, name, argv):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out == (golden_dir / name).read_text()


class TestParserCache:
    ARGVS = [
        ["sweep", "--zeta-re", "0.7", "--grid", "3,2", "--dim", "8"],
        ["state", "--theta", "1.1", "--zeta-inf", "--dim", "4"],
        ["sweep", "--zeta-re", "0.7", "--grid", "0,2", "--dim", "8"],
        ["sweep", "--zeta-re", "0.7", "--grid"],
        ["state", "--theta", "1.1", "--dim", "4"],
        ["sweep", "--zeta-re", "0.7", "--grid", "3,2", "--dim", "8"],
    ]

    @staticmethod
    def outcomes(capsys):
        results = []
        for argv in TestParserCache.ARGVS:
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_cached_parser_gives_fresh_parser_output(self, capsys, monkeypatch):
        assert cli._build_parser() is cli._build_parser()
        cached = self.outcomes(capsys)
        assert [code for code, _, _ in cached] == [0, 0, 2, 2, 2, 0]
        assert cached[0] == cached[-1]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert cli._build_parser() is not cli._build_parser()
        assert self.outcomes(capsys) == cached


class TestStateEmission:
    def test_json_round_trips_norm(self, run_cli):
        code, out, _ = run_cli(
            [
                "state",
                "--theta", "1.1",
                "--phi", "2.3",
                "--zeta-re", "0.8",
                "--zeta-im", "-0.4",
                "--dim", "16",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        total = sum(re * re + im * im for re, im in payload["psi0"] + payload["psi1"])
        assert math.sqrt(total) == pytest.approx(payload["norm"], abs=1e-12)
        assert payload["dim"] == 16
        assert len(payload["psi0"]) == 16
        assert abs(payload["p0"] + payload["p1"] - 1.0) <= 1e-12

    def test_pole_state_example(self, run_cli):
        code, out, _ = run_cli(
            ["state", "--theta", "0", "--phi", "0", "--zeta-re", "1", "--zeta-im", "0", "--dim", "4"]
        )
        payload = json.loads(out)
        assert payload["psi0"] == [[1, 0], [0, 0], [0, 0], [0, 0]]
        assert all(pair == [0, 0] for pair in payload["psi1"])
        assert payload["norm"] == 1

    def test_zeta_inf_serialization(self, run_cli):
        code, out, _ = run_cli(["state", "--theta", "1.0", "--zeta-inf", "--dim", "8"])
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["zeta"] == "inf"
        assert payload["concurrence_closed"] == 0

    def test_n_state_emission(self, run_cli):
        code, out, _ = run_cli(["state", "--n", "2", "--zeta-re", "1", "--zeta-im", "0", "--dim", "8"])
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["n"] == 2
        assert payload["concurrence_closed"] == pytest.approx(1.0, abs=1e-12)
        assert payload["p0"] == pytest.approx(0.5, abs=1e-12)

    def test_coherent_matches_displaced_reference(self, run_cli):
        args = ["--theta", "0.9", "--phi", "0.3", "--zeta-re", "1.2", "--zeta-im", "0.5", "--dim", "48"]
        code, out, _ = run_cli(["coherent", *args, "--alpha-re", "0.7", "--alpha-im", "-0.2"])
        assert code == 0
        payload = json.loads(out)
        reference = json.loads(run_cli(["state", *args])[1])
        assert payload["concurrence_gram"] == pytest.approx(
            reference["concurrence_gram"], abs=1e-8
        )
        assert payload["params"]["alpha"] == [0.7, -0.2]
        assert payload["norm"] == pytest.approx(1.0, abs=1e-10)


    def test_guard_names_dim_where_closed_columns_lose_norm(self, run_cli):
        # at |alpha| = 8 the Poisson tail past dim 132 costs D|1> 5e-12 of its norm^2
        args = ["coherent", "--alpha-re=8", "--theta=1.0", "--zeta-re=1"]
        code, out, err = run_cli([*args, "--dim", "132"])
        assert code == 2
        assert out == ""
        assert "dim >= 138" in err
        code, out, _ = run_cli([*args, "--dim", "138"])
        assert code == 0
        assert json.loads(out)["norm"] == pytest.approx(1.0, abs=1e-12)


class TestDenseSpectralWork:
    """The production path builds displaced states without any eigh."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        original = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    @pytest.mark.parametrize("command", ["coherent", "uncertainty"])
    def test_single_state_commands_make_no_eigh_call(self, run_cli, eigh_calls, command):
        args = ["--theta=1.1", "--phi=0.4", "--zeta-re=0.8", "--zeta-im=0.3", "--alpha-re=2.1"]
        code, _, _ = run_cli([command, *args, "--alpha-im=-1.7", "--dim", "512"])
        assert code == 0
        assert eigh_calls == []

    def test_verify_report_makes_four_eigh_calls(self, run_cli, eigh_calls):
        code, _, _ = run_cli(["verify", "--suite", "all", "--dim", "48", "--n-max", "5"])
        assert code == 0
        assert len(eigh_calls) == 4


class TestClosedColumnWork:
    """Each distinct (alpha, dim) builds its closed columns once per process."""

    @pytest.fixture
    def memo(self):
        fock._memoised_columns.cache_clear()
        return fock._memoised_columns

    def test_default_verify_report_builds_each_key_once(self, run_cli, memo):
        code, _, _ = run_cli(["verify", "--suite", "all"])
        assert code == 0
        assert memo.cache_info().misses == memo.cache_info().currsize == 5

    def test_coherent_builds_once(self, run_cli, memo):
        args = ["--theta=1.1", "--phi=0.4", "--zeta-re=0.8", "--zeta-im=0.3", "--alpha-re=2.1"]
        code, _, _ = run_cli(["coherent", *args, "--alpha-im=-1.7", "--dim", "96"])
        assert code == 0
        # super_coherent_state builds; pole_probabilities displaces both poles
        # as one array, reusing the columns once
        assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 1)


def _masked_verify(out):
    payload = json.loads(out)
    del payload["summary"]["wall_time_ms"], payload["summary"]["timings_ms"]
    return payload


class TestVerifyMemoIdentity:
    def test_cold_and_warm_reports_agree(self, run_cli):
        argv = ["verify", "--suite", "all", "--dim", "40"]
        fock._memoised_columns.cache_clear()
        code, cold, _ = run_cli(argv)
        assert code == 0
        # verify's entangle suite displaces by 1.5 + 0j; these share its key
        # under complex equality but not its bits
        for alpha in (complex(1.5, -0.0), complex(-0.0, 1.5), complex(1.1, -0.6)):
            fock.displaced_columns(alpha, 40)
        code, warm, _ = run_cli(argv)
        assert code == 0
        assert _masked_verify(warm) == _masked_verify(cold)

    def test_summary_times_every_suite(self, run_cli):
        code, out, _ = run_cli(["verify", "--suite", "all", "--dim", "40", "--n-max", "5"])
        assert code == 0
        timings = json.loads(out)["summary"]["timings_ms"]
        assert list(timings) == ["algebra", "eigen", "entangle", "uncertainty", "fibonacci"]
        assert all(ms >= 0.0 for ms in timings.values())
        code, out, _ = run_cli(["verify", "--suite", "fibonacci", "--n-max", "5"])
        assert list(json.loads(out)["summary"]["timings_ms"]) == ["fibonacci"]


class TestHugeAlpha:
    @pytest.mark.parametrize(
        "alpha,named",
        [("1000", "dim >= 1006020,"), ("1e154", "dim >= 1.000e+308,"), ("1e200", "dim >= 1.000e+400,")],
    )
    @pytest.mark.parametrize("command", ["coherent", "uncertainty"])
    def test_refused_naming_the_dim(self, run_cli, command, alpha, named):
        code, out, err = run_cli(
            [command, f"--alpha-re={alpha}", "--theta", "1", "--zeta-re", "1", "--dim", "64"]
        )
        assert (code, out) == (2, "")
        assert err.startswith("superq: error: displacement by alpha") and named in err


_HUGE = [1e154, -1e200, 1.7e308, -1.7e308, 5e307]
_FLOATS = st.one_of(
    st.sampled_from(_HUGE + [0.0, -0.0, 1e-300]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
# mostly valid angles and one zeta choice, so that most argv reach the numerics
_THETAS = st.one_of(st.floats(min_value=0.0, max_value=math.pi), _FLOATS)
_ZETA_CHOICES = ["finite", "finite", "finite", "inf", "both", "none"]
_FLAGS = {
    "state": ("zeta", "angles", "n"),
    "coherent": ("zeta", "angles", "alpha"),
    "concurrence": ("zeta", "angles", "n"),
    "entropy": ("zeta",),
    "uncertainty": ("zeta", "angles", "alpha"),
    "sweep": ("zeta", "grid"),
    "fibonacci": ("n_max",),
    "verify": ("suite",),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, "--dim", str(draw(st.integers(2, 64)))]
    groups = _FLAGS[command]
    if "zeta" in groups:
        choice = draw(st.sampled_from(_ZETA_CHOICES))
        if choice in ("inf", "both"):
            argv.append("--zeta-inf")
        if choice in ("finite", "both"):
            argv.append(f"--zeta-re={draw(_FLOATS)!r}")
            if draw(st.booleans()):
                argv.append(f"--zeta-im={draw(_FLOATS)!r}")
    if "angles" in groups:
        if draw(st.integers(0, 3)):
            argv.append(f"--theta={draw(_THETAS)!r}")
        if draw(st.booleans()):
            argv.append(f"--phi={draw(_FLOATS)!r}")
    if "n" in groups and not draw(st.integers(0, 3)):
        argv.append(f"--n={draw(st.integers(-1, 70))}")
    if "alpha" in groups:
        for flag in ("--alpha-re", "--alpha-im"):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(_FLOATS)!r}")
    if "grid" in groups:
        argv.append(f"--grid={draw(st.integers(0, 4))},{draw(st.integers(0, 4))}")
    if "n_max" in groups:
        argv.append(f"--n-max={draw(st.integers(1, 12))}")
    if "suite" in groups:
        argv += ["--suite", draw(st.sampled_from(["algebra", "fibonacci", "nope"])), "--n-max=4"]
    return argv


class TestMainFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_argv())
    def test_main_exits_cleanly(self, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        out = stdout.getvalue()
        assert code in (0, 1, 2)
        if not out:
            return
        if argv[0] in ("sweep", "fibonacci"):
            rows = list(csv.reader(io.StringIO(out)))
            assert len({len(row) for row in rows}) == 1
            assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row if cell != "inf")
        else:
            json.loads(out)


class TestAnalysisCommands:
    def test_concurrence_maximal_at_south_pole(self, run_cli):
        code, out, _ = run_cli(
            ["concurrence", "--theta", "3.14159265", "--phi", "0", "--zeta-re", "1", "--zeta-im", "0"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["concurrence_closed"] == pytest.approx(1.0, abs=1e-8)
        assert payload["abs_difference"] <= 1e-10

    def test_entropy_geometry(self, run_cli):
        zeta = math.tan(math.pi / 6)
        code, out, _ = run_cli(["entropy", "--zeta-re", str(zeta), "--dim", "16"])
        assert code == 0
        payload = json.loads(out)
        assert payload["z"] == pytest.approx(0.5, abs=1e-12)
        assert payload["p0"] == pytest.approx(0.75, abs=1e-12)
        assert payload["entropy_bits_closed"] == pytest.approx(0.811278124459133, abs=1e-12)
        assert payload["entropy_bits_spectral"] == pytest.approx(
            payload["entropy_bits_closed"], abs=1e-9
        )

    def test_uncertainty_agreement(self, run_cli):
        code, out, _ = run_cli(
            [
                "uncertainty",
                "--theta", "1.0",
                "--phi", "0.5",
                "--zeta-re", "2", "--zeta-im", "0",
                "--alpha-re", "1.3", "--alpha-im", "-0.7",
                "--dim", "96",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_abs_difference"] <= 1e-8
        assert payload["closed"]["var_x"] == pytest.approx(payload["numeric"]["var_x"], abs=1e-8)


class TestSweep:
    def test_header_and_shape(self, run_cli):
        code, out, _ = run_cli(["sweep", "--zeta-re", "1", "--grid", "3,4", "--dim", "12"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 1 + 3 * 4

    def test_default_grid_size(self, run_cli):
        code, out, _ = run_cli(["sweep", "--zeta-re", "0.5", "--dim", "8"])
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 25 * 25

    def test_byte_identical_reruns(self, run_cli):
        args = ["sweep", "--zeta-re", "0.7", "--zeta-im", "0.1", "--grid", "4,5", "--dim", "16"]
        assert run_cli(args)[1] == run_cli(args)[1]

    def test_bad_grid_rejected(self, run_cli):
        code, _, err = run_cli(["sweep", "--zeta-re", "1", "--grid", "0,5", "--dim", "8"])
        assert code == 2
        assert "grid" in err

    def test_theta_grid_ends_exactly_at_pi(self):
        for t_count in range(2, 401):
            thetas = sweep_thetas(t_count)
            assert len(thetas) == t_count
            assert thetas[0] == 0.0 and thetas[-1] == math.pi
            assert all(a < b for a, b in zip(thetas, thetas[1:]))
        assert sweep_thetas(1) == [0.0]

    def test_every_grid_size_with_overshooting_last_theta_runs(self, run_cli):
        # pi * (T-1) / (T-1) rounds above pi for these T; every other T in
        # 2..400 never reaches that arithmetic (see the grid test above)
        overshooting = [t for t in range(2, 401) if math.pi * (t - 1) / (t - 1) > math.pi]
        assert 14 in overshooting and 27 in overshooting and 48 in overshooting
        for t_count in overshooting:
            code, out, err = run_cli(
                ["sweep", "--zeta-re", "1", "--grid", f"{t_count},1", "--dim", "2"]
            )
            assert code == 0, (t_count, err)
            lines = out.strip().split("\n")
            assert len(lines) == 1 + t_count
            assert float(lines[-1].split(",")[0]) == math.pi

    def test_rows_before_the_last_theta_unchanged(self, run_cli):
        code, out, _ = run_cli(["sweep", "--zeta-re", "0.5", "--grid", "14,3", "--dim", "8"])
        assert code == 0
        thetas = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
        assert thetas[:-3] == [math.pi * (i // 3) / 13 for i in range(39)]
        assert thetas[-3:] == [math.pi] * 3


class TestFibonacciCommand:
    def test_row_five(self, run_cli):
        code, out, _ = run_cli(["fibonacci", "--n-max", "5", "--dim", "64"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(FIBONACCI_HEADER)
        row = dict(zip(FIBONACCI_HEADER, lines[-1].split(",")))
        assert (row["n"], row["fib_n"]) == ("5", "5")
        assert (row["zeta_sq_num"], row["zeta_sq_den"]) == ("1", "1")
        assert (row["dispersion_num"], row["dispersion_den"]) == ("5", "8")
        assert float(row["dispersion_numeric"]) == pytest.approx(0.625, abs=1e-8)

    def test_small_dim_needs_no_displacement_guard(self, run_cli):
        # the ladder states are undisplaced (alpha = 0) and live on levels 0 and 1
        code, out, err = run_cli(["fibonacci", "--n-max", "5", "--dim", "16"])
        assert (code, err) == (0, "")
        reference = run_cli(["fibonacci", "--n-max", "5", "--dim", "64"])[1]
        small_rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        reference_rows = [line.split(",") for line in reference.strip().split("\n")[1:]]
        for small, full in zip(small_rows, reference_rows, strict=True):
            assert small[:6] == full[:6]
            assert float(small[6]) == pytest.approx(float(full[6]), abs=1e-15)

    def test_n_max_too_small(self, run_cli):
        code, _, err = run_cli(["fibonacci", "--n-max", "2"])
        assert code == 2

    def test_reads_the_oracle_operators_once(self, run_cli, monkeypatch):
        calls = []
        operators = uncertainty.quadrature_operators
        monkeypatch.setattr(uncertainty, "quadrature_operators", lambda dim: calls.append(dim) or operators(dim))
        code, out, _ = run_cli(["fibonacci", "--n-max", "30", "--dim", "24"])
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 28
        assert calls == [24]


class TestVerifyCommand:
    def test_all_green(self, run_cli):
        code, out, err = run_cli(["verify", "--suite", "all", "--dim", "48", "--n-max", "8"])
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["passed"] == payload["summary"]["total"]
        for check in payload["checks"]:
            assert check["pass"] == (check["residual"] <= check["tolerance"])

    def test_failure_exits_one(self, run_cli):
        code, out, err = run_cli(
            ["verify", "--suite", "uncertainty", "--dim", "48", "--tol", "1e-30"]
        )
        assert code == 1
        assert "failed" in err
        payload = json.loads(out)
        assert payload["summary"]["passed"] < payload["summary"]["total"]

    def test_nan_residual_exits_one_naming_its_check(self, run_cli, monkeypatch):
        real = verify.commutator_suite

        def patched(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), number_lowering=math.nan)

        monkeypatch.setattr(verify, "commutator_suite", patched)
        code, out, err = run_cli(["verify", "--suite", "algebra", "--dim", "36"])
        assert code == 1
        assert err == "superq: 1 check(s) failed: commutator_number_lowering\n"
        payload = json.loads(out)
        assert payload["checks"][0]["residual"] is None
        assert payload["summary"]["max_residual"] is None

    def test_deep_fibonacci_ladder_passes(self, run_cli):
        code, out, err = run_cli(["verify", "--suite", "fibonacci", "--n-max", "45", "--dim", "64"])
        assert (code, err) == (0, "")
        assert json.loads(out)["summary"]["passed"] == 45 - 3 + 1 + 3

    @pytest.mark.parametrize(
        "suite,dim", [("algebra", 8), ("algebra", 2), ("algebra", 9), ("all", 8), ("eigen", 8)]
    )
    def test_dim_below_the_suite_floor_names_the_flag(self, run_cli, suite, dim):
        floor = required_suite_dim(suite)
        code, out, err = run_cli(["verify", "--suite", suite, "--dim", str(dim)])
        assert (code, out) == (2, "")
        message = f"--dim must be >= {floor} for verify --suite {suite}, got {dim}"
        assert err == f"superq: error: {message}\n"

    def test_suite_floor_dim_runs(self, run_cli):
        floor = required_suite_dim("algebra")
        code, out, err = run_cli(["verify", "--suite", "algebra", "--dim", str(floor)])
        assert (code, err) == (0, "")

    def test_seed_recorded(self, run_cli):
        code, out, _ = run_cli(["verify", "--suite", "fibonacci", "--n-max", "5", "--seed", "7"])
        assert code == 0
        assert json.loads(out)["seed"] == 7

    def test_unknown_suite_exits_two(self, run_cli):
        code, _, err = run_cli(["verify", "--suite", "nope"])
        assert code == 2
        assert "unknown suite" in err

    def test_guard_violation_exits_two(self, run_cli):
        code, _, err = run_cli(["verify", "--suite", "eigen", "--dim", "8", "--tol", "1e-12"])
        assert code == 2
        assert "dim" in err


class TestArgumentHandling:
    def test_zeta_flags_conflict(self, run_cli):
        code, _, err = run_cli(["state", "--theta", "1", "--zeta-re", "1", "--zeta-inf"])
        assert code == 2
        assert "zeta" in err

    def test_zeta_required(self, run_cli):
        code, _, err = run_cli(["state", "--theta", "1"])
        assert code == 2
        assert "zeta" in err

    def test_theta_or_n_required(self, run_cli):
        code, _, err = run_cli(["state", "--zeta-re", "1"])
        assert code == 2

    def test_theta_and_n_conflict(self, run_cli):
        code, _, err = run_cli(["state", "--theta", "1", "--n", "2", "--zeta-re", "1"])
        assert code == 2

    def test_theta_out_of_range(self, run_cli):
        code, _, err = run_cli(["state", "--theta", "9", "--zeta-re", "1"])
        assert code == 2
        assert "theta" in err

    def test_output_mismatch_rejected(self, run_cli):
        code, _, err = run_cli(["state", "--theta", "1", "--zeta-re", "1", "--output", "csv"])
        assert code == 2
        assert "emits" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["state", "--theta", "1", "--n", "2", "--zeta-inf", "--zeta-re", "1"],
                "supply either --zeta-re/--zeta-im or --zeta-inf, not both",
            ),
            (["state", "--theta", "1", "--n", "-1", "--zeta-re", "1"], "supply either --theta or --n, not both"),
            (
                ["state", "--theta", "1", "--zeta-re", "1", "--zeta-inf", "--output", "csv"],
                "command 'state' emits json, not csv",
            ),
        ],
    )
    def test_usage_error_exact_stderr(self, run_cli, argv, message):
        # each argv breaks several rules; the message names the first one checked
        assert run_cli(argv) == (2, "", f"superq: error: {message}\n")

    def test_phi_reduced_mod_two_pi(self, run_cli):
        code, out, _ = run_cli(["state", "--theta", "1.0", "--phi", "7.0", "--zeta-re", "1", "--dim", "4"])
        assert code == 0
        assert json.loads(out)["params"]["phi"] == pytest.approx(7.0 - 2.0 * math.pi)

    @pytest.mark.parametrize(
        "flag,command",
        [
            ("--theta=nan", "state"),
            ("--phi=nan", "state"),
            ("--phi=inf", "coherent"),
            ("--alpha-re=nan", "coherent"),
            ("--alpha-im=-inf", "uncertainty"),
        ],
    )
    def test_non_finite_value_names_its_flag(self, run_cli, flag, command):
        args = [command, "--theta=1.0", "--zeta-re=1", "--dim", "32", flag]
        code, out, err = run_cli(args)
        assert code == 2
        assert out == ""
        assert flag.split("=")[0] in err

    @pytest.mark.parametrize("flag", ["--zeta-re=inf", "--zeta-re=-inf", "--zeta-im=nan"])
    def test_non_finite_zeta_points_to_zeta_inf(self, run_cli, flag):
        for command in (["state", "--theta=1.0"], ["entropy"], ["sweep"]):
            code, out, err = run_cli([*command, flag, "--dim", "8"])
            assert code == 2
            assert out == ""
            assert flag.split("=")[0] in err and "--zeta-inf" in err

    def test_huge_finite_zeta_gives_near_pole_state(self, run_cli):
        code, out, err = run_cli(
            ["state", "--theta", "1", "--zeta-re=1.7e308", "--zeta-im=1.7e308", "--dim", "4"]
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["params"]["zeta"] == [1.7e308, 1.7e308]
        assert payload["norm"] == pytest.approx(1.0, abs=1e-15)
        assert payload["concurrence_closed"] == pytest.approx(0.0, abs=1e-300)
        assert payload["concurrence_gram"] == pytest.approx(0.0, abs=1e-15)
        assert payload["p0"] + payload["p1"] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_rejected(self, run_cli, tol):
        code, _, err = run_cli(["verify", "--suite", "fibonacci", "--n-max", "4", f"--tol={tol}"])
        assert code == 2
        assert "--tol" in err

    def test_unknown_command_exits_two(self, run_cli):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["teleport"])
        assert excinfo.value.code == 2


class TestEnvironment:
    def test_env_dim_override(self, run_cli, monkeypatch):
        monkeypatch.setenv("SUPERQ_DIM", "6")
        code, out, _ = run_cli(["state", "--theta", "0.5", "--zeta-re", "1"])
        assert code == 0
        assert json.loads(out)["dim"] == 6

    def test_explicit_dim_beats_env(self, run_cli, monkeypatch):
        monkeypatch.setenv("SUPERQ_DIM", "6")
        code, out, _ = run_cli(["state", "--theta", "0.5", "--zeta-re", "1", "--dim", "10"])
        assert code == 0
        assert json.loads(out)["dim"] == 10

    def test_invalid_env_dim_rejected(self, run_cli, monkeypatch):
        monkeypatch.setenv("SUPERQ_DIM", "many")
        code, _, err = run_cli(["state", "--theta", "0.5", "--zeta-re", "1"])
        assert code == 2
        assert "SUPERQ_DIM" in err


def test_module_entry_point_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "superq", "state", "--theta", "0", "--zeta-inf", "--dim", "4"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0
    assert json.loads(completed.stdout)["params"]["zeta"] == "inf"
