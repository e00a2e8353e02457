import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superq import cli, entanglement, fock, serialize, uncertainty, verify
from superq.cli import FIBONACCI_HEADER, SWEEP_HEADER, main as cli_main, sweep_thetas
from superq.serialize import csv_cell
from superq.verify import required_suite_dim

from conftest import cli_run, float17_corpus, reached_functions


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


# Prints the name of the kernel OpenBLAS loaded for numpy, or nothing when it
# cannot be read: numpy's OpenBLAS is found among the process's mapped files,
# and wheel builds prefix and suffix its symbols.
OPENBLAS_CORE = """
import ctypes, numpy
paths = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
for path in sorted(paths):
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
        corename = getattr(ctypes.CDLL(path), symbol, None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            print(corename().decode())
            raise SystemExit
"""


# Prints serialize._float17_texts of the float64 values on stdin, one a line.
FLOAT_TEXTS = """
import sys, numpy
from superq.serialize import _float17_texts
sys.stdout.write("\\n".join(_float17_texts(numpy.frombuffer(sys.stdin.buffer.read()))))
"""


class TestBlasKernel:
    """The golden cases in a child process under a second BLAS kernel or SIMD level."""

    # Files whose bytes still read a BLAS kernel's rounding (ROADMAP item 3).
    MOVE_WITH_BLAS = {
        "coherent_theta2.3_alpha-1.2_dim128.json": "its concurrence_gram reads a BLAS dot at dim 128",
        "uncertainty_alpha0.3_dim24.json": "its quadrature moments read BLAS dots",
    }
    # numpy's dispatch down to its X86_V2 baseline: no AVX2, FMA3 or AVX-512 loops
    X86_V2 = "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"
    # Files whose bytes still read numpy's SIMD level (ROADMAP item 3): its complex
    # multiply is fused at AVX-512 and not at X86_V2.
    MOVE_WITH_SIMD = {
        "coherent_theta1.1_alpha0.5_dim24.json": "psi0 and psi1, and what is computed from them",
        "coherent_theta2.3_alpha-1.2_dim128.json": "psi0 and psi1, and what is computed from them",
        "sweep_zetainf_grid14x5_dim64.csv": "the projected determinant in concurrence_gram and entropy_bits",
        "sweep_zeta0.5-1.3i_grid9x7_dim64.csv": "the projected determinant in concurrence_gram and entropy_bits",
    }

    @staticmethod
    def golden_failures(env) -> set[str]:
        """The golden files (or test names) that fail in a child pytest run under env."""
        completed = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", f"{__file__}::TestGoldenFiles"],
            env=env,
            capture_output=True,
            text=True,
            cwd=Path(__file__).parent.parent,
        )
        # a parametrized case names its file first in its id
        failed = re.findall(r"^FAILED \S+::(\w+)(?:\[(\S+?)-argv\d+\])?", completed.stdout, re.MULTILINE)
        assert f"{15 - len(failed)} passed" in completed.stdout, completed.stdout
        return {name or test for test, name in failed}

    @staticmethod
    def blas_env(coretype, names):
        """os.environ with OPENBLAS_CORETYPE set; skips unless OpenBLAS then loads a kernel of those names."""
        env = {**os.environ, "OPENBLAS_CORETYPE": coretype}
        core = subprocess.run(
            [sys.executable, "-c", OPENBLAS_CORE], env=env, capture_output=True, text=True
        ).stdout.strip()
        if core not in names:
            pytest.skip(f"OpenBLAS does not switch to {coretype} here (core {core or 'unknown'})")
        return env

    def test_only_the_blas_bound_files_move_under_prescott(self):
        # an x86-64 DYNAMIC_ARCH build aliases the Katmai kernel to Prescott's and names it first
        env = self.blas_env("Prescott", ("Prescott", "Katmai"))
        assert self.golden_failures(env) <= set(self.MOVE_WITH_BLAS)

    def test_every_file_holds_under_haswell(self):
        assert self.golden_failures(self.blas_env("Haswell", ("Haswell",))) == set()

    @classmethod
    def x86_v2_env(cls):
        """os.environ with numpy's dispatch held to X86_V2; skips where numpy refuses that."""
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": cls.X86_V2}
        # numpy refuses features that its build does not dispatch, or that are its baseline
        refused = subprocess.run(
            [sys.executable, "-W", "error::ImportWarning", "-c", "import numpy"],
            env=env,
            capture_output=True,
            text=True,
        )
        if refused.returncode != 0:
            reason = refused.stderr.strip().splitlines()[-1]
            pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={cls.X86_V2}: {reason}")
        return env

    def test_only_the_simd_bound_files_move_at_x86_v2(self):
        assert self.golden_failures(self.x86_v2_env()) <= set(self.MOVE_WITH_SIMD)

    @staticmethod
    def float_texts(env) -> str:
        """The array texts of float17_corpus and 4,096 tiny values, formatted in a child run under env.

        The serializer's kernel reads np.log10 only as an estimate of each
        decimal exponent, and reads no BLAS routine, so its bytes move with neither.
        """
        rng = np.random.default_rng(34)
        values = np.concatenate([float17_corpus(), rng.integers(1, 2**53, 4096) * 1e-300])
        completed = subprocess.run(
            [sys.executable, "-c", FLOAT_TEXTS],
            input=values.tobytes(),
            env=env,
            capture_output=True,
            check=True,
            cwd=Path(__file__).parent.parent,
        )
        texts = completed.stdout.decode("ascii")
        assert texts.split("\n") == [format(value, ".17g") for value in values.tolist()]
        return texts

    def test_float_kernel_holds_under_prescott(self):
        env = self.blas_env("Prescott", ("Prescott", "Katmai"))
        assert self.float_texts(env) == self.float_texts(dict(os.environ))

    def test_float_kernel_holds_at_x86_v2(self):
        assert self.float_texts(self.x86_v2_env()) == self.float_texts(dict(os.environ))

    @staticmethod
    def failed_verify_checks(env) -> list[str]:
        """The checks a verify --suite all --dim 64 child run under env fails; the run must exit 0.

        The closed side of every suite is numpy array arithmetic, which
        rounds with numpy's SIMD level, and the oracles read BLAS.
        """
        completed = subprocess.run(
            [sys.executable, "-m", "superq", "verify", "--suite", "all", "--dim", "64"],
            env=env,
            capture_output=True,
            text=True,
            cwd=Path(__file__).parent.parent,
        )
        assert completed.returncode == 0, completed.stderr
        return [check["name"] for check in json.loads(completed.stdout)["checks"] if not check["pass"]]

    def test_verify_passes_under_prescott(self):
        assert self.failed_verify_checks(self.blas_env("Prescott", ("Prescott", "Katmai"))) == []

    def test_verify_passes_at_x86_v2(self):
        assert self.failed_verify_checks(self.x86_v2_env()) == []


class TestDimIndependence:
    """An undisplaced state lives on levels 0 and 1, so no printed value but dim, psi0 and psi1 reads dim.

    Every dot pads a row shorter than BLAS's 8-entry block with zeros, so the
    small dims print what dim 64 prints, byte for byte.
    """

    # (theta, phi, zeta_re, zeta_im), drawn once
    POINTS = np.random.default_rng(29).uniform([0.0, 0.0, -2.0, -2.0], [math.pi, 7.0, 2.0, 2.0], (20, 4)).tolist()
    # uncertainty's oracle needs dim >= 3
    SMALL_DIMS = {**dict.fromkeys(("state", "concurrence", "entropy"), range(2, 10)), "uncertainty": range(3, 10)}

    @staticmethod
    def printed(argv, dims):
        """{dim: the output at dim} for each dim, JSON without dim, psi0 and psi1, or CSV text whole."""
        printed = {}
        for dim in dims:
            code, out, err = _outcome(cli_main, [*argv, "--dim", str(dim)])
            assert (code, err) == (0, ""), argv
            if argv[0] != "fibonacci":
                payload = json.loads(out)
                for name in ("dim", "psi0", "psi1"):
                    payload.pop(name, None)
                out = json.dumps(payload)
            printed[dim] = out
        return printed

    @pytest.mark.parametrize("command", sorted(SMALL_DIMS))
    def test_small_dims_print_what_dim_64_prints(self, command):
        # the entropy command reads zeta alone; the others the undisplaced super-qubit state
        for theta, phi, zeta_re, zeta_im in self.POINTS:
            argv = [command, f"--zeta-re={zeta_re!r}", f"--zeta-im={zeta_im!r}"]
            if command != "entropy":
                argv += ["--theta", repr(theta), "--phi", repr(phi)]
            (want,) = self.printed(argv, [64]).values()
            assert self.printed(argv, self.SMALL_DIMS[command]) == dict.fromkeys(self.SMALL_DIMS[command], want)

    def test_fibonacci_ladder_does_not_read_dim(self):
        argv = ["fibonacci", "--n-max", "60"]
        (want,) = self.printed(argv, [64]).values()
        assert self.printed(argv, range(3, 10)) == dict.fromkeys(range(3, 10), want)


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


def _outcome(run, argv):
    """(exit code, stdout, stderr) of run(argv), argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _top_level_route(argv):
    """main with every argv parsed by the top-level parser, the oracle for the direct dispatch."""
    parser, _ = cli._build_parser()
    return cli._run(parser.parse_args(argv))


_STATE = ["--theta", "1.1", "--zeta-re", "0.8", "--dim", "6"]
_DISPATCH_CORPUS = [
    # valid argv of every command
    ["state", *_STATE],
    ["state", "--n", "2", "--zeta-inf", "--dim", "4"],
    ["coherent", *_STATE[:-1], "24", "--alpha-re=0.5", "--alpha-im=-0.2"],
    ["concurrence", *_STATE, "--phi", "0.3"],
    ["entropy", "--zeta-re", "2", "--zeta-im", "0.5", "--dim", "7"],
    ["uncertainty", *_STATE[:-1], "24", "--alpha-re=0.3"],
    ["fibonacci", "--n-max", "6", "--dim", "8"],
    ["sweep", "--zeta-re", "0.7", "--grid", "3,2", "--dim", "4"],
    ["verify", "--suite", "fibonacci", "--n-max", "5", "--dim", "8"],
    ["verify", "--suite", "nope"],
    ["state", "--theta", "9", "--zeta-re", "1"],
    # help after a command, and its abbreviation
    ["state", "-h"],
    ["verify", "--help"],
    ["sweep", "--zeta-re", "1", "-h"],
    ["entropy", "--h"],
    # unknown flags and stray words, refused by the top-level parser
    ["state", "--bogus", *_STATE],
    ["coherent", *_STATE, "extra", "--bogus=3"],
    ["state", "junk"],
    ["state", *_STATE, "--output", "json"],
    ["state", *_STATE, "--output", "xml"],
    # a missing value, a bad float, a bad int
    ["state", "--theta"],
    ["verify", "--dim"],
    ["state", "--theta", "abc", "--zeta-re", "1"],
    ["state", "--dim", "x"],
    ["state", "--theta=", "--zeta-re", "1"],
    # values led by "-" as separate tokens, which argparse alone reads: -1 as a negative
    # number, -1e-05 as a flag where its negative-number pattern has no exponent
    ["state", "--theta", "-1", "--zeta-re", "1"],
    ["coherent", *_STATE, "--alpha-re", "-1e-05"],
    # a store_true flag given a value
    ["state", "--theta", "1", "--zeta-inf=1"],
    # a repeated flag, the last one read; an empty value
    ["state", *_STATE[:-2], "--dim", "4", "--dim", "6"],
    ["sweep", "--zeta-re", "0.7", "--grid", "", "--dim", "4"],
    # abbreviations, one of them ambiguous
    ["state", "--the=1", "--zeta-re", "1", "--dim", "4"],
    ["coherent", *_STATE, "--alpha=1"],
    # "--" before, inside and after a command's flags
    ["state", "--", "--theta", "1"],
    ["state", *_STATE, "--"],
    ["--", "state", *_STATE],
    ["--"],
    # argv whose first token is not a command
    [],
    ["bogus"],
    ["bogus", "--theta", "1"],
    ["STATE", *_STATE],
    ["-h"],
    ["--help"],
    ["--he"],
    ["-x", "state"],
    ["--dim", "4", "state"],
]


def _dispatch_outcomes(argv) -> tuple[bool, bool]:
    """Whether main and the top-level route agree on (exit code, stderr) and on stdout.

    A verify report is compared without its timings.
    """
    code, out, err = _outcome(cli_main, argv)
    oracle_code, oracle_out, oracle_err = _outcome(_top_level_route, argv)
    if argv[:1] == ["verify"] and out.startswith("{"):
        out, oracle_out = _masked_verify(out), _masked_verify(oracle_out)
    return (code, err) == (oracle_code, oracle_err), out == oracle_out


class TestCommandDispatch:
    """main hands argv[1:] to the subparser of argv[0]; the top-level parse is its oracle."""

    @pytest.mark.parametrize("argv", _DISPATCH_CORPUS, ids=" ".join)
    def test_same_outcome_as_top_level_parse(self, argv):
        assert _dispatch_outcomes(argv) == (True, True)

    @pytest.mark.parametrize("argv", [["state", *_STATE[:-2]], ["state", *_STATE]], ids=" ".join)
    def test_same_outcome_under_dim_env(self, monkeypatch, argv):
        monkeypatch.setenv("SUPERQ_DIM", "5")
        assert _dispatch_outcomes(argv) == (True, True)

    @pytest.mark.parametrize(
        "argv,parses",
        [(["state", *_STATE], 0), (["state", "--bogus"], 0), ([], 1), (["bogus"], 1), (["-h"], 1)],
    )
    def test_top_level_parser_sees_only_non_commands(self, monkeypatch, argv, parses):
        parser, _ = cli._build_parser()
        seen = []

        def recording(args=None, namespace=None):
            seen.append(args)
            return argparse.ArgumentParser.parse_known_args(parser, args, namespace)

        monkeypatch.setattr(parser, "parse_known_args", recording)
        _outcome(cli_main, argv)
        assert len(seen) == parses


def _record_parses(monkeypatch, parsers) -> list:
    """The parsers' prog, once per parse_known_args call each makes from now on."""
    seen = []
    for parser in parsers:

        def recording(args=None, namespace=None, parser=parser):
            seen.append(parser.prog)
            return argparse.ArgumentParser.parse_known_args(parser, args, namespace)

        monkeypatch.setattr(parser, "parse_known_args", recording)
    return seen


def _namespace_items(args) -> list:
    """A namespace's (dest, repr of value) pairs in order; repr tells -0.0 from 0.0 and nan from nan."""
    return [(dest, repr(value)) for dest, value in vars(args).items()]


_DECLARED_FLAGS = sorted({flag for pairs in cli._FLAG_GROUPS.values() for flag, _ in pairs})
_VALUES = ["", " 1.5", "1_0", "inf", "nan", "-1", "-1e-05", "0x1", "abc", "3,2", "7", "0.25", "1 2", "-"]
# values int, float and str all read
_READ_BY_EVERY_TYPE = ["7", "1_0", " 12 "]
# help, abbreviations, the separator, unknown flags and bare words
_NOISE = ["-h", "--help", "--", "--the", "--alpha", "--n-m", "--di", "--bogus", "-x", "junk", "state"]


@st.composite
def _command_tokens(draw):
    """A command and a token list of its own flags, into which one token of any kind may be put.

    Each flag comes as --flag value or --flag=value (a store_true flag
    alone), its value mostly one every type reads; the extra token is any
    declared flag (alone or with =value), a value or noise.
    """
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    value = st.sampled_from(_READ_BY_EVERY_TYPE) | st.sampled_from(_VALUES)
    tokens = []
    for flag, spec in draw(st.lists(st.sampled_from(cli._flag_specs(command)), max_size=5)):
        if spec.get("action") == "store_true":
            tokens.append(flag)
        elif draw(st.booleans()):
            tokens += [flag, draw(value)]
        else:
            tokens.append(f"{flag}={draw(value)}")
    anything = st.sampled_from(_DECLARED_FLAGS + _NOISE)
    extra = st.one_of(anything, st.tuples(anything, value).map("=".join), value)
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(extra))
    return command, tokens


class TestDirectParse:
    """cli._parse_direct gives argparse's namespace or declines; argparse is built only to decline."""

    @settings(max_examples=1000, deadline=None)
    @given(_command_tokens())
    def test_direct_parse_is_argparse_or_none(self, drawn):
        command, tokens = drawn
        direct = cli._parse_direct(command, tokens)
        if direct is None:
            return
        _, commands = cli._build_parser()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args, extras = commands[command].parse_known_args(tokens)
        assert extras == []
        assert _namespace_items(direct) == _namespace_items(args)

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_table_matches_subparser(self, command):
        _, commands = cli._build_parser()
        actions = [
            (
                action.option_strings,
                action.dest,
                action.type,
                action.default,
                isinstance(action, argparse._StoreTrueAction),
            )
            for action in commands[command]._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        flags, defaults = cli._flag_table(command)
        table = [
            ([flag], dest, convert, defaults[dest], store_true)
            for flag, (dest, convert, store_true) in flags.items()
        ]
        assert table == actions
        assert list(defaults) == [dest for _, dest, _, _, _ in actions]

    def test_flag_specs_hold_only_what_the_table_reads(self):
        # a choices=, nargs= or other action would parse differently from the table
        for pairs in cli._FLAG_GROUPS.values():
            for flag, spec in pairs:
                assert set(spec) <= {"type", "default", "help", "action"}, flag
                assert spec.get("action", "store_true") == "store_true", flag
                # argparse refuses a value on a ValueError, the one exception the table catches
                assert spec.get("type", str) in (int, float, str), flag

    def test_well_formed_argv_make_no_argparse_parse(self, monkeypatch):
        well_formed = _DISPATCH_CORPUS[:11]
        assert {argv[0] for argv in well_formed} == set(cli._COMMANDS)
        parser, commands = cli._build_parser()
        seen = _record_parses(monkeypatch, [parser, *commands.values()])
        for argv in well_formed:
            assert cli._parse_direct(argv[0], argv[1:]) is not None, argv
            _outcome(cli_main, argv)
        assert seen == []

    def test_state_process_builds_no_parser(self):
        code = (
            "import sys; from superq import cli; exit_code = cli.main(sys.argv[1:]); "
            "print(cli._build_parser.cache_info().currsize, file=sys.stderr); sys.exit(exit_code)"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code, "state", *_STATE], capture_output=True, text=True
        )
        assert (completed.returncode, completed.stderr) == (0, "0\n")
        assert json.loads(completed.stdout)["dim"] == 6

    @pytest.mark.parametrize(
        "alpha, code, imported",
        [(["--alpha-re=1.2", "--alpha-im=-0.3", "--dim", "64"], 0, False), (["--alpha-re", "abc"], 2, True)],
    )
    def test_argparse_is_imported_only_for_an_argv_it_parses(self, alpha, code, imported):
        # a usage error exits 2 through argparse, naming its flag
        argv = ["coherent", "--theta", "1.1", "--zeta-re", "1", *alpha]
        script = (
            "import sys\nfrom superq import cli\ntry:\n    exit_code = cli.main(sys.argv[1:])\n"
            "finally:\n    print('argparse' in sys.modules, file=sys.stderr)\nsys.exit(exit_code)"
        )
        completed = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
        *diagnostics, last = completed.stderr.splitlines()
        assert (completed.returncode, last) == (code, str(imported))
        assert ("--alpha-re" in "\n".join(diagnostics)) == imported

    @pytest.mark.parametrize(
        "argv",
        [
            ["state", "-h"],
            ["state", "--the=1", "--zeta-re", "1"],
            ["state", "--bogus", *_STATE],
            ["state", *_STATE, "junk"],
            ["state", *_STATE, "--"],
            ["state", *_STATE, "--theta"],
            ["state", "--theta", "-1", "--zeta-re", "1"],
            ["state", "--theta", "abc", "--zeta-re", "1"],
            ["state", "--zeta-inf=1", "--theta", "1"],
            [],
            ["bogus", *_STATE],
            ["-h"],
        ],
        ids=" ".join,
    )
    def test_each_declined_argv_is_parsed_once(self, monkeypatch, argv):
        if argv[:1] and argv[0] in cli._COMMANDS:
            assert cli._parse_direct(argv[0], argv[1:]) is None
        parser, commands = cli._build_parser()
        seen = _record_parses(monkeypatch, [parser, *commands.values()])
        _outcome(cli_main, argv)
        assert len(seen) == 1


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

    @pytest.mark.parametrize("command", ["state", "concurrence"])
    @pytest.mark.parametrize("n,dim", [(5, 4), (5, 5), (2, 2)])
    def test_n_past_the_truncation_names_dim(self, run_cli, command, n, dim):
        code, out, err = run_cli([command, "--n", str(n), "--zeta-re", "1", "--dim", str(dim)])
        assert (code, out) == (2, "")
        assert err == f"superq: error: |{n}, zeta> needs dim >= {n + 1}, got {dim}\n"
        code, _, _ = run_cli([command, "--n", str(n), "--zeta-re", "1", "--dim", str(n + 1)])
        assert code == 0

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


class TestGramWork:
    """Each emitted state's norm, Gram concurrence and spectral entropy share one Gram-entry pass.

    So does each stack of verify's entangle suite.
    """

    @pytest.fixture
    def gram_calls(self, monkeypatch):
        calls = []
        original = entanglement._gram_entries

        def counting(coeffs):
            calls.append(coeffs.shape)
            return original(coeffs)

        monkeypatch.setattr(entanglement, "_gram_entries", counting)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ["state", "--theta", "1.1", "--phi", "0.4", "--zeta-re", "0.8", "--dim", "16"],
            ["state", "--n", "3", "--zeta-re", "0.8", "--zeta-im", "-0.3", "--dim", "16"],
            ["coherent", "--theta", "1.1", "--zeta-re", "0.8", "--alpha-re=0.5", "--dim", "48"],
            ["entropy", "--zeta-re", "2", "--zeta-im", "0.5", "--dim", "16"],
            ["concurrence", "--theta", "1.1", "--zeta-re", "0.8", "--dim", "16"],
        ],
    )
    def test_one_pass_per_emitted_state(self, run_cli, gram_calls, argv):
        code, _, _ = run_cli(argv)
        assert code == 0
        assert gram_calls == [(2, int(argv[-1]))]

    def test_one_pass_per_stack_of_the_entangle_suite(self, run_cli, gram_calls):
        # the |n, zeta> states, the angle grids, the two stride-2 stacks and the random states;
        # the undisplaced stride-2 half reads its concurrences from the angle grids' pass
        code, _, _ = run_cli(["verify", "--suite", "entangle", "--dim", "32"])
        assert code == 0
        halves = (45, 2, 32)
        assert gram_calls == [(5, 3, 2, 32), (5, 25, 2, 32), halves, halves, (12, 2, 32)]


class TestOneStateRoute:
    """The single-state commands build through the public state and pole functions."""

    def test_commands_reach_the_public_builders(self):
        reach = {
            argv[0]: reached_functions([cli_run(argv)])
            for argv in (
                ["state", "--theta", "1", "--zeta-re", "1"],
                ["coherent", "--theta", "1", "--zeta-re", "1", "--alpha-re", "0.5"],
                ["concurrence", "--theta", "1", "--zeta-re", "1"],
            )
        }
        # state --theta is the super-coherent state at alpha = 0, the super-qubit state itself
        assert {"superstate.super_qubit_state", "superstate.pole_probabilities"} <= reach["state"]
        assert {"superstate.super_coherent_state", "superstate.pole_probabilities"} <= reach["coherent"]
        assert "superstate.super_coherent_state" in reach["concurrence"]


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

    def test_alternating_dims_rebuild_nothing_when_warm(self, run_cli, memo):
        # a report reads 5 (alpha, dim) pairs; two dims' worth fit in the memo
        reports = [["verify", "--suite", "all", "--dim", dim] for dim in ("64", "128")]
        for argv in reports:
            assert run_cli(argv)[0] == 0
        assert memo.cache_info().misses == 10
        for argv in reports * 2:
            assert run_cli(argv)[0] == 0
        assert memo.cache_info().misses == 10

    def test_coherent_builds_once(self, run_cli, memo):
        args = ["--theta=1.1", "--phi=0.4", "--zeta-re=0.8", "--zeta-im=0.3", "--alpha-re=2.1"]
        code, _, _ = run_cli(["coherent", *args, "--alpha-im=-1.7", "--dim", "96"])
        assert code == 0
        # super_coherent_state builds the columns, and pole_probabilities reads them again
        assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 1)


class TestSerializerWork:
    """A payload's arrays take one formatting pass, and '%' formats only what the kernel leaves it."""

    COHERENT = ["coherent", "--theta", "1", "--zeta-re", "0.5", "--alpha-re=2.5", "--alpha-im=-1"]
    STATE = ["state", "--theta", "1.1", "--phi", "0.4", "--zeta-re", "0.8", "--zeta-im", "0.3"]

    @pytest.fixture
    def work(self, monkeypatch):
        """Counts: join passes, kernel passes, and the values '%' formats for them."""
        counts = {"joins": 0, "kernels": 0, "percent": []}
        join, kernel, percent = serialize._float17_join, serialize._kernel_digits, serialize._percent

        def counted_join(blocks):
            counts["joins"] += 1
            return join(blocks)

        def counted_kernel(values):
            counts["kernels"] += 1
            return kernel(values)

        def counted_percent(template, values):
            counts["percent"].extend(values)
            return percent(template, values)

        monkeypatch.setattr(serialize, "_float17_join", counted_join)
        monkeypatch.setattr(serialize, "_kernel_digits", counted_kernel)
        monkeypatch.setattr(serialize, "_percent", counted_percent)
        return counts

    def test_coherent_payload_is_one_kernel_pass(self, run_cli, work):
        code, out, _ = run_cli([*self.COHERENT, "--dim", "512"])
        assert code == 0
        assert (work["joins"], work["kernels"]) == (1, 1)
        # only a possible tie or a missed exponent goes back to '%'
        assert len(work["percent"]) <= 4
        payload = json.loads(out, parse_int=float)
        values = np.array([payload["psi0"], payload["psi1"]]).ravel()
        assert np.count_nonzero(values) >= serialize._KERNEL_MIN

    def test_zeros_of_a_state_never_reach_percent(self, run_cli, work):
        code, out, _ = run_cli([*self.STATE, "--dim", "512"])
        assert code == 0
        # alpha = 0: levels 0 and 1 hold the state, below the crossover
        assert (work["joins"], work["kernels"]) == (1, 0)
        payload = json.loads(out, parse_int=float)
        values = np.array([payload["psi0"], payload["psi1"]]).ravel()
        assert np.count_nonzero(values) <= 8
        assert sorted(map(abs, work["percent"])) == sorted(abs(values[values != 0]))

    def test_scalar_payloads_take_no_pass(self, run_cli, work):
        for argv in (["verify", "--suite", "fibonacci", "--n-max", "5"], ["entropy", "--zeta-re", "1"]):
            assert run_cli(argv)[0] == 0
        assert (work["joins"], work["kernels"], work["percent"]) == (0, 0, [])

    def test_import_builds_no_table(self):
        probe = (
            "import superq, superq.cli; from superq import serialize; "
            "serialize.dumps({'x': [0.5, 1.0]}); print(serialize._kernel_tables.cache_info().currsize)"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, cwd=Path(__file__).parent.parent
        )
        assert completed.stdout == "0\n"


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

    # The closed moduli sum terms of size ~|alpha|^2 that cancel to O(log |alpha|),
    # so at |alpha| = 40 and its guard dim the state's norm^2 leaves 1e-12 (ROADMAP item 5).
    @pytest.mark.xfail(
        strict=True,
        reason="coherent --theta 1 --zeta-re 1 --alpha-re=-31.440249851161607"
        " --alpha-im=24.728742169720903 --dim 1927 must exit 0;"
        " it exits 1 with norm^2 = 1.0000000000012381",
    )
    def test_valid_alpha_at_its_guard_dim_exits_zero(self, run_cli):
        code, _, err = run_cli(
            ["coherent", "--theta", "1", "--zeta-re", "1", "--alpha-re=-31.440249851161607",
             "--alpha-im=24.728742169720903", "--dim", "1927"]
        )
        assert (code, err) == (0, "")


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


    @settings(max_examples=100, deadline=None)
    @given(_argv(), st.lists(st.sampled_from(["--", "-h", "--bogus", "x", "--dim", "--the=1"]), max_size=2))
    def test_direct_dispatch_matches_top_level_parse(self, argv, extra):
        assert _dispatch_outcomes(argv + extra) == (True, True)


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

    @pytest.mark.parametrize("command", [["fibonacci"], ["verify", "--suite", "fibonacci"]])
    def test_n_max_past_the_printable_ladder_is_refused_before_any_work(self, run_cli, monkeypatch, command):
        # at the bound the command reaches the ladder, here its first 18 rows
        # (the whole ladder takes ~10 s); one past the bound it never does
        ladders, ladder = [], uncertainty.fibonacci_ladder
        for module in (cli, verify):
            monkeypatch.setattr(
                module, "fibonacci_ladder", lambda n_max, dim: ladders.append(n_max) or ladder(20, dim)
            )
        code, out, _ = run_cli([*command, "--n-max", "20576", "--dim", "8"])
        assert (code, ladders) == (0, [20576]) and out
        code, out, err = run_cli([*command, "--n-max", "20577", "--dim", "8"])
        assert (code, out, ladders) == (2, "", [20576])
        assert err == "superq: error: --n-max must be in [3, 20576], got 20577\n"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_n_max_bound_is_the_last_row_python_prints(self):
        # row n prints F_{n+1}: F_20577 has 4,300 digits, Python's default limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            assert len(csv_cell(uncertainty.fibonacci_number(cli._N_MAX_LIMIT + 1))) == 4300
            with pytest.raises(ValueError, match="integer string conversion"):
                csv_cell(uncertainty.fibonacci_number(cli._N_MAX_LIMIT + 2))
        finally:
            sys.set_int_max_str_digits(limit)

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
        # a NaN in the first zeta's row of the commutator stack
        real = verify._commutator_residuals

        def patched(*args, **kwargs):
            residuals = real(*args, **kwargs)
            lowering = np.array(residuals.number_lowering)
            lowering[0] = math.nan
            return dataclasses.replace(residuals, number_lowering=lowering)

        monkeypatch.setattr(verify, "_commutator_residuals", patched)
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

    @pytest.mark.parametrize("dim", [8, 36])
    def test_suite_floor_is_computed_once_per_command(self, run_cli, monkeypatch, dim):
        calls, real = [], verify.required_suite_dim
        monkeypatch.setattr(verify, "required_suite_dim", lambda suite: calls.append(suite) or real(suite))
        code, _, _ = run_cli(["verify", "--suite", "algebra", "--dim", str(dim)])
        assert (code, calls) == (2 if dim < real("algebra") else 0, ["algebra"])

    def test_suite_floor_dim_runs(self, run_cli):
        floor = required_suite_dim("algebra")
        code, out, err = run_cli(["verify", "--suite", "algebra", "--dim", str(floor)])
        assert (code, err) == (0, "")

    def test_seed_recorded(self, run_cli):
        code, out, _ = run_cli(["verify", "--suite", "fibonacci", "--n-max", "5", "--seed", "7"])
        assert code == 0
        assert json.loads(out)["seed"] == 7

    @pytest.mark.parametrize("suite", ["all", "fibonacci"])
    def test_negative_seed_exits_two_naming_the_flag(self, run_cli, monkeypatch, suite):
        calls = []
        for name in verify.SUITE_NAMES:
            monkeypatch.setattr(verify, f"_suite_{name}", lambda *args, _name=name: calls.append(_name) or [])
        code, out, err = run_cli(["verify", "--suite", suite, "--seed", "-1"])
        assert (code, out, err) == (2, "", "superq: error: --seed must be >= 0, got -1\n")
        assert calls == []

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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["state", "--theta", "1", "--n", "2", "--zeta-inf", "--zeta-re", "1"],
                "supply either --zeta-re/--zeta-im or --zeta-inf, not both",
            ),
            (["state", "--theta", "1", "--n", "-1", "--zeta-re", "1"], "supply either --theta or --n, not both"),
            (
                ["state", "--theta", "1", "--zeta-re", "1", "--zeta-inf", "--dim", "1"],
                "--dim must be >= 2, got 1",
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


class TestHugeDim:
    """A --dim too large to allocate exits 2 naming --dim, with no traceback.

    Each size asks for more than a 64-bit address space, so the allocation is
    refused before a page is touched.
    """

    COMMANDS = {
        "state": ["--theta", "1", "--zeta-re", "1"],
        "coherent": ["--theta", "1", "--zeta-re", "1", "--alpha-re", "0.5"],
        "concurrence": ["--theta", "1", "--zeta-re", "1"],
        "entropy": ["--zeta-re", "1"],
        "uncertainty": ["--theta", "1", "--zeta-re", "1"],
        "fibonacci": ["--n-max", "5"],
        "verify": [],
    }

    @pytest.mark.parametrize("dim", [10**17, 10**18, 10**20])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_two_naming_the_dim(self, run_cli, command, dim):
        code, out, err = run_cli([command, *self.COMMANDS[command], "--dim", str(dim)])
        assert (code, out) == (2, "")
        # above the largest dim whose (2, dim) complex128 array numpy can describe
        if dim > sys.maxsize // 32:
            assert err == f"superq: error: --dim must be <= {sys.maxsize // 32}, got {dim}\n"
        else:
            assert err.startswith("superq: error: --dim is too large to allocate: Unable to allocate ")

    def test_sweep_allocation_failure_names_the_grid(self, run_cli, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 EiB")

        monkeypatch.setattr(cli, "_super_qubit_grid", refuse)
        code, out, err = run_cli(["sweep", "--zeta-re", "1", "--grid", "3,3"])
        assert (code, out) == (2, "")
        assert err == "superq: error: --grid is too large to allocate: Unable to allocate 1.00 EiB\n"


class TestEnvironment:
    @pytest.mark.parametrize("from_env", [False, True])
    def test_sweep_dim_below_two_exits_two(self, run_cli, monkeypatch, from_env):
        argv = ["sweep", "--zeta-re", "1", "--grid", "3,3"]
        if from_env:
            monkeypatch.setenv("SUPERQ_DIM", "1")
        else:
            argv += ["--dim", "1"]
        assert run_cli(argv) == (2, "", "superq: error: --dim must be >= 2, got 1\n")

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
