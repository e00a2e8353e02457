"""Command-line interface: state construction, verification suites, tables.

Data goes to standard output with frozen JSON/CSV schemas; diagnostics go to
standard error.  Exit codes: 0 emission or verification succeeded, 1
verification, numerical or I/O failure, 2 invalid arguments (including
values the truncated space cannot support and sizes too large to allocate).

A command's flags are parsed straight from its table of declared flags when
every token is an exact flag with a value argparse would read the same way;
every other argv (help, abbreviations, unknown or malformed flags) goes to
argparse, the one source of help text and usage errors, which is imported
and whose parser is built only then.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .entanglement import (
    _gram_measures,
    collapse_probabilities,
    concurrence_gram,
    concurrence_n_state,
    concurrence_superqubit,
    entropy_from_z,
)
from .errors import NormalizationError, TruncationError
from .fock import DEFAULT_DIM
from .moebius import (
    ExtendedComplex,
    _grid_phases,
    concurrence_circle,
    zeta_to_bloch,
)
from .serialize import csv_cell, csv_text, dumps
from .superstate import (
    CoherentParams,
    SuperQubitParams,
    _pole_levels,
    _pole_probabilities,
    _super_qubit_grid,
    n_superparticle_state,
    pole_probabilities,
    super_coherent_state,
)
from .uncertainty import (
    _variance_grid,
    fibonacci_ladder,
    golden_limit,
    quadrature_stats_closed,
    quadrature_stats_numeric,
)
from .verify import DEFAULT_SEED, DEFAULT_TOL, SUITE_NAMES, run_verify

if TYPE_CHECKING:
    import argparse

__all__ = ["main"]

DIM_ENV_VAR = "SUPERQ_DIM"

SWEEP_HEADER = [
    "theta",
    "phi",
    "zeta_re",
    "zeta_im",
    "concurrence_closed",
    "concurrence_gram",
    "entropy_bits",
    "p0",
    "p1",
    "var_x",
    "var_p",
]

FIBONACCI_HEADER = [
    "n",
    "fib_n",
    "zeta_sq_num",
    "zeta_sq_den",
    "dispersion_num",
    "dispersion_den",
    "dispersion_numeric",
    "golden_gap",
]

class UsageError(ValueError):
    """Invalid flag combination or parameter value (exit code 2)."""


# The largest --n-max: row n prints F_{n+1} as a decimal integer, and F_20578
# is the first Fibonacci number longer than the 4,300 digits Python converts
# between int and str by default (sys.int_info.default_max_str_digits).
_N_MAX_LIMIT = 20576

# The flag groups _COMMANDS names, and --dim, which every command reads, as add_argument calls.
_FLAG_GROUPS = {
    "zeta": (
        ("--zeta-re", dict(type=float, default=None, help="Re zeta")),
        ("--zeta-im", dict(type=float, default=None, help="Im zeta")),
        (
            "--zeta-inf",
            dict(action="store_true", help="place zeta at the pole of the extended complex plane"),
        ),
    ),
    "angles": (
        ("--theta", dict(type=float, default=None, help="polar angle in [0, pi]")),
        ("--phi", dict(type=float, default=0.0, help="azimuth, reduced mod 2*pi")),
    ),
    "alpha": (
        ("--alpha-re", dict(type=float, default=0.0, help="Re alpha")),
        ("--alpha-im", dict(type=float, default=0.0, help="Im alpha")),
    ),
    "n": (("--n", dict(type=int, default=None, help="use |n, zeta> instead of --theta/--phi")),),
    "n_max": (
        (
            "--n-max",
            dict(type=int, default=20, help=f"last Fibonacci ladder index (3 to {_N_MAX_LIMIT})"),
        ),
    ),
    "grid": (
        ("--grid", dict(type=str, default="25,25", help="theta,phi point counts (default 25,25)")),
    ),
    "suite": (
        (
            "--suite",
            dict(default="all", help=f"one of all, {', '.join(SUITE_NAMES)} (default all)"),
        ),
        (
            "--tol",
            dict(
                type=float,
                default=DEFAULT_TOL,
                help=(
                    "tolerance for closed-vs-oracle numeric comparisons "
                    "(structural identities keep pinned tolerances)"
                ),
            ),
        ),
        ("--seed", dict(type=int, default=DEFAULT_SEED, help="seed for random-state checks")),
    ),
    "dim": (
        (
            "--dim",
            dict(
                type=int,
                default=None,
                help=f"Fock truncation size (default {DEFAULT_DIM}, or ${DIM_ENV_VAR})",
            ),
        ),
    ),
}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser by name, built from _COMMANDS.

    Built on the first call and reused: parsing leaves them unchanged.
    argparse is imported here, so a well-formed argv never loads it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="superq",
        description=(
            "Construct super-qubit/super-coherent states on a truncated "
            "fermion-boson space and verify their closed-form properties "
            "against dense matrix oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (help, _, _) in _COMMANDS.items():
        command = commands[name] = sub.add_parser(name, help=help)
        for flag, spec in _flag_specs(name):
            command.add_argument(flag, **spec)
    return parser, commands


def _flag_specs(command: str) -> list[tuple[str, dict]]:
    """command's (flag, add_argument keywords) pairs: its _COMMANDS groups, then --dim."""
    _, _, groups = _COMMANDS[command]
    return [pair for group in (*groups, "dim") for pair in _FLAG_GROUPS[group]]


@functools.cache
def _flag_table(command: str) -> tuple[dict[str, tuple[str, type | None, bool]], dict[str, object]]:
    """command's flags as _parse_direct reads them, and the namespace argparse starts from.

    Each flag maps to its dest, its declared type (None where it declares
    none) and whether it is a store_true flag; the defaults are argparse's:
    False for a store_true flag, else the declared default or None.  Built
    from _flag_specs, as its subparser is.
    """
    flags, defaults = {}, {}
    for flag, spec in _flag_specs(command):
        dest = flag[2:].replace("-", "_")
        store_true = spec.get("action") == "store_true"
        flags[flag] = dest, spec.get("type"), store_true
        defaults[dest] = False if store_true else spec.get("default")
    return flags, defaults


def _parse_direct(command: str, tokens: list[str]) -> SimpleNamespace | None:
    """tokens parsed from command's flag table, or None for an argv argparse must parse.

    Reads only exact declared flags: a store_true flag alone, any other as
    --flag=value or as --flag value with a value that does not start with
    "-", and each value through its flag's type.  On that subset argparse's
    namespace holds the same attributes; anything else (-h, an abbreviation,
    an unknown flag or word, "--", a missing or "-"-led value, a failed
    conversion) is None, and argparse parses it with its own help and errors.
    """
    flags, defaults = _flag_table(command)
    values = dict(defaults)
    tokens = iter(tokens)
    for token in tokens:
        flag, sep, raw = token.partition("=")
        if flag not in flags:
            return None
        dest, convert, store_true = flags[flag]
        if store_true:
            if sep:
                return None
            values[dest] = True
            continue
        if not sep:
            # a missing value reads as "-", declined as a "-"-led value is
            raw = next(tokens, "-")
            if raw.startswith("-"):
                return None
        try:
            values[dest] = raw if convert is None else convert(raw)
        except ValueError:
            return None
    return SimpleNamespace(**values)


def _resolve_dim(args) -> int:
    if args.dim is not None:
        dim = args.dim
    else:
        raw = os.environ.get(DIM_ENV_VAR)
        if raw is None:
            dim = DEFAULT_DIM
        else:
            try:
                dim = int(raw)
            except ValueError:
                raise UsageError(f"{DIM_ENV_VAR} must be an integer, got {raw!r}")
    if dim < 2:
        raise UsageError(f"--dim must be >= 2, got {dim}")
    # the largest dim for which numpy can describe a (2, dim) complex128 array
    if dim > sys.maxsize // 32:
        raise UsageError(f"--dim must be <= {sys.maxsize // 32}, got {dim}")
    return dim


def _require_finite(flag: str, value: float | None, hint: str = "") -> None:
    if value is not None and not math.isfinite(value):
        raise UsageError(f"{flag} must be finite, got {value}{hint}")


def _resolve_zeta(args) -> ExtendedComplex:
    has_finite = args.zeta_re is not None or args.zeta_im is not None
    if args.zeta_inf and has_finite:
        raise UsageError("supply either --zeta-re/--zeta-im or --zeta-inf, not both")
    if args.zeta_inf:
        return ExtendedComplex.infinity()
    if not has_finite:
        raise UsageError("zeta is required: supply --zeta-re/--zeta-im or --zeta-inf")
    for flag, value in (("--zeta-re", args.zeta_re), ("--zeta-im", args.zeta_im)):
        _require_finite(flag, value, "; use --zeta-inf for the pole")
    return ExtendedComplex.from_value(complex(*_zeta_parts(args)))


def _zeta_parts(args) -> tuple[float, float]:
    """(--zeta-re, --zeta-im) as given, an omitted part read as 0."""
    re = args.zeta_re if args.zeta_re is not None else 0.0
    im = args.zeta_im if args.zeta_im is not None else 0.0
    return re, im


def _parse_grid(raw: str) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise UsageError(f"--grid expects T,P, got {raw!r}")
    try:
        t_count, p_count = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--grid expects two integers, got {raw!r}")
    if t_count < 1 or p_count < 1:
        raise UsageError(f"--grid counts must be positive, got {raw!r}")
    return t_count, p_count


def _validate(args) -> None:
    """Check the parsed flags and store the resolved dim, zeta, alpha and grid on args.

    Each check runs when the command has the flag it reads, in a fixed
    order, so an argv that breaks several rules is refused for the first.
    """
    args.dim = _resolve_dim(args)
    if hasattr(args, "tol") and not 0 < args.tol < math.inf:
        raise UsageError(f"--tol must be positive and finite, got {args.tol}")
    if hasattr(args, "n_max") and not 3 <= args.n_max <= _N_MAX_LIMIT:
        raise UsageError(f"--n-max must be in [3, {_N_MAX_LIMIT}], got {args.n_max}")
    # verify's last check, --dim against its suite's floor, is run_verify's own
    if hasattr(args, "seed") and args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if hasattr(args, "zeta_inf"):
        args.zeta = _resolve_zeta(args)
    if hasattr(args, "grid"):
        args.grid = _parse_grid(args.grid)
    if not hasattr(args, "theta"):
        return
    for flag in ("theta", "phi", "alpha_re", "alpha_im"):
        _require_finite("--" + flag.replace("_", "-"), getattr(args, flag, None))
    args.n = getattr(args, "n", None)
    if args.n is not None:
        if args.theta is not None:
            raise UsageError("supply either --theta or --n, not both")
        if args.n < 0:
            raise UsageError(f"--n must be nonnegative, got {args.n}")
    elif args.theta is None:
        raise UsageError(f"command {args.command!r} requires --theta (or --n where supported)")
    args.alpha = complex(getattr(args, "alpha_re", 0.0), getattr(args, "alpha_im", 0.0))


def _zeta_payload(args):
    return "inf" if args.zeta_inf else list(_zeta_parts(args))


def _selection(args):
    """The --theta/--phi point as CoherentParams (None for --n), its closed concurrence and its params.

    alpha is 0 for a command without --alpha-re/--alpha-im.
    """
    if args.n is not None:
        return None, concurrence_n_state(args.zeta), {"n": args.n, "zeta": _zeta_payload(args)}
    base = SuperQubitParams(args.theta, args.phi, args.zeta)
    params = {"theta": base.theta, "phi": base.phi, "zeta": _zeta_payload(args)}
    return CoherentParams(args.alpha, base), concurrence_superqubit(base.theta, args.zeta), params


def _selected_state(args, coherent: CoherentParams | None):
    """The state the flags select: |n, zeta> for --n, else the super-coherent state of coherent."""
    if coherent is None:
        return n_superparticle_state(args.n, args.zeta, args.dim)
    return super_coherent_state(coherent, args.dim)


def _emit_state(args) -> str:
    coherent, closed, params = _selection(args)
    params["alpha"] = [args.alpha.real, args.alpha.imag]
    state = _selected_state(args, coherent)
    g00, g11, gram, entropy = map(float, _gram_measures(state.coeffs))
    # --n prints the fermion-sector weights, the pole-collapse probabilities on the zeta sphere
    p0, p1 = (g00, g11) if coherent is None else pole_probabilities(state, args.zeta, coherent.alpha)
    # each block as its (dim, 2) float64 [re, im] view
    pairs0, pairs1 = state.coeffs.view(np.float64).reshape(2, -1, 2)
    payload = {
        "dim": args.dim,
        "params": params,
        "psi0": pairs0,
        "psi1": pairs1,
        "norm": math.sqrt(g00 + g11),
        "concurrence_closed": closed,
        "concurrence_gram": gram,
        "entropy_bits": entropy,
        "p0": p0,
        "p1": p1,
    }
    return dumps(payload)


def _emit_concurrence(args) -> str:
    coherent, closed, params = _selection(args)
    gram = concurrence_gram(_selected_state(args, coherent))
    payload = {
        "dim": args.dim,
        "params": params,
        "concurrence_closed": closed,
        "concurrence_gram": gram,
        "abs_difference": abs(closed - gram),
    }
    return dumps(payload)


def _emit_entropy(args) -> str:
    point = zeta_to_bloch(args.zeta)
    closed, z = concurrence_circle(point.theta)
    state = n_superparticle_state(1, args.zeta, args.dim)
    _, _, gram, entropy = map(float, _gram_measures(state.coeffs))
    p0, p1 = collapse_probabilities(z)
    payload = {
        "dim": args.dim,
        "params": {"zeta": _zeta_payload(args)},
        "theta1": point.theta,
        "z": z,
        "concurrence_closed": closed,
        "concurrence_gram": gram,
        "entropy_bits_closed": entropy_from_z(z),
        "entropy_bits_spectral": entropy,
        "p0": p0,
        "p1": p1,
    }
    return dumps(payload)


def _emit_uncertainty(args) -> str:
    coherent, _, params = _selection(args)
    params["alpha"] = [args.alpha.real, args.alpha.imag]
    closed = quadrature_stats_closed(coherent)
    numeric = quadrature_stats_numeric(coherent, args.dim)
    # np.max keeps a NaN gap wherever it sits; the builtin max drops one that is not first
    fields = ("mean_x", "mean_p", "var_x", "var_p")
    gaps = [abs(getattr(closed, name) - getattr(numeric, name)) for name in fields]
    payload = {
        "dim": args.dim,
        "params": params,
        # each instance dict holds the float fields in declaration order
        "closed": vars(closed),
        "numeric": vars(numeric),
        "max_abs_difference": float(np.max(gaps)),
    }
    return dumps(payload)


def sweep_thetas(t_count: int) -> list[float]:
    """t_count polar angles evenly spaced over [0, pi], both ends included when t_count > 1.

    The last angle is set to pi itself: pi * (T-1) / (T-1) rounds above pi
    for some T (14, 27, 48, ...), where it would be refused.
    """
    thetas = [math.pi * i / max(t_count - 1, 1) for i in range(t_count)]
    if t_count > 1:
        thetas[-1] = math.pi
    return thetas


def _emit_sweep(args) -> str:
    """The sweep CSV, each column evaluated for the whole grid at once.

    At alpha = 0 every state lives on boson levels 0 and 1, so the grid's
    states are their (T*P, 2, 2) low levels at any --dim; the oracle columns
    come from them through the single-state commands' kernels and the closed
    columns from the angles.  On a grid those kernels pad the dots to 8
    levels, add the four products of each 2-level pole overlap as whole-grid
    adds and, from 64 states on, take one log2 per distinct eigenvalue of the
    grid's spectra.
    Each theta, phi and closed-concurrence text is formatted once and reaches
    ``csv_text`` as one str repeated down its column, the zeta cells joined to
    the closed concurrence's, so no row lead is built per row.
    """
    t_count, p_count = args.grid
    thetas = sweep_thetas(t_count)
    phis = [2.0 * math.pi * j / p_count for j in range(p_count)]
    zeta_re, zeta_im = (math.inf, 0.0) if args.zeta_inf else _zeta_parts(args)
    phases = _grid_phases(thetas, phis)
    coeffs = _super_qubit_grid(thetas, *phases, [args.zeta])
    p0, p1 = _pole_probabilities(coeffs, _pole_levels(args.zeta))
    var_x, var_p = _variance_grid(thetas, *phases, [args.zeta])
    _, _, gram, entropy = _gram_measures(coeffs)
    # zeta and the closed concurrence stand side by side in every row, so
    # they are one str cell
    zeta_cells = f"{csv_cell(zeta_re)},{csv_cell(zeta_im)}"
    theta_column, closed_column = [], []
    for theta in thetas:
        theta_column += [csv_cell(theta)] * p_count
        closed_column += [f"{zeta_cells},{csv_cell(concurrence_superqubit(theta, args.zeta))}"] * p_count
    phi_column = [csv_cell(phi) for phi in phis] * t_count
    columns = [theta_column, phi_column, closed_column, gram, entropy, p0, p1, var_x, var_p]
    return csv_text(SWEEP_HEADER, columns)


def _emit_fibonacci(args) -> str:
    _, dispersion = golden_limit()
    rows = [
        [
            record.n,
            record.fib_n,
            record.zeta_sq.numerator,
            record.zeta_sq.denominator,
            record.dispersion_closed.numerator,
            record.dispersion_closed.denominator,
            record.dispersion_numeric,
            abs(float(record.dispersion_closed) - dispersion),
        ]
        for record in fibonacci_ladder(args.n_max, args.dim)
    ]
    return csv_text(FIBONACCI_HEADER, list(zip(*rows)))


def _run_verify(args) -> int:
    try:
        report = run_verify(
            suite=args.suite, dim=args.dim, tol=args.tol, seed=args.seed, n_max=args.n_max
        )
    except TruncationError as exc:  # raised before any suite runs, for a dim below the suite's floor
        raise UsageError(
            f"--dim must be >= {exc.required_dim} for verify --suite {args.suite}, got {args.dim}"
        ) from None
    print(dumps(report.to_payload()))
    if not report.all_passed:
        failed = [check.name for check in report.checks if not check.passed]
        print(f"superq: {len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# Each command: its help line, the function that runs it and the flag groups
# of _FLAG_GROUPS it reads besides --dim.  verify's function prints its report
# and returns the exit code; every other one returns the text to print.
_COMMANDS = {
    "state": ("emit a super-qubit or n super-particle state", _emit_state, ("zeta", "angles", "n")),
    "coherent": ("emit a super-coherent state", _emit_state, ("zeta", "angles", "alpha")),
    "concurrence": ("closed-form vs Gram concurrence", _emit_concurrence, ("zeta", "angles", "n")),
    "entropy": (
        "one-super-particle sphere geometry: entropy and probabilities",
        _emit_entropy,
        ("zeta",),
    ),
    "uncertainty": (
        "quadrature moments, closed vs matrix",
        _emit_uncertainty,
        ("zeta", "angles", "alpha"),
    ),
    "fibonacci": ("Fibonacci dispersion ladder as CSV", _emit_fibonacci, ("n_max",)),
    "sweep": ("CSV sweep over the (theta, phi) grid", _emit_sweep, ("zeta", "grid")),
    "verify": ("run a verification suite", _run_verify, ("suite", "n_max")),
}


def _parse_args(argv) -> SimpleNamespace | argparse.Namespace:
    """argv parsed as the top-level parser would; argv[1:] is read for the command argv[0] names.

    The top-level parser only picks the subparser named by argv[0], so an
    argv that starts with a command skips it: _parse_direct reads the rest,
    and where it declines, the command's subparser does, and leftover
    arguments are refused by the top-level parser, with its usage line, as
    its own parse would refuse them.  Any other argv (empty, -h, an unknown
    command) goes to the top-level parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    args = _parse_direct(command, argv[1:]) if command in _COMMANDS else None
    if args is None:
        parser, commands = _build_parser()
        if command not in commands:
            return parser.parse_args(argv)
        args, extras = commands[command].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = command
    return args


def main(argv=None) -> int:
    return _run(_parse_args(argv))


def _run(args: SimpleNamespace | argparse.Namespace) -> int:
    """Validate the parsed flags, run the command and map its failures to exit codes."""
    try:
        _validate(args)
        _, run, _ = _COMMANDS[args.command]
        if args.command == "verify":
            return run(args)
        print(run(args))
        return 0
    except NormalizationError as exc:
        # the CLI normalizes only states it built: an unnormalized one is the program's fault
        print(f"superq: numerical consistency failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # UsageError and the package's parameter and truncation errors
        print(f"superq: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        flag = "--grid" if args.command == "sweep" else "--dim"
        print(f"superq: error: {flag} is too large to allocate: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"superq: I/O failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
