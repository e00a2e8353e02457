"""Mutation gate for the two-route design: every emitted closed form is read by a check.

Each function below is put off by 1e-6 relative in every ``superq`` module
namespace that binds it, the way the benchmark's tracer rebinds functions; a
method is put off on its class.  Some take a mutation of their own:
collapse_probabilities is swapped to (p1, p0), since a relative error already
breaks its p0 + p1 = 1; quadrature_stats_closed has only its ``product`` put
off, the one field no other closed form produces; the oracle kernel
_quadrature_stats, whose moment array holds every field of each state, and
the grid kernels _mean_grid and _variance_grid are put off as a whole;
each operator builder has every diagonal of its operators put off;
bloch_cartesian has x and y swapped, since a relative error would trip
CartesianBloch's unit-vector check instead; zeta_to_bloch has its theta
shrunk by 1e-6 relative, since a grown theta at the pole would leave
[0, pi]; fibonacci_number, exact integers, returns one more;
quadrature_stats_numeric has only its ``var_x`` put off, and the Fibonacci
rows of fibonacci_ladder and _fibonacci_records their ``dispersion_numeric``;
the state builders super_qubit_state, super_coherent_state, flip_state and
n_superparticle_state have boson level 1 of both blocks turned by the phase
e^{i 1e-6}, which keeps the norm that the Gram kernel checks, and so do the
scalar low levels _low_levels, the stacks of the grid kernels
_super_qubit_grid, _undisplaced and _displace_low_levels and both closed
columns of displaced_columns and of its memo _memoised_columns;
and _grid_phases has every azimuth turned by 1e-6.
BLOCK_ONE_CAUGHT_BY pins the same builders once more, each with its whole
fermion-1 block turned by that phase, which keeps every quantity read block
by block.  The package's memos are cleared
once the mutant is bound, so that no entry of the unmutated function can hide
it.  A default ``verify --suite all`` at dim 64 must then fail exactly the
pinned checks.

The block norms feed the normalization check in front of every Gram
computation, so a mutant of ``_block_norms_sq``, or of the dot kernel
``_vecdot`` they read, fails no check: the CLI exits 1 on the unnormalized
state it built, a fault of the program, not of its arguments.

The pins are complete by construction: ``verify --suite all`` and one argv of
each emitting command run under ``sys.setprofile`` (the tracer of
``conftest``, which the surface audit shares), and every superq function
they reach outside ``cli``, ``serialize`` and ``errors`` must be pinned above
or named in ``EXEMPT`` with its reason.
"""

import cmath
import contextlib
import dataclasses
import importlib
import inspect
import io
import math

import numpy as np
import pytest

import superq.cli  # noqa: F401  so that the CLI's bindings are rebound too
from superq import superstate
from superq.cli import main as cli_main
from superq.verify import run_verify

from conftest import rebind

DIM = 64
RELATIVE_ERROR = 1e-6

# The paper claim each function emits, as the checks that fail when it is wrong.
CAUGHT_BY = {
    "moebius.concurrence_circle": ("geometric_concurrence_identity",),
    "uncertainty.golden_limit": ("golden_point_variance", "golden_gap_at_n20"),
    "entanglement._entropies": ("spectral_entropy_matches_closed_form",),
    "uncertainty._variance_grid": ("variance_quadratures_closed_vs_matrix",),
    "entanglement.collapse_probabilities": ("geometric_concurrence_identity",),
    "entanglement.concurrence_superqubit": ("superqubit_concurrence_closed_vs_gram",),
    "uncertainty.mean_quadratures_closed": ("mean_quadratures_closed_vs_matrix",),
    "uncertainty._mean_grid": ("mean_quadratures_closed_vs_matrix",),
    "entanglement.concurrence_n_state": (
        "n_state_concurrence_closed_vs_gram",
        "superqubit_concurrence_closed_vs_gram",
        "geometric_concurrence_identity",
    ),
    "entanglement.entropy_from_z": (
        "spectral_entropy_matches_closed_form",
        "entropy_pole_values",
    ),
    "uncertainty.variance_quadratures_closed": (
        "variance_quadratures_closed_vs_matrix",
        "five_eighths_point_closed",
        "golden_point_variance",
    ),
    "uncertainty._closed_variance": (
        "variance_quadratures_closed_vs_matrix",
        "five_eighths_point_closed",
        "golden_point_variance",
    ),
    "uncertainty.quadrature_stats_closed": ("variance_quadratures_closed_vs_matrix",),
    "fock.displacement_operator": ("closed_coherent_columns_vs_truncated_displacement",),
    "entanglement._concurrence": (
        "n_state_concurrence_closed_vs_gram",
        "superqubit_concurrence_closed_vs_gram",
        "gram_purity_identity",
        "spectral_entropy_matches_closed_form",
    ),
    "superstate._pole_probabilities": ("pole_probability_identity",),
    # the pole literal, and the probabilities of one state as state --theta and coherent read them
    "superstate._pole_levels": ("pole_probability_identity",),
    "superstate.pole_probabilities": ("pole_probability_identity",),
    # the block weights of |1, zeta> are the Gram pass's g00 and g11
    **dict.fromkeys(
        ("entanglement._gram_entries", "entanglement._gram_measures"),
        (
            "n_state_concurrence_closed_vs_gram",
            "superqubit_concurrence_closed_vs_gram",
            "gram_purity_identity",
            "spectral_entropy_matches_closed_form",
            "geometric_concurrence_identity",
        ),
    ),
    "uncertainty._quadrature_stats": (
        "mean_quadratures_closed_vs_matrix",
        "variance_quadratures_closed_vs_matrix",
        "five_eighths_point_numeric",
        *(f"fibonacci_record[n={n}]" for n in range(3, 21)),
    ),
    "superstate.super_annihilation": (
        "coherent_eigenrelation",
        "commutator_ladder",
        "flip_transposes_annihilation",
    ),
    "superstate.super_annihilation_transposed": (
        "flip_transposes_annihilation",
        "flipped_coherent_eigenrelation",
    ),
    "superstate.super_creation_gate": ("creation_gate_raises_vacuum",),
    "superstate.super_number_operator": (
        "commutator_number_lowering",
        "commutator_number_raising",
        "super_number_tensor_split",
    ),
    "superstate.flip_operator": (
        "flip_conjugates_fermion_number",
        "flip_involution",
        "flip_transposes_annihilation",
    ),
    "uncertainty.quadrature_operators": (
        "mean_quadratures_closed_vs_matrix",
        "variance_quadratures_closed_vs_matrix",
        "five_eighths_point_numeric",
        "quadrature_canonical_commutator",
        *(f"fibonacci_record[n={n}]" for n in range(3, 21)),
    ),
    "entanglement.DensityMatrix.purity": ("gram_purity_identity",),
    # purity reads eigenvalues, and the rank bound subtracts them from the trace
    "entanglement.DensityMatrix.eigenvalues": (
        "gram_purity_identity",
        "density_rank_bound",
        "spectral_entropy_matches_closed_form",
    ),
    "moebius.bloch_cartesian": (
        "mean_quadratures_closed_vs_matrix",
        "variance_quadratures_closed_vs_matrix",
    ),
    "moebius.zeta_to_bloch": ("geometric_concurrence_identity",),
    # one more seeds the ladder with F_1 + 1 = F_2 + 1 = 2, so it holds 2 F_n:
    # its ratios, and so the sign, convergence and golden-gap checks, stay exact
    "uncertainty.fibonacci_number": tuple(f"fibonacci_record[n={n}]" for n in range(3, 21)),
    "uncertainty.quadrature_stats_numeric": ("five_eighths_point_numeric",),
    **dict.fromkeys(
        ("uncertainty.fibonacci_ladder", "uncertainty._fibonacci_records"),
        tuple(f"fibonacci_record[n={n}]" for n in range(3, 21)),
    ),
    # the eigen suite's builder row, and the 5/8 point, which super_coherent_state builds here at alpha = 0
    "superstate.super_qubit_state": ("five_eighths_point_numeric", "reference_annihilation"),
    "superstate.super_coherent_state": (
        "five_eighths_point_numeric",
        "coherent_eigenrelation",
        "flipped_coherent_eigenrelation",
    ),
    "superstate.flip_state": ("flip_commutes_with_displacement", "flipped_coherent_eigenrelation"),
    "superstate.n_superparticle_state": ("creation_gate_raises_vacuum",),
    # the scalar low levels, and the grid and column kernels, each with level 1
    # turned as the state builders' is
    "superstate._low_levels": (
        "five_eighths_point_numeric",
        "coherent_eigenrelation",
        "flipped_coherent_eigenrelation",
        "reference_annihilation",
    ),
    "superstate._super_qubit_grid": (
        *(f"fibonacci_record[n={n}]" for n in range(3, 21)),
        "reference_annihilation",
        "coherent_eigenrelation",
        "flipped_coherent_eigenrelation",
        "mean_quadratures_closed_vs_matrix",
        "variance_quadratures_closed_vs_matrix",
        "symmetric_point_variance_equality_numeric",
    ),
    "superstate._undisplaced": (
        *(f"fibonacci_record[n={n}]" for n in range(3, 21)),
        "five_eighths_point_numeric",
        "reference_annihilation",
        "mean_quadratures_closed_vs_matrix",
        "variance_quadratures_closed_vs_matrix",
        "variance_alpha_independence",
        "symmetric_point_variance_equality_numeric",
    ),
    "superstate._displace_low_levels": (
        "coherent_eigenrelation",
        "flipped_coherent_eigenrelation",
        "mean_quadratures_closed_vs_matrix",
        "variance_quadratures_closed_vs_matrix",
        "variance_alpha_independence",
    ),
    **dict.fromkeys(
        ("fock.displaced_columns", "fock._memoised_columns"),
        (
            "closed_coherent_columns_vs_truncated_displacement",
            "coherent_eigenrelation",
            "flipped_coherent_eigenrelation",
            "mean_quadratures_closed_vs_matrix",
            "variance_quadratures_closed_vs_matrix",
            "variance_alpha_independence",
        ),
    ),
    # phi turned by RELATIVE_ERROR at every grid point, which moves the
    # symmetric family's states and its closed variances off phi = pi/4
    "moebius._grid_phases": (
        *(f"fibonacci_record[n={n}]" for n in range(3, 21)),
        "mean_quadratures_closed_vs_matrix",
        "variance_quadratures_closed_vs_matrix",
        "symmetric_point_variance_equality_closed",
        "symmetric_point_variance_equality_numeric",
    ),
}

# The state builders with the whole fermion-1 block turned by e^{i 1e-6}.
BLOCK_ONE_CAUGHT_BY = {
    "superstate.super_qubit_state": ("reference_annihilation",),
    "superstate.super_coherent_state": ("coherent_eigenrelation", "flipped_coherent_eigenrelation"),
    "superstate.flip_state": ("flipped_coherent_eigenrelation",),
    "superstate.n_superparticle_state": ("creation_gate_raises_vacuum",),
}


# Functions an emitting command reaches that no mutation above pins, each with
# the reason it needs none, or why it has none yet.
CHECKER = "verify's own arithmetic: only verify reaches it, and no command emits it"
POST_INIT = "a dataclass __post_init__: it checks its fields and keeps a canonical copy"
VALIDATOR = "a validator: it returns its input, canonical, or raises"
GUARD = "the displacement guard: it accepts a dim or raises TruncationError"
NORM_STOP = (
    "off by 1e-6 it unnormalizes the closed columns, and verify stops on the norm check (exit 1)"
    " before a check can fail, as a _block_norms_sq mutant does; the pinned displaced_columns reads it"
)
CHECKER_FUNCTIONS = {
    "superstate.BlockOperator": (
        "__add__", "__sub__", "__matmul__", "_entrywise", "_joint_stack", "dagger", "fermion_diagonal", "max_abs",
    ),
    "superstate": ("_band_matmul", "_commutator_residuals", "_norms", "_stacked"),
    "verify.Check": ("passed",),
    "verify.VerificationReport": ("all_passed", "max_residual", "passed", "to_payload", "total"),
    "verify": (
        *(f"_suite_{suite}" for suite in ("algebra", "eigen", "entangle", "uncertainty", "fibonacci")),
        "_above_root5", "_eigen_gaps", "_finite_or_none", "_random_states",
        "_selected_suites", "_worst", "required_suite_dim", "run_verify",
    ),
}
EXEMPT = {
    "entanglement.DensityMatrix.__post_init__": (
        "a dataclass __post_init__: it checks the factor's norm and keeps the factor and its SVD spectrum,"
        " which the pinned eigenvalues returns"
    ),
    "entanglement._checked_z": VALIDATOR,
    "entanglement._require_normalized": "the norm check in front of the Gram kernel and of rho; it raises or returns None",
    "entanglement.concurrence_gram": "the one-state wrapper of the pinned _gram_entries and _concurrence",
    "fock._guard_floor": GUARD,
    "fock.required_displacement_dim": GUARD,
    "fock.ensure_displacement_dim": GUARD,
    "fock._require_two_levels": VALIDATOR,
    "fock._ladder_entries": "the sqrt(n) entries of the pinned operator builders and of boson_annihilator",
    "fock.boson_annihilator": "the dense a that the pinned displacement_operator exponentiates",
    "fock._log_coherent_moduli": NORM_STOP,
    "fock._log_factorials": NORM_STOP,
    "fock.oracle_columns": "the memo of the pinned displacement_operator's first two columns",
    "fock._memoised_oracle_columns": "the memo of the pinned displacement_operator's first two columns",
    "moebius.BlochPoint.__post_init__": POST_INIT,
    "moebius.CartesianBloch.__post_init__": POST_INIT,
    "moebius.ExtendedComplex.__post_init__": POST_INIT,
    "moebius.ExtendedComplex.from_value": "a constructor of the zeta value type",
    "moebius.ExtendedComplex.infinity": "a constructor of the zeta value type",
    "moebius.ExtendedComplex.is_infinite": "the pole test v == 0 of the zeta value type",
    "moebius._at_pole": VALIDATOR,
    "moebius._checked_theta": VALIDATOR,
    "moebius._reduced_phi": VALIDATOR,
    "moebius._cartesian_grid": "the grid twin of the pinned bloch_cartesian, read by the pinned _variance_grid",
    "superstate.BlockOperator.__post_init__": POST_INIT,
    "superstate._checked_band": "the field check and copy behind BlockOperator.__post_init__",
    "superstate.CoherentParams.__post_init__": POST_INIT,
    "superstate.SuperQubitParams.__post_init__": POST_INIT,
    "superstate.SuperVector.__post_init__": POST_INIT,
    "superstate.BlockOperator.apply_coeffs": "the banded apply inside the pinned _quadrature_stats and the eigen checks",
    "superstate._band_apply": "the banded apply inside the pinned _quadrature_stats and the eigen checks",
    "superstate._scalar_band": "a scalar diagonal of the pinned operator builders",
    "superstate._minus_inverse": "the -1/zeta entry of the pinned super_annihilation and its transpose",
    **dict.fromkeys(
        ("superstate._block_norms_sq", "superstate._vecdot"),
        "mutated, verify, state and sweep exit 1 on the norm check (test_block_norms_mutant_exits_one)",
    ),
    "uncertainty._memoised_quadratures": "the memo behind the pinned quadrature_operators",
    **{f"{owner}.{name}": CHECKER for owner, names in CHECKER_FUNCTIONS.items() for name in names},
}


def off(value):
    """value times 1 + RELATIVE_ERROR, element by element in tuples and lists."""
    if isinstance(value, (tuple, list)):
        return type(value)(off(item) for item in value)
    return value * (1.0 + RELATIVE_ERROR)


def swapped(value):
    p0, p1 = value
    return p1, p0


def product_off(stats):
    return dataclasses.replace(stats, product=off(stats.product))


def bands_off(value):
    """Every diagonal of each BlockOperator, alone or in a tuple, times 1 + RELATIVE_ERROR."""
    if isinstance(value, tuple):
        return tuple(map(bands_off, value))
    bands = tuple({offset: off(diagonal) for offset, diagonal in band.items()} for band in value.bands)
    return type(value)(value.dim, bands)


def xy_swapped(point):
    return type(point)(point.y, point.x, point.z)


def theta_shrunk(point):
    """theta times 1 - RELATIVE_ERROR, which keeps it in [0, pi]."""
    return dataclasses.replace(point, theta=point.theta * (1.0 - RELATIVE_ERROR))


def plus_one(number):
    return number + 1


def var_x_off(stats):
    return dataclasses.replace(stats, var_x=off(stats.var_x))


def dispersions_off(records):
    """Each Fibonacci record with its dispersion_numeric times 1 + RELATIVE_ERROR."""
    return [dataclasses.replace(record, dispersion_numeric=off(record.dispersion_numeric)) for record in records]


def stack_level_one_phased(coeffs):
    """Boson level 1 (the last axis) of every block times e^{i RELATIVE_ERROR}, which keeps each norm."""
    coeffs = np.array(coeffs)
    coeffs[..., 1] *= cmath.exp(1j * RELATIVE_ERROR)
    return coeffs


def level_one_phased(state):
    """Boson level 1 of both blocks of a state times e^{i RELATIVE_ERROR}."""
    return type(state)(stack_level_one_phased(state.coeffs))


def columns_level_one_phased(columns):
    """Level 1 of both closed columns D|0> and D|1> times e^{i RELATIVE_ERROR}."""
    return tuple(map(stack_level_one_phased, columns))


def phi_turned(phases):
    """Each (cos phi, sin phi) of the grid rotated to phi + RELATIVE_ERROR."""
    cos_phi, sin_phi = phases
    c, s = math.cos(RELATIVE_ERROR), math.sin(RELATIVE_ERROR)
    return cos_phi * c - sin_phi * s, sin_phi * c + cos_phi * s


def block_one_phased(state):
    """The whole fermion-1 block times e^{i RELATIVE_ERROR}, which keeps both block norms."""
    coeffs = np.array(state.coeffs)
    coeffs[1] *= cmath.exp(1j * RELATIVE_ERROR)
    return type(state)(coeffs)


BUILDERS = (
    "superstate.super_annihilation",
    "superstate.super_annihilation_transposed",
    "superstate.super_creation_gate",
    "superstate.super_number_operator",
    "superstate.flip_operator",
    "uncertainty.quadrature_operators",
)

STATE_BUILDERS = (
    "superstate.super_qubit_state",
    "superstate.super_coherent_state",
    "superstate.flip_state",
    "superstate.n_superparticle_state",
)

STACK_KERNELS = (
    "superstate._super_qubit_grid",
    "superstate._undisplaced",
    "superstate._displace_low_levels",
)

MUTATIONS = {
    "entanglement.collapse_probabilities": swapped,
    "uncertainty.quadrature_stats_closed": product_off,
    "moebius.bloch_cartesian": xy_swapped,
    "moebius.zeta_to_bloch": theta_shrunk,
    "uncertainty.fibonacci_number": plus_one,
    "uncertainty.quadrature_stats_numeric": var_x_off,
    "uncertainty.fibonacci_ladder": dispersions_off,
    "uncertainty._fibonacci_records": dispersions_off,
    **dict.fromkeys(STATE_BUILDERS, level_one_phased),
    **dict.fromkeys(STACK_KERNELS, stack_level_one_phased),
    "superstate._low_levels": stack_level_one_phased,
    "fock.displaced_columns": columns_level_one_phased,
    "fock._memoised_columns": columns_level_one_phased,
    "moebius._grid_phases": phi_turned,
    **dict.fromkeys(BUILDERS, bands_off),
}


def mutant(func, mutation):
    def wrapper(*args, **kwargs):
        return mutation(func(*args, **kwargs))

    return wrapper


def failed_checks() -> set[str]:
    return {check.name for check in run_verify("all", DIM).checks if not check.passed}


def bind_mutant(monkeypatch, qualified, mutation) -> None:
    """Bind the mutant of the function named ``module.name`` (or ``module.Class.name``)."""
    module_name, *path = qualified.split(".")
    owner = importlib.import_module(f"superq.{module_name}")
    for name in path[:-1]:
        owner = getattr(owner, name)
    original = getattr(owner, path[-1])
    replacement = mutant(original, mutation)
    if inspect.isclass(owner):
        monkeypatch.setattr(owner, path[-1], replacement)
    else:
        assert rebind(monkeypatch, original, replacement) >= 1


@pytest.mark.parametrize("qualified", sorted(CAUGHT_BY))
def test_mutant_fails_the_pinned_checks(monkeypatch, cold_memos, qualified):
    bind_mutant(monkeypatch, qualified, MUTATIONS.get(qualified, off))
    cold_memos()
    assert failed_checks() == set(CAUGHT_BY[qualified])


@pytest.mark.parametrize("qualified", sorted(BLOCK_ONE_CAUGHT_BY))
def test_block_one_phase_fails_the_pinned_checks(monkeypatch, cold_memos, qualified):
    bind_mutant(monkeypatch, qualified, block_one_phased)
    cold_memos()
    assert failed_checks() == set(BLOCK_ONE_CAUGHT_BY[qualified])


@pytest.mark.parametrize("kernel", ["_block_norms_sq", "_vecdot"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "all", "--dim", str(DIM)],
        ["state", "--theta", "1", "--zeta-re", "1"],
        ["sweep", "--zeta-re", "1", "--grid", "3,3"],
    ],
)
def test_block_norms_mutant_exits_one(monkeypatch, cold_memos, argv, kernel):
    original = getattr(superstate, kernel)
    assert rebind(monkeypatch, original, mutant(original, off)) >= 1
    cold_memos()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("superq: numerical consistency failure: state norm^2 = 1.000001")


def test_every_traced_function_is_pinned_or_exempt(emitting_reach):
    reached = {name for name in emitting_reach if name.split(".")[0] not in ("cli", "serialize", "errors")}
    pinned = set(CAUGHT_BY) | set(BLOCK_ONE_CAUGHT_BY)
    assert not pinned & set(EXEMPT)
    assert reached - pinned - set(EXEMPT) == set()
    # every entry names a function that an emitting command still reaches
    assert set(EXEMPT) - reached == set() and pinned - reached == set()
