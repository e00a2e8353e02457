"""Mutation gate for the two-route design: every emitted closed form is read by a check.

Each function below is put off by 1e-6 relative in every ``superq`` module
namespace that binds it, the way the benchmark's tracer rebinds functions; a
method is put off on its class.  Some take a mutation of their own:
collapse_probabilities is swapped to (p1, p0), since a relative error already
breaks its p0 + p1 = 1; quadrature_stats_closed has only its ``product`` put
off, the one field no other closed form produces; the oracle kernel
_quadrature_stats has every field of each returned QuadratureStats put off;
each operator builder has every diagonal of its operators put off;
bloch_cartesian has x and y swapped, since a relative error would trip
CartesianBloch's unit-vector check instead; zeta_to_bloch has its theta
shrunk by 1e-6 relative, since a grown theta at the pole would leave
[0, pi]; fibonacci_number, exact integers, returns one more;
quadrature_stats_numeric has only its ``var_x`` put off; and the state
builders super_qubit_state, super_coherent_state and flip_state have boson
level 1 of both blocks turned by the phase e^{i 1e-6}, which keeps the norm
that the Gram kernel checks.  BLOCK_ONE_CAUGHT_BY pins the same builders
once more, each with its whole fermion-1 block turned by that phase, which
keeps every quantity read block by block.  The package's memos are cleared
once the mutant is bound, so that no entry of the unmutated function can hide
it.  A default ``verify --suite all`` at dim 64 must then fail exactly the
pinned checks.

The block norms feed the normalization check in front of every Gram
computation, so a mutant of ``_block_norms_sq`` fails no check: the CLI exits
1 on the unnormalized state it built, a fault of the program, not of its
arguments.
"""

import cmath
import contextlib
import dataclasses
import importlib
import inspect
import io
import sys

import numpy as np
import pytest

import superq.cli  # noqa: F401  so that the CLI's bindings are rebound too
from superq import superstate
from superq.cli import main as cli_main
from superq.verify import run_verify

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
    "uncertainty.quadrature_stats_closed": ("variance_quadratures_closed_vs_matrix",),
    "fock.displacement_operator": ("closed_coherent_columns_vs_truncated_displacement",),
    "entanglement._concurrence": (
        "n_state_concurrence_closed_vs_gram",
        "superqubit_concurrence_closed_vs_gram",
        "gram_purity_identity",
        "spectral_entropy_matches_closed_form",
    ),
    "superstate._pole_probabilities": ("pole_probability_identity",),
    "entanglement._gram_entries": (
        "n_state_concurrence_closed_vs_gram",
        "superqubit_concurrence_closed_vs_gram",
        "gram_purity_identity",
        "spectral_entropy_matches_closed_form",
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
    "entanglement.DensityMatrix.eigenvalues": ("spectral_entropy_matches_closed_form",),
    "moebius.bloch_cartesian": (
        "mean_quadratures_closed_vs_matrix",
        "variance_quadratures_closed_vs_matrix",
    ),
    "moebius.zeta_to_bloch": ("geometric_concurrence_identity",),
    "uncertainty.fibonacci_number": (
        *(f"fibonacci_record[n={n}]" for n in range(3, 21)),
        "fibonacci_circle_sign_alternation",
        "fibonacci_dispersion_monotone_convergence",
        "golden_gap_at_n20",
    ),
    "uncertainty.quadrature_stats_numeric": ("five_eighths_point_numeric",),
    "superstate.super_qubit_state": (
        *(f"fibonacci_record[n={n}]" for n in range(3, 21)),
        "five_eighths_point_numeric",
        "coherent_eigenrelation",
        "flipped_coherent_eigenrelation",
        "reference_annihilation",
    ),
    "superstate.super_coherent_state": (
        "five_eighths_point_numeric",
        "coherent_eigenrelation",
        "flipped_coherent_eigenrelation",
    ),
    "superstate.flip_state": ("flip_commutes_with_displacement", "flipped_coherent_eigenrelation"),
}

# The state builders with the whole fermion-1 block turned by e^{i 1e-6}.
BLOCK_ONE_CAUGHT_BY = {
    "superstate.super_qubit_state": (
        "coherent_eigenrelation",
        "flipped_coherent_eigenrelation",
        "reference_annihilation",
    ),
    "superstate.super_coherent_state": ("coherent_eigenrelation", "flipped_coherent_eigenrelation"),
    "superstate.flip_state": ("flipped_coherent_eigenrelation",),
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


def fields_off(stats_list):
    return [type(stats)(*off(dataclasses.astuple(stats))) for stats in stats_list]


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


def level_one_phased(state):
    """Boson level 1 of both blocks times e^{i RELATIVE_ERROR}, which keeps the norm."""
    coeffs = np.array(state.coeffs)
    coeffs[:, 1] *= cmath.exp(1j * RELATIVE_ERROR)
    return type(state)(coeffs)


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
)

MUTATIONS = {
    "entanglement.collapse_probabilities": swapped,
    "uncertainty.quadrature_stats_closed": product_off,
    "uncertainty._quadrature_stats": fields_off,
    "moebius.bloch_cartesian": xy_swapped,
    "moebius.zeta_to_bloch": theta_shrunk,
    "uncertainty.fibonacci_number": plus_one,
    "uncertainty.quadrature_stats_numeric": var_x_off,
    **dict.fromkeys(STATE_BUILDERS, level_one_phased),
    **dict.fromkeys(BUILDERS, bands_off),
}


def mutant(func, mutation):
    def wrapper(*args, **kwargs):
        return mutation(func(*args, **kwargs))

    return wrapper


def rebind(monkeypatch, original, replacement) -> int:
    """Replace ``original`` wherever a superq module binds it; return how many bindings."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "superq" or name.startswith("superq.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)
                bound += 1
    return bound


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "all", "--dim", str(DIM)],
        ["state", "--theta", "1", "--zeta-re", "1"],
        ["sweep", "--zeta-re", "1", "--grid", "3,3"],
    ],
)
def test_block_norms_mutant_exits_one(monkeypatch, cold_memos, argv):
    original = superstate._block_norms_sq
    assert rebind(monkeypatch, original, mutant(original, off)) >= 1
    cold_memos()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("superq: numerical consistency failure: state norm^2 = 1.000001")
