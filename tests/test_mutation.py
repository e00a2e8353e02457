"""Mutation gate for the two-route design: every emitted closed form is read by a check.

Each function below is put off by 1e-6 relative in every ``superq`` module
namespace that binds it, the way the benchmark's tracer rebinds functions.
Three take a mutation of their own: collapse_probabilities is swapped to
(p1, p0), since a relative error already breaks its p0 + p1 = 1;
quadrature_stats_closed has only its ``product`` put off, the one field no
other closed form produces; and the oracle kernel _quadrature_stats has every
field of each returned QuadratureStats put off.  The package's memos are
cleared once the mutant is bound, so that no entry of the unmutated function
can hide it.  A default ``verify --suite all`` at dim 64 must then fail
exactly the pinned checks.
"""

import dataclasses
import importlib
import sys

import pytest

import superq.cli  # noqa: F401  so that the CLI's bindings are rebound too
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
    "uncertainty._quadrature_stats": (
        "mean_quadratures_closed_vs_matrix",
        "variance_quadratures_closed_vs_matrix",
        "five_eighths_point_numeric",
        *(f"fibonacci_record[n={n}]" for n in range(3, 21)),
    ),
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


MUTATIONS = {
    "entanglement.collapse_probabilities": swapped,
    "uncertainty.quadrature_stats_closed": product_off,
    "uncertainty._quadrature_stats": fields_off,
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


@pytest.mark.parametrize("qualified", sorted(CAUGHT_BY))
def test_mutant_fails_the_pinned_checks(monkeypatch, cold_memos, qualified):
    module_name, func_name = qualified.split(".")
    original = getattr(importlib.import_module(f"superq.{module_name}"), func_name)
    mutation = MUTATIONS.get(qualified, off)
    assert rebind(monkeypatch, original, mutant(original, mutation)) >= 1
    cold_memos()
    assert failed_checks() == set(CAUGHT_BY[qualified])
