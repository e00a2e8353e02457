"""The two-route rule: a closed form and the oracle it is checked against share no code.

Each entry of ``ROUTES`` is one row of a check of ``verify`` that compares a
closed form with an oracle, both computed by superq: the calls that ``verify``
makes for each side, at one sample point.  The parameter objects and the
states a route only reads are built beforehand, as the sample point.  Each
route runs alone under the tracer of ``conftest``, with the package's memos
cleared, so that a memo hit cannot hide a function.  The two sets of superq
functions reached must be disjoint, apart from ``SHARED``: functions that
decide whether an argument is accepted, not a value that both routes return.
Each route may reach only functions that the suite emitting its check
reaches, so that an entry cannot take a route that ``verify`` does not.

A mutant of code that both routes share moves the closed value and the
oracle together, and the check still passes: the mutation gate would
exempt such a function without saying why.  Checks against a literal or a
formula written out in ``verify`` have no closed route of superq's own and
no entry here: ``pole_probability_identity``, ``five_eighths_point_*``,
``entropy_pole_values``, and ``fibonacci_record[n=*]``, whose closed side is
``verify``'s own Fibonacci recurrence.
"""

import cmath
import math

import numpy as np
import pytest

from superq.entanglement import (
    collapse_probabilities,
    concurrence_gram,
    concurrence_n_state,
    concurrence_superqubit,
    entanglement_entropy_bits,
    entropy_from_z,
    reduced_boson_density,
)
from superq.fock import displaced_columns, oracle_columns
from superq.moebius import ExtendedComplex, _grid_phases, concurrence_circle, zeta_to_bloch
from superq.superstate import (
    CoherentParams,
    SuperQubitParams,
    SuperVector,
    _displace_low_levels,
    _norms,
    _super_qubit_grid,
    _undisplaced,
    flip_state,
    n_superparticle_state,
    super_annihilation,
    super_annihilation_transposed,
    super_coherent_state,
    super_creation_gate,
    super_qubit_state,
)
from superq.uncertainty import (
    _quadrature_stats,
    _variance_grid,
    fibonacci_ladder,
    golden_limit,
    quadrature_stats_closed,
    variance_quadratures_closed,
)
from superq.verify import SUITE_NAMES, _concurrences, _eigen_gaps, run_verify

from conftest import clear_memos, reached_functions

# The sample point: a one-point angle grid at (1.3, 0.7), its phases as verify
# computes them once per angle grid, the grid's levels as verify's stacks hold
# them, and the state builders' state at the same point.
DIM = 64
ZETA = ExtendedComplex.from_value(2.0 * cmath.exp(3.7j))
BASE = SuperQubitParams(1.3, 0.7, ZETA)
ALPHA = 1.2 - 0.3j
COHERENT = CoherentParams(ALPHA, BASE)
PHASES = _grid_phases([BASE.theta], [BASE.phi])
LOW = _super_qubit_grid([BASE.theta], *PHASES, [ZETA])
REFERENCES = np.concatenate([_undisplaced(LOW, DIM), [super_qubit_state(BASE, DIM).coeffs]])
DISPLACED = super_coherent_state(COHERENT, DIM)
COHERENT_STACK = np.concatenate([_displace_low_levels(ALPHA, LOW, DIM), [DISPLACED.coeffs]])
FLIPPED_STACK = np.concatenate([COHERENT_STACK[:-1, ::-1], [flip_state(DISPLACED).coeffs]])
VACUUM = n_superparticle_state(0, ZETA, DIM)
ONE = n_superparticle_state(1, ZETA, DIM)
# the height of |1, zeta> on the sphere, and a generic state of full rank 2
HEIGHT = ZETA.v.real**2 - abs(ZETA.u) ** 2
_raw = np.random.default_rng(5).standard_normal((2, DIM, 2)) @ [1.0, 1j]
RANDOM = SuperVector(_raw / np.linalg.norm(_raw))
# the symmetric point theta = pi/2, phi = pi/4 on the golden circle
GOLDEN = CoherentParams(
    0.0, SuperQubitParams(0.5 * math.pi, 0.25 * math.pi, ExtendedComplex.from_value(math.sqrt(golden_limit()[0])))
)


def quadrature_oracle():
    return _quadrature_stats(_undisplaced(LOW, DIM)), _quadrature_stats(_displace_low_levels(ALPHA, LOW, DIM))


# verify's check, with a [row] suffix where its rows take different routes:
# (the closed route, the oracle route).
ROUTES = {
    "closed_coherent_columns_vs_truncated_displacement": (
        lambda: displaced_columns(ALPHA, DIM),
        lambda: oracle_columns(ALPHA, DIM),
    ),
    "reference_annihilation": (
        lambda: (_undisplaced(_super_qubit_grid([BASE.theta], *PHASES, [ZETA]), DIM), super_qubit_state(BASE, DIM)),
        lambda: _norms(super_annihilation(ZETA, DIM).apply_coeffs(REFERENCES)),
    ),
    "coherent_eigenrelation": (
        lambda: (_displace_low_levels(ALPHA, LOW, DIM), super_coherent_state(COHERENT, DIM)),
        lambda: _eigen_gaps(super_annihilation(ZETA, DIM), ALPHA, COHERENT_STACK),
    ),
    "flipped_coherent_eigenrelation": (
        lambda: (_displace_low_levels(ALPHA, LOW, DIM)[:, ::-1], flip_state(super_coherent_state(COHERENT, DIM))),
        lambda: _eigen_gaps(super_annihilation_transposed(ZETA, DIM), ALPHA, FLIPPED_STACK),
    ),
    "creation_gate_raises_vacuum": (
        lambda: n_superparticle_state(1, ZETA, DIM),
        lambda: super_creation_gate(ZETA, DIM).apply(VACUUM),
    ),
    "n_state_concurrence_closed_vs_gram": (
        lambda: concurrence_n_state(ZETA),
        lambda: concurrence_gram(n_superparticle_state(2, ZETA, DIM)),
    ),
    "superqubit_concurrence_closed_vs_gram": (
        lambda: concurrence_superqubit(BASE.theta, ZETA),
        lambda: _concurrences(_undisplaced(_super_qubit_grid([BASE.theta], *PHASES, [ZETA]), DIM)),
    ),
    "gram_purity_identity": (
        lambda: concurrence_gram(RANDOM),
        lambda: reduced_boson_density(RANDOM).purity(),
    ),
    "spectral_entropy_matches_closed_form[n_state]": (
        lambda: entropy_from_z(HEIGHT),
        lambda: entanglement_entropy_bits(ONE),
    ),
    "spectral_entropy_matches_closed_form[random]": (
        lambda: entropy_from_z(math.sqrt(max(0.0, 1.0 - concurrence_gram(RANDOM) ** 2))),
        lambda: reduced_boson_density(RANDOM).eigenvalues(),
    ),
    "geometric_concurrence_identity[circle]": (
        lambda: concurrence_n_state(ZETA),
        lambda: concurrence_circle(zeta_to_bloch(ZETA).theta),
    ),
    "geometric_concurrence_identity[poles]": (
        lambda: n_superparticle_state(1, ZETA, DIM).block_norms_sq(),
        lambda: collapse_probabilities(concurrence_circle(zeta_to_bloch(ZETA).theta)[1]),
    ),
    "mean_quadratures_closed_vs_matrix": (
        lambda: (quadrature_stats_closed(CoherentParams(0.0, BASE)), quadrature_stats_closed(COHERENT)),
        quadrature_oracle,
    ),
    "variance_quadratures_closed_vs_matrix": (
        lambda: (
            quadrature_stats_closed(CoherentParams(0.0, BASE)),
            quadrature_stats_closed(COHERENT),
            _variance_grid([BASE.theta], *PHASES, ZETA),
        ),
        quadrature_oracle,
    ),
    "golden_point_variance": (
        lambda: variance_quadratures_closed(GOLDEN),
        golden_limit,
    ),
    "golden_gap_at_n20": (
        lambda: fibonacci_ladder(20, DIM)[17].dispersion_closed,
        golden_limit,
    ),
}

GUARD = "the displacement guard: it accepts dim or raises TruncationError, and returns no value a route uses"
# Functions that both routes of some entry reach, each with the reason it cannot move a value of both.
SHARED = {
    "fock._guard_floor": GUARD,
    "fock.required_displacement_dim": GUARD,
    "fock.ensure_displacement_dim": GUARD,
    "fock._require_two_levels": "a validator: it accepts dim >= 2 or raises",
    "fock._log_coherent_moduli": (
        "the closed columns' kernel, which the guard's tail scan reads too: it decides whether"
        " the oracle refuses an alpha, not the oracle's values"
    ),
    "superstate.SuperVector.__post_init__": "the state type's constructor: it checks the shape and keeps a copy",
    "entanglement._require_normalized": "the norm check in front of the Gram kernel and of rho: it raises or passes",
    "superstate._block_norms_sq": (
        "rho reads it only through its norm check, which raises or passes; rho's factor is"
        " the blocks themselves, and its spectrum their singular values"
    ),
}


def route_reach(route) -> set[str]:
    clear_memos()
    return reached_functions([route])


@pytest.fixture(scope="module")
def suite_reach() -> dict[str, frozenset[str]]:
    """Each check verify emits at DIM: the functions that its suite reaches, from cold memos."""
    reach = {}
    for suite in SUITE_NAMES:
        clear_memos()
        found = frozenset(reached_functions([lambda: run_verify(suite, DIM)]))
        reach.update((check.name, found) for check in run_verify(suite, DIM).checks)
    return reach


@pytest.mark.parametrize("entry", sorted(ROUTES))
def test_routes_run_only_code_their_check_runs(entry, suite_reach):
    closed, oracle = ROUTES[entry]
    assert route_reach(closed) | route_reach(oracle) <= suite_reach[entry.split("[")[0]]


@pytest.mark.parametrize("entry", sorted(ROUTES))
def test_closed_route_and_oracle_share_no_code(entry):
    closed, oracle = ROUTES[entry]
    assert route_reach(closed) & route_reach(oracle) - set(SHARED) == set()


def test_every_allowed_function_is_shared():
    shared = [route_reach(closed) & route_reach(oracle) for closed, oracle in ROUTES.values()]
    assert set(SHARED) - set().union(*shared) == set()
