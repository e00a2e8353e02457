"""Deterministic verification suites pairing closed forms with matrix oracles.

Each suite walks a fixed parameter grid (and a seeded random-state pool where
randomness helps) and reduces every family of residuals to named checks.
Structural identities carry pinned tolerances; closed-vs-oracle numeric
comparisons use the configurable ``tol``.  Boolean conditions report residual
0.0 on success and 1.0 on failure against tolerance 0.

The same configuration (including the seed) always produces the same checks
in the same order; only the timings differ between runs.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .entanglement import (
    _concurrence,
    _gram_entries,
    collapse_probabilities,
    concurrence_gram,
    concurrence_n_state,
    concurrence_superqubit,
    entanglement_entropy_bits,
    entropy_from_z,
    reduced_boson_density,
)
from .errors import InvalidDimensionError, TruncationError
from .fock import (
    DEFAULT_DIM,
    GUARD_BAND,
    displaced_columns,
    oracle_columns,
    required_displacement_dim,
)
from .moebius import (
    ExtendedComplex,
    concurrence_circle,
    zeta_to_bloch,
)
from .superstate import (
    BlockOperator,
    CoherentParams,
    SuperQubitParams,
    SuperVector,
    _displace_low_levels,
    _norms,
    _pole_probabilities,
    _super_qubit_grid,
    _undisplaced,
    commutator_suite,
    flip_operator,
    flip_state,
    n_superparticle_state,
    super_annihilation,
    super_annihilation_transposed,
    super_coherent_state,
    super_creation_gate,
    super_number_operator,
    super_qubit_state,
)
from .uncertainty import (
    _quadrature_stats,
    _variance_grid,
    fibonacci_ladder,
    golden_limit,
    quadrature_operators,
    quadrature_stats_closed,
    quadrature_stats_numeric,
    variance_quadratures_closed,
)

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TOL",
    "SUITE_NAMES",
    "Check",
    "VerificationReport",
    "required_suite_dim",
    "run_verify",
]

DEFAULT_SEED = 12345
DEFAULT_TOL = 1e-8

# 5 x 5 x 5 reference grid: angles cover both poles, moduli span [0.25, 4].
_THETAS = tuple(np.linspace(0.0, math.pi, 5))
_PHIS = tuple(np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False))
_ZETAS = tuple(
    ExtendedComplex.from_value(modulus * cmath.exp(1j * phase))
    for modulus, phase in ((0.25, 0.0), (0.5, 1.2), (1.0, 2.5), (2.0, 3.7), (4.0, 5.0))
)
# The theta-major (theta, phi) pairs of the grid, and of its stride-2 half.
_ANGLES = tuple((theta, phi) for theta in _THETAS for phi in _PHIS)
_HALF_ANGLES = tuple((theta, phi) for theta in _THETAS[::2] for phi in _PHIS[::2])

# Coherent amplitudes for eigenrelation checks, all with |alpha| <= 2.
_EIGEN_ALPHAS = (1.2 - 0.3j, -0.7 + 1.8j, 1.9 + 0.6j)
# The amplitudes the other suites displace by.
_ALGEBRA_ALPHA = 0.9 + 0.4j
_ENTANGLE_ALPHA = 1.5
_UNCERTAINTY_ALPHA = 1.1 - 0.6j

_BOOL_PASS = 0.0
_BOOL_FAIL = 1.0


def _worst(*residuals: float) -> float:
    """The largest residual, or NaN when any is NaN (the builtin max(0.0, nan) is 0.0)."""
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


@dataclass(frozen=True)
class Check:
    """One named residual against its tolerance."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one suite run, reproducible for a fixed configuration."""

    suite: str
    dim: int
    tol: float
    seed: int
    n_max: int
    checks: tuple[Check, ...]
    wall_time_ms: float
    timings_ms: dict[str, float]

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def passed(self) -> int:
        return sum(1 for check in self.checks if check.passed)

    @property
    def max_residual(self) -> float:
        """The largest residual, NaN when any residual is NaN, 0.0 without checks."""
        return _worst(0.0, *(check.residual for check in self.checks))

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total

    def to_payload(self) -> dict:
        """JSON-ready mapping; wall_time_ms and timings_ms are the non-reproducible fields.

        A residual that is not a finite number (NaN, inf) becomes None, JSON null.
        """
        return {
            "suite": self.suite,
            "dim": self.dim,
            "tol": self.tol,
            "seed": self.seed,
            "n_max": self.n_max,
            "checks": [
                {
                    "name": check.name,
                    "residual": _finite_or_none(check.residual),
                    "tolerance": check.tolerance,
                    "pass": check.passed,
                }
                for check in self.checks
            ],
            "summary": {
                "total": self.total,
                "passed": self.passed,
                "max_residual": _finite_or_none(self.max_residual),
                "wall_time_ms": self.wall_time_ms,
                "timings_ms": dict(self.timings_ms),
            },
        }


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _concurrences(states: np.ndarray) -> np.ndarray:
    """concurrence_gram of each state of a (K, 2, dim) stack."""
    return _concurrence(states, *_gram_entries(states))


def _random_super_vector(rng: np.random.Generator, dim: int) -> SuperVector:
    raw = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
    raw /= np.linalg.norm(raw)
    return SuperVector(raw.reshape(2, dim))


def _suite_algebra(dim: int, tol: float, seed: int, n_max: int) -> list[Check]:
    flip = flip_operator(dim)
    lowering = raising = ladder = 0.0
    transpose = 0.0
    gate = 0.0
    for zeta in (*_ZETAS, ExtendedComplex.infinity()):
        residuals = commutator_suite(zeta, dim)
        lowering = _worst(lowering, residuals.number_lowering)
        raising = _worst(raising, residuals.number_raising)
        ladder = _worst(ladder, residuals.ladder)
        conjugated = flip @ super_annihilation(zeta, dim) @ flip
        transpose = _worst(
            transpose, (conjugated - super_annihilation_transposed(zeta, dim)).max_abs()
        )
        raised = super_creation_gate(zeta, dim).apply(n_superparticle_state(0, zeta, dim))
        gate = _worst(gate, (raised - n_superparticle_state(1, zeta, dim)).norm())

    involution = float(np.abs((flip @ flip).full() - np.eye(2 * dim)).max())

    boson_eye = np.eye(dim)
    tensor_split = float(
        np.abs(
            super_number_operator(dim).full()
            - np.kron(np.diag([0.0, 1.0]), boson_eye)
            - np.kron(np.eye(2), np.diag(np.arange(dim)))
        ).max()
    )
    fermion_number = BlockOperator.fermion_diagonal(0.0, 1.0, dim)
    flipped_number = (flip @ fermion_number @ flip).full()
    number_conjugation = float(
        np.abs(flipped_number - np.kron(np.diag([1.0, 0.0]), boson_eye)).max()
    )

    # The five states live on boson levels 0 and 1, so D psi is the first two
    # columns of the dense D applied to psi[:2].
    d = oracle_columns(_ALGEBRA_ALPHA, dim)
    commute = 0.0
    for zeta in _ZETAS:
        state = super_qubit_state(SuperQubitParams(1.3, 0.7, zeta), dim)
        displaced = SuperVector([d @ psi[:2] for psi in state.coeffs])
        displaced_flip = SuperVector([d @ psi[:2] for psi in flip_state(state).coeffs])
        commute = _worst(commute, (flip_state(displaced) - displaced_flip).norm())

    x_op, p_op = quadrature_operators(dim)
    hermiticity = _worst(
        float(np.abs(x_op.full() - x_op.full().conj().T).max()),
        float(np.abs(p_op.full() - p_op.full().conj().T).max()),
    )
    canonical = (
        x_op @ p_op - p_op @ x_op - BlockOperator.fermion_diagonal(1j, 1j, dim)
    ).max_abs(GUARD_BAND)

    return [
        Check("commutator_number_lowering", lowering, 1e-10),
        Check("commutator_number_raising", raising, 1e-10),
        Check("commutator_ladder", ladder, 1e-10),
        Check("flip_involution", involution, 0.0),
        Check("flip_transposes_annihilation", transpose, 0.0),
        Check("super_number_tensor_split", tensor_split, 0.0),
        Check("flip_conjugates_fermion_number", number_conjugation, 0.0),
        Check("creation_gate_raises_vacuum", gate, 1e-12),
        Check("flip_commutes_with_displacement", commute, 1e-12),
        Check("quadrature_hermiticity", hermiticity, 1e-14),
        Check("quadrature_canonical_commutator", canonical, 1e-12),
    ]


def _eigen_gaps(op: BlockOperator, alpha: complex, states: np.ndarray) -> list[float]:
    """guarded ||op psi - alpha psi|| / ||psi|| of each state of a (K, 2, dim) stack."""
    residual = op.apply_coeffs(states) - alpha * states
    return (_norms(residual[..., : states.shape[-1] - GUARD_BAND]) / _norms(states)).tolist()


def _suite_eigen(dim: int, tol: float, seed: int, n_max: int) -> list[Check]:
    # Each (alpha, zeta) angle grid is one stack of the CLI's states: the
    # sweep's coefficients, displaced as super_coherent_state displaces them,
    # and flipped by exchanging the block axis as flip_state does.  Each stack
    # ends with one grid point more, built by the state builders the CLI
    # emits, so that a fault confined to one of them fails a check too.
    reference_residual = 0.0
    coherent_residual = 0.0
    flipped_residual = 0.0
    for zeta in _ZETAS:
        low = _super_qubit_grid(_THETAS, _PHIS, zeta)
        base = SuperQubitParams(_THETAS[2], _PHIS[1], zeta)
        a_op = super_annihilation(zeta, dim)
        at_op = super_annihilation_transposed(zeta, dim)
        references = np.concatenate([_undisplaced(low, dim), [super_qubit_state(base, dim).coeffs]])
        annihilated = a_op.apply_coeffs(references)
        reference_residual = _worst(reference_residual, *_norms(annihilated).tolist())
        for alpha in _EIGEN_ALPHAS:
            grid = _displace_low_levels(alpha, low, dim)
            state = super_coherent_state(CoherentParams(alpha, base), dim)
            coherent = np.concatenate([grid, [state.coeffs]])
            coherent_residual = _worst(coherent_residual, *_eigen_gaps(a_op, alpha, coherent))
            flipped = np.concatenate([grid[:, ::-1], [flip_state(state).coeffs]])
            flipped_residual = _worst(flipped_residual, *_eigen_gaps(at_op, alpha, flipped))

    column_gap = 0.0
    keep = dim - GUARD_BAND
    for alpha in _EIGEN_ALPHAS:
        oracle = oracle_columns(alpha, dim)
        closed = np.stack(displaced_columns(alpha, dim), axis=1)
        column_gap = _worst(column_gap, float(np.abs(closed - oracle)[:keep].max()))

    return [
        Check("reference_annihilation", reference_residual, 1e-10),
        Check("coherent_eigenrelation", coherent_residual, tol),
        Check("flipped_coherent_eigenrelation", flipped_residual, tol),
        Check("closed_coherent_columns_vs_truncated_displacement", column_gap, tol),
    ]


def _suite_entangle(dim: int, tol: float, seed: int, n_max: int) -> list[Check]:
    closed_vs_gram = 0.0
    n_spread = 0.0
    geometric = 0.0
    spectral_gap = 0.0
    for zeta in _ZETAS:
        closed = concurrence_n_state(zeta)
        states = [n_superparticle_state(n, zeta, dim) for n in (1, 2, 5)]
        values = [concurrence_gram(state) for state in states]
        closed_vs_gram = _worst(closed_vs_gram, *(abs(gram - closed) for gram in values))
        n_spread = _worst(n_spread, _worst(*values) - min(values))
        spectral_gap = _worst(
            spectral_gap,
            abs(
                entanglement_entropy_bits(states[0])
                - entropy_from_z(math.sqrt(max(0.0, 1.0 - values[0] ** 2)))
            ),
        )
        # The entropy command's circle point: the concurrence is its distance
        # from the vertical axis, and the pole-collapse probabilities are half
        # its heights 1 + z above the south pole and 1 - z below the north
        # pole, the block weights of |1, zeta>.  z is compared in the
        # homogeneous form v^2 - |u|^2; the equivalent sqrt(1 - C^2) is
        # ill-conditioned where C is close to 1.
        circle, z = concurrence_circle(zeta_to_bloch(zeta).theta)
        height = zeta.v.real**2 - abs(zeta.u) ** 2
        (p0, p1), (w0, w1) = collapse_probabilities(z), states[0].block_norms_sq()
        geometric = _worst(
            geometric, abs(closed - circle), abs(height - z), abs(p0 - w0), abs(p1 - w1)
        )

    # Each angle grid is one stack of the CLI's states, and every concurrence
    # and pole probability comes from the kernels concurrence_gram and
    # pole_probabilities run on one state.
    superqubit_gap = 0.0
    probability_gap = 0.0
    for zeta in _ZETAS:
        states = _undisplaced(_super_qubit_grid(_THETAS, _PHIS, zeta), dim)
        grams = _concurrences(states).tolist()
        p0s, p1s = _pole_probabilities(states, zeta)
        for (theta, _), gram, p0, p1 in zip(_ANGLES, grams, p0s, p1s):
            superqubit_gap = _worst(
                superqubit_gap, abs(gram - concurrence_superqubit(theta, zeta))
            )
            probability_gap = _worst(
                probability_gap,
                abs(p0 - math.cos(0.5 * theta) ** 2),
                abs(p1 - math.sin(0.5 * theta) ** 2),
            )

    # The stride-2 grids of every zeta, undisplaced, displaced as
    # super_coherent_state displaces them, and flipped.
    halves = np.concatenate([_super_qubit_grid(_THETAS[::2], _PHIS[::2], zeta) for zeta in _ZETAS])
    references = _undisplaced(halves, dim)
    reference_grams = _concurrences(references)
    displaced_grams = _concurrences(_displace_low_levels(_ENTANGLE_ALPHA, halves, dim))
    flipped_grams = _concurrences(references[:, ::-1])
    alpha_invariance = _worst(0.0, *np.abs(displaced_grams - reference_grams).tolist())
    flip_invariance = _worst(0.0, *np.abs(flipped_grams - reference_grams).tolist())

    rng = np.random.default_rng(seed)
    gram_purity = 0.0
    rank_bound = 0.0
    for _ in range(12):
        state = _random_super_vector(rng, dim)
        c_gram = concurrence_gram(state)
        rho = reduced_boson_density(state)
        gram_purity = _worst(gram_purity, abs(c_gram**2 - 2.0 * (1.0 - rho.purity())))
        eigenvalues = np.sort(rho.eigenvalues())[::-1]
        if dim > 2:
            rank_bound = _worst(rank_bound, float(abs(eigenvalues[2])))
        spectral = float(
            -sum(lam * math.log2(lam) for lam in eigenvalues if lam > 1e-16)
        )
        spectral_gap = _worst(
            spectral_gap,
            abs(spectral - entropy_from_z(math.sqrt(max(0.0, 1.0 - c_gram**2)))),
        )

    pole_entropy = _worst(
        abs(entropy_from_z(0.0) - 1.0),
        abs(entropy_from_z(1.0)),
        abs(entropy_from_z(-1.0)),
        abs(sum(collapse_probabilities(0.37)) - 1.0),
    )

    return [
        Check("n_state_concurrence_closed_vs_gram", closed_vs_gram, 1e-10),
        Check("n_state_concurrence_n_independence", n_spread, 1e-12),
        Check("superqubit_concurrence_closed_vs_gram", superqubit_gap, 1e-10),
        Check("alpha_invariance_of_concurrence", alpha_invariance, tol),
        Check("flip_invariance_of_concurrence", flip_invariance, 1e-12),
        Check("gram_purity_identity", gram_purity, 1e-10),
        Check("density_rank_bound", rank_bound, 1e-10),
        Check("spectral_entropy_matches_closed_form", spectral_gap, 1e-9),
        Check("entropy_pole_values", pole_entropy, 0.0),
        Check("geometric_concurrence_identity", geometric, 1e-12),
        Check("pole_probability_identity", probability_gap, 1e-12),
    ]


def _suite_uncertainty(dim: int, tol: float, seed: int, n_max: int) -> list[Check]:
    # Each angle grid is one stack of the CLI's states, as in the eigen suite,
    # and one O(dim) apply of the banded X and P gives the oracle moments.
    mean_gap = 0.0
    var_gap = 0.0
    alpha_independence = 0.0
    thetas, phis = _THETAS[::2], _PHIS[::2]
    for zeta in _ZETAS:
        low = _super_qubit_grid(thetas, phis, zeta)
        at_zero = _quadrature_stats(_undisplaced(low, dim))
        displaced = _quadrature_stats(_displace_low_levels(_UNCERTAINTY_ALPHA, low, dim))
        # the sweep's closed variances of the grid, alpha-independent as the closed form's
        sweep = _variance_grid(thetas, phis, zeta)
        for (theta, phi), numeric_at_zero, numeric_displaced, sweep_x, sweep_p in zip(
            _HALF_ANGLES, at_zero, displaced, *sweep
        ):
            base = SuperQubitParams(theta, phi, zeta)
            for alpha, numeric in ((0.0, numeric_at_zero), (_UNCERTAINTY_ALPHA, numeric_displaced)):
                closed = quadrature_stats_closed(CoherentParams(alpha, base))
                mean_gap = _worst(
                    mean_gap,
                    abs(closed.mean_x - numeric.mean_x),
                    abs(closed.mean_p - numeric.mean_p),
                )
                var_gap = _worst(
                    var_gap,
                    abs(closed.var_x - numeric.var_x),
                    abs(closed.var_p - numeric.var_p),
                    abs(closed.product - numeric.product),
                    abs(sweep_x - numeric.var_x),
                    abs(sweep_p - numeric.var_p),
                )
                alpha_independence = _worst(
                    alpha_independence,
                    abs(numeric.var_x - numeric_at_zero.var_x),
                    abs(numeric.var_p - numeric_at_zero.var_p),
                )

    symmetric_closed = 0.0
    symmetric_numeric = 0.0
    variance_floor = 0.0
    phi = 0.25 * math.pi
    for zeta in _ZETAS:
        low = _super_qubit_grid(_THETAS, (phi,), zeta)
        for theta, numeric in zip(_THETAS, _quadrature_stats(_undisplaced(low, dim))):
            params = CoherentParams(0.0, SuperQubitParams(theta, phi, zeta))
            var_x, var_p = variance_quadratures_closed(params)
            symmetric_closed = _worst(symmetric_closed, abs(var_x - var_p))
            variance_floor = _worst(variance_floor, 0.5 - var_x, 0.5 - var_p)
            symmetric_numeric = _worst(symmetric_numeric, abs(numeric.var_x - numeric.var_p))

    fib_point = CoherentParams(
        0.0,
        SuperQubitParams(0.5 * math.pi, 0.25 * math.pi, ExtendedComplex.from_value(1.0)),
    )
    closed_58 = variance_quadratures_closed(fib_point)
    five_eighths_closed = _worst(abs(closed_58[0] - 0.625), abs(closed_58[1] - 0.625))
    numeric_58 = quadrature_stats_numeric(fib_point, dim)
    five_eighths_numeric = _worst(
        abs(numeric_58.var_x - 0.625), abs(numeric_58.var_p - 0.625)
    )

    zeta_sq, dispersion = golden_limit()
    golden_zeta = ExtendedComplex.from_value(math.sqrt(zeta_sq))
    golden_params = CoherentParams(
        0.0, SuperQubitParams(0.5 * math.pi, 0.25 * math.pi, golden_zeta)
    )
    golden_var = variance_quadratures_closed(golden_params)
    golden_gap = _worst(abs(golden_var[0] - dispersion), abs(golden_var[1] - dispersion))

    return [
        Check("mean_quadratures_closed_vs_matrix", mean_gap, tol),
        Check("variance_quadratures_closed_vs_matrix", var_gap, tol),
        Check("variance_alpha_independence", alpha_independence, tol),
        Check("symmetric_point_variance_equality_closed", symmetric_closed, 1e-12),
        Check("symmetric_point_variance_equality_numeric", symmetric_numeric, tol),
        Check("five_eighths_point_closed", five_eighths_closed, 1e-15),
        Check("five_eighths_point_numeric", five_eighths_numeric, tol),
        Check("variance_floor_on_symmetric_family", variance_floor, 1e-10),
        Check("golden_point_variance", golden_gap, 1e-14),
    ]


def _above_root5(r: Fraction) -> bool:
    """r > sqrt(5), decided exactly (a rational never equals sqrt(5))."""
    return r > 0 and r * r > 5


def _suite_fibonacci(dim: int, tol: float, seed: int, n_max: int) -> list[Check]:
    checks = []
    previous_r = None
    previous_sign = None
    alternation_ok = True
    monotone_ok = True
    records = fibonacci_ladder(n_max, dim)
    # The references walk their own recurrence from F_1 = F_2 = 1, so that a
    # fault of the ladder's Fibonacci numbers cannot reach them too.
    f_nm2, f_nm1 = 1, 1
    for record in records:
        n = record.n
        f_n = f_nm1 + f_nm2
        f_np1 = f_n + f_nm1
        exact_ok = (
            record.fib_n == f_n
            and record.zeta_sq == Fraction(f_nm1, f_nm2) - Fraction(1, 2)
            and record.dispersion_closed == Fraction(f_n, f_np1)
            and (1 + Fraction(1, 2) / (1 + record.zeta_sq)) / 2
            == record.dispersion_closed
        )
        f_nm2, f_nm1 = f_nm1, f_n
        numeric_gap = abs(record.dispersion_numeric - float(record.dispersion_closed))
        residual = numeric_gap if exact_ok else _BOOL_FAIL
        checks.append(Check(f"fibonacci_record[n={n}]", residual, tol))

        # Decided in exact arithmetic: from n ~ 40 on, the radius and the gap
        # sit within float rounding of their limits.  |zeta_n|^2 > phi - 1/2
        # reads 2 |zeta_n|^2 > sqrt(5).
        sign = 1 if _above_root5(2 * record.zeta_sq) else -1
        if previous_sign is not None and sign == previous_sign:
            alternation_ok = False
        previous_sign = sign
        # The gap |F_n/F_{n+1} - 1/phi| is |r - sqrt(5)| / 2.  It fails to shrink
        # when r repeats, or when sqrt(5) lies on the previous r's side of
        # their midpoint.
        r = 2 * record.dispersion_closed + 1
        if previous_r is not None and (
            r == previous_r or (r > previous_r) == _above_root5((r + previous_r) / 2)
        ):
            monotone_ok = False
        previous_r = r

    for name, ok in (
        ("fibonacci_circle_sign_alternation", alternation_ok),
        ("fibonacci_dispersion_monotone_convergence", monotone_ok),
    ):
        checks.append(Check(name, _BOOL_PASS if ok else _BOOL_FAIL, 0.0))
    if n_max >= 20:  # records[17] is n = 20
        gap = abs(float(records[17].dispersion_closed) - golden_limit()[1])
        checks.append(Check("golden_gap_at_n20", gap, 1e-7))
    return checks


# Per suite: the smallest dim it needs before any displacement, and the
# amplitudes it displaces by.  algebra and eigen compare on the levels below
# the guard band, entangle builds |5, zeta>, and the quadrature oracle needs 3.
# Each suite runs as ``_suite_<name>(dim, tol, seed, n_max)``, looked up when
# it runs, so a rebound function is the one run.
_SUITES = {
    "algebra": (GUARD_BAND + 1, (_ALGEBRA_ALPHA,)),
    "eigen": (GUARD_BAND + 1, _EIGEN_ALPHAS),
    "entangle": (6, (_ENTANGLE_ALPHA,)),
    "uncertainty": (3, (_UNCERTAINTY_ALPHA,)),
    "fibonacci": (3, ()),
}
SUITE_NAMES = tuple(_SUITES)


def _selected_suites(suite: str) -> tuple[str, ...]:
    if suite == "all":
        return SUITE_NAMES
    if suite not in SUITE_NAMES:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {('all',) + SUITE_NAMES}"
        )
    return (suite,)


def required_suite_dim(suite: str) -> int:
    """Smallest dim at which ``run_verify(suite)`` runs every check of the suite.

    The largest of the suites' own level needs and the displacement guard of
    every amplitude they displace by.  Raises ValueError for an unknown suite.
    """
    required = 0
    for name in _selected_suites(suite):
        levels, alphas = _SUITES[name]
        required = max(required, levels, *map(required_displacement_dim, alphas))
    return required


def run_verify(
    suite: str = "all",
    dim: int = DEFAULT_DIM,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    n_max: int = 20,
) -> VerificationReport:
    """Run one named suite (or ``all``) and collect its checks.

    Every argument is checked before the first suite runs: a ValueError names
    an unknown suite, a tol that is not positive and finite, a negative seed or
    an n_max below 3, and a TruncationError a dim below
    :func:`required_suite_dim`.
    """
    selected = _selected_suites(suite)
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")
    required = required_suite_dim(suite)
    if dim < required:
        raise TruncationError(
            f"suite {suite!r} needs dim >= {required}, got {dim}", required_dim=required
        )

    started = time.perf_counter()
    checks: list[Check] = []
    timings_ms: dict[str, float] = {}
    for name in selected:
        suite_started = time.perf_counter()
        checks.extend(globals()[f"_suite_{name}"](dim, tol, seed, n_max))
        timings_ms[name] = (time.perf_counter() - suite_started) * 1000.0
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return VerificationReport(
        suite=suite,
        dim=dim,
        tol=tol,
        seed=seed,
        n_max=n_max,
        checks=tuple(checks),
        wall_time_ms=elapsed_ms,
        timings_ms=timings_ms,
    )
