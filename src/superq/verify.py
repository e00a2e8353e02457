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
    _grid_phases,
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
    _state_and_poles,
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


def _worst(residuals: float | list | np.ndarray) -> float:
    """The max of 0.0 and every residual, NaN when any residual is NaN.

    residuals is a float, a list of floats, or an array or a list of arrays
    of one shape.  np.max keeps a NaN wherever it sits; the builtin
    max(0.0, nan) is 0.0.
    """
    return float(np.max(residuals, initial=0.0))


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
        return _worst([check.residual for check in self.checks])

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
    return _concurrence(_gram_entries(states)[3])


def _random_super_vector(rng: np.random.Generator, dim: int) -> SuperVector:
    raw = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
    raw /= np.linalg.norm(raw)
    return SuperVector(raw.reshape(2, dim))


def _suite_algebra(dim: int, tol: float, seed: int, n_max: int) -> list[Check]:
    flip = flip_operator(dim)
    brackets, transpose, gate = [], [], []
    for zeta in (*_ZETAS, ExtendedComplex.infinity()):
        brackets.append(commutator_suite(zeta, dim))
        conjugated = flip @ super_annihilation(zeta, dim) @ flip
        transpose.append((conjugated - super_annihilation_transposed(zeta, dim)).max_abs())
        raised = super_creation_gate(zeta, dim).apply(n_superparticle_state(0, zeta, dim))
        gate.append((raised - n_superparticle_state(1, zeta, dim)).norm())

    involution = np.abs((flip @ flip).full() - np.eye(2 * dim)).max()

    boson_eye = np.eye(dim)
    tensor_split = np.abs(
        super_number_operator(dim).full()
        - np.kron(np.diag([0.0, 1.0]), boson_eye)
        - np.kron(np.eye(2), np.diag(np.arange(dim)))
    ).max()
    fermion_number = BlockOperator.fermion_diagonal(0.0, 1.0, dim)
    flipped_number = (flip @ fermion_number @ flip).full()
    number_conjugation = np.abs(flipped_number - np.kron(np.diag([1.0, 0.0]), boson_eye)).max()

    # The five states live on boson levels 0 and 1, so D psi is the first two
    # columns of the dense D applied to psi[:2].
    d = oracle_columns(_ALGEBRA_ALPHA, dim)
    commute = []
    for zeta in _ZETAS:
        state = super_qubit_state(SuperQubitParams(1.3, 0.7, zeta), dim)
        displaced = SuperVector([d @ psi[:2] for psi in state.coeffs])
        displaced_flip = SuperVector([d @ psi[:2] for psi in flip_state(state).coeffs])
        commute.append((flip_state(displaced) - displaced_flip).norm())

    x_op, p_op = quadrature_operators(dim)
    hermiticity = [np.abs(op.full() - op.full().conj().T).max() for op in (x_op, p_op)]
    canonical = (
        x_op @ p_op - p_op @ x_op - BlockOperator.fermion_diagonal(1j, 1j, dim)
    ).max_abs(GUARD_BAND)

    return [
        Check("commutator_number_lowering", _worst([b.number_lowering for b in brackets]), 1e-10),
        Check("commutator_number_raising", _worst([b.number_raising for b in brackets]), 1e-10),
        Check("commutator_ladder", _worst([b.ladder for b in brackets]), 1e-10),
        Check("flip_involution", _worst(involution), 0.0),
        Check("flip_transposes_annihilation", _worst(transpose), 0.0),
        Check("super_number_tensor_split", _worst(tensor_split), 0.0),
        Check("flip_conjugates_fermion_number", _worst(number_conjugation), 0.0),
        Check("creation_gate_raises_vacuum", _worst(gate), 1e-12),
        Check("flip_commutes_with_displacement", _worst(commute), 1e-12),
        Check("quadrature_hermiticity", _worst(hermiticity), 1e-14),
        Check("quadrature_canonical_commutator", _worst(canonical), 1e-12),
    ]


def _eigen_gaps(op: BlockOperator, alpha: complex, states: np.ndarray) -> np.ndarray:
    """guarded ||op psi - alpha psi|| / ||psi|| of each state of a (K, 2, dim) stack."""
    residual = op.apply_coeffs(states) - alpha * states
    return _norms(residual[..., : states.shape[-1] - GUARD_BAND]) / _norms(states)


def _suite_eigen(dim: int, tol: float, seed: int, n_max: int) -> list[Check]:
    # Each (alpha, zeta) angle grid is one stack of the CLI's states: the
    # sweep's coefficients, displaced as super_coherent_state displaces them,
    # and flipped by exchanging the block axis as flip_state does.  Each stack
    # ends with one grid point more, built by the state builders the CLI
    # emits, so that a fault confined to one of them fails a check too.
    annihilated, coherent_gaps, flipped_gaps = [], [], []
    phases = _grid_phases(_THETAS, _PHIS)
    for zeta in _ZETAS:
        low = _super_qubit_grid(_THETAS, *phases, [zeta])
        base = SuperQubitParams(_THETAS[2], _PHIS[1], zeta)
        a_op = super_annihilation(zeta, dim)
        at_op = super_annihilation_transposed(zeta, dim)
        references = np.concatenate([_undisplaced(low, dim), [super_qubit_state(base, dim).coeffs]])
        annihilated.append(_norms(a_op.apply_coeffs(references)))
        for alpha in _EIGEN_ALPHAS:
            grid = _displace_low_levels(alpha, low, dim)
            state = super_coherent_state(CoherentParams(alpha, base), dim)
            coherent = np.concatenate([grid, [state.coeffs]])
            coherent_gaps.append(_eigen_gaps(a_op, alpha, coherent))
            flipped = np.concatenate([grid[:, ::-1], [flip_state(state).coeffs]])
            flipped_gaps.append(_eigen_gaps(at_op, alpha, flipped))

    column_gaps = []
    for alpha in _EIGEN_ALPHAS:
        closed = np.stack(displaced_columns(alpha, dim), axis=1)
        column_gaps.append(np.abs(closed - oracle_columns(alpha, dim))[: dim - GUARD_BAND].max())

    return [
        Check("reference_annihilation", _worst(annihilated), 1e-10),
        Check("coherent_eigenrelation", _worst(coherent_gaps), tol),
        Check("flipped_coherent_eigenrelation", _worst(flipped_gaps), tol),
        Check("closed_coherent_columns_vs_truncated_displacement", _worst(column_gaps), tol),
    ]


def _suite_entangle(dim: int, tol: float, seed: int, n_max: int) -> list[Check]:
    closed_vs_gram, n_spread, geometric, spectral_gap = [], [], [], []
    for zeta in _ZETAS:
        closed = concurrence_n_state(zeta)
        states = [n_superparticle_state(n, zeta, dim) for n in (1, 2, 5)]
        values = [concurrence_gram(state) for state in states]
        closed_vs_gram += [abs(gram - closed) for gram in values]
        n_spread.append(_worst(values) - min(values))
        # The entropy command's circle point: the concurrence is its distance
        # from the vertical axis, and the pole-collapse probabilities are half
        # its heights 1 + z above the south pole and 1 - z below the north
        # pole, the block weights of |1, zeta>.  z is compared in the
        # homogeneous form v^2 - |u|^2; the equivalent sqrt(1 - C^2) is
        # ill-conditioned where C is close to 1.  The closed entropy of
        # |1, zeta> is read at that height, not from the Gram kernel that the
        # spectral entropy reads.
        circle, z = concurrence_circle(zeta_to_bloch(zeta).theta)
        v, u = zeta.v.real, abs(zeta.u)
        height = v * v - u * u
        spectral_gap.append(abs(entanglement_entropy_bits(states[0]) - entropy_from_z(height)))
        (p0, p1), (w0, w1) = collapse_probabilities(z), states[0].block_norms_sq()
        geometric += [abs(closed - circle), abs(height - z), abs(p0 - w0), abs(p1 - w1)]

    # Each angle grid is one stack of the CLI's states, and every concurrence
    # and pole probability comes from the kernels the commands run.  One more
    # row per zeta is the state and the poles as state --theta builds them,
    # and the grid's rows are read against those poles.
    superqubit_gap, probability_gap = [], []
    base = (_THETAS[2], _PHIS[1])
    phases = _grid_phases(_THETAS, _PHIS)
    for zeta in _ZETAS:
        grid = _undisplaced(_super_qubit_grid(_THETAS, *phases, [zeta]), dim)
        for (theta, _), gram in zip(_ANGLES, _concurrences(grid).tolist()):
            superqubit_gap.append(abs(gram - concurrence_superqubit(theta, zeta)))
        state, poles = _state_and_poles(CoherentParams(0.0, SuperQubitParams(*base, zeta)), dim)
        rows = _pole_probabilities(np.concatenate([grid, [state.coeffs]]), poles).tolist()
        for (theta, _), (p0, p1) in zip((*_ANGLES, base), zip(*rows)):
            half_cos, half_sin = math.cos(0.5 * theta), math.sin(0.5 * theta)
            probability_gap += [abs(p0 - half_cos * half_cos), abs(p1 - half_sin * half_sin)]

    # The stride-2 grids of every zeta, undisplaced, displaced as
    # super_coherent_state displaces them, and flipped.
    half_phases = _grid_phases(_THETAS[::2], _PHIS[::2])
    halves = _super_qubit_grid(_THETAS[::2], *half_phases, _ZETAS)
    references = _undisplaced(halves, dim)
    reference_grams = _concurrences(references)
    displaced = _displace_low_levels(_ENTANGLE_ALPHA, halves, dim)
    alpha_invariance = np.abs(_concurrences(displaced) - reference_grams)
    flip_invariance = np.abs(_concurrences(references[:, ::-1]) - reference_grams)

    rng = np.random.default_rng(seed)
    gram_purity, rank_bound = [], []
    for _ in range(12):
        state = _random_super_vector(rng, dim)
        c_gram = concurrence_gram(state)
        rho = reduced_boson_density(state)
        gram_purity.append(abs(c_gram * c_gram - 2.0 * (1.0 - rho.purity())))
        # rho >= 0, so its trace ||F||^2 less the two leading eigenvalues bounds every other one
        high, low = rho.eigenvalues()
        rank_bound.append(abs(np.vdot(rho.factor, rho.factor).real - high - low))
        spectral = -sum(lam * math.log2(lam) for lam in (high, low) if lam > 1e-16)
        z_gram = math.sqrt(max(0.0, 1.0 - c_gram * c_gram))
        spectral_gap.append(abs(spectral - entropy_from_z(z_gram)))

    pole_entropy = [
        abs(entropy_from_z(0.0) - 1.0),
        abs(entropy_from_z(1.0)),
        abs(entropy_from_z(-1.0)),
        abs(sum(collapse_probabilities(0.37)) - 1.0),
    ]

    return [
        Check("n_state_concurrence_closed_vs_gram", _worst(closed_vs_gram), 1e-10),
        Check("n_state_concurrence_n_independence", _worst(n_spread), 1e-12),
        Check("superqubit_concurrence_closed_vs_gram", _worst(superqubit_gap), 1e-10),
        Check("alpha_invariance_of_concurrence", _worst(alpha_invariance), tol),
        Check("flip_invariance_of_concurrence", _worst(flip_invariance), 1e-12),
        Check("gram_purity_identity", _worst(gram_purity), 1e-10),
        Check("density_rank_bound", _worst(rank_bound), 1e-10),
        Check("spectral_entropy_matches_closed_form", _worst(spectral_gap), 1e-9),
        Check("entropy_pole_values", _worst(pole_entropy), 0.0),
        Check("geometric_concurrence_identity", _worst(geometric), 1e-12),
        Check("pole_probability_identity", _worst(probability_gap), 1e-12),
    ]


def _suite_uncertainty(dim: int, tol: float, seed: int, n_max: int) -> list[Check]:
    # Each angle grid is one stack of the CLI's states, as in the eigen suite,
    # and one O(dim) apply of the banded X and P gives the oracle moments.
    mean_gap, var_gap, alpha_independence = [], [], []
    thetas = _THETAS[::2]
    phases = _grid_phases(thetas, _PHIS[::2])
    for zeta in _ZETAS:
        low = _super_qubit_grid(thetas, *phases, [zeta])
        at_zero = _quadrature_stats(_undisplaced(low, dim))
        displaced = _quadrature_stats(_displace_low_levels(_UNCERTAINTY_ALPHA, low, dim))
        # the sweep's closed variances of the grid, alpha-independent as the closed form's
        sweep = _variance_grid(thetas, *phases, zeta)
        for (theta, phi), numeric_at_zero, numeric_displaced, sweep_x, sweep_p in zip(
            _HALF_ANGLES, at_zero, displaced, *np.array(sweep).tolist()
        ):
            base = SuperQubitParams(theta, phi, zeta)
            for alpha, numeric in ((0.0, numeric_at_zero), (_UNCERTAINTY_ALPHA, numeric_displaced)):
                closed = quadrature_stats_closed(CoherentParams(alpha, base))
                mean_gap += [
                    abs(closed.mean_x - numeric.mean_x), abs(closed.mean_p - numeric.mean_p)
                ]
                var_gap += [
                    abs(closed.var_x - numeric.var_x),
                    abs(closed.var_p - numeric.var_p),
                    abs(closed.product - numeric.product),
                    abs(sweep_x - numeric.var_x),
                    abs(sweep_p - numeric.var_p),
                ]
                alpha_independence += [
                    abs(numeric.var_x - numeric_at_zero.var_x),
                    abs(numeric.var_p - numeric_at_zero.var_p),
                ]

    symmetric_closed, symmetric_numeric, variance_floor = [], [], []
    phi = 0.25 * math.pi
    phases = _grid_phases(_THETAS, (phi,))
    for zeta in _ZETAS:
        low = _super_qubit_grid(_THETAS, *phases, [zeta])
        for theta, numeric in zip(_THETAS, _quadrature_stats(_undisplaced(low, dim))):
            params = CoherentParams(0.0, SuperQubitParams(theta, phi, zeta))
            var_x, var_p = variance_quadratures_closed(params)
            symmetric_closed.append(abs(var_x - var_p))
            variance_floor += [0.5 - var_x, 0.5 - var_p]
            symmetric_numeric.append(abs(numeric.var_x - numeric.var_p))

    # The symmetric point theta = pi/2, phi = pi/4 at zeta = 1, where both
    # variances are 5/8, and at the golden zeta, where both are the limit.
    zeta_sq, dispersion = golden_limit()
    five_eighths, golden = (
        CoherentParams(0.0, SuperQubitParams(0.5 * math.pi, phi, ExtendedComplex.from_value(z)))
        for z in (1.0, math.sqrt(zeta_sq))
    )
    closed_58 = [abs(v - 0.625) for v in variance_quadratures_closed(five_eighths)]
    stats_58 = quadrature_stats_numeric(five_eighths, dim)
    numeric_58 = [abs(stats_58.var_x - 0.625), abs(stats_58.var_p - 0.625)]
    golden_gap = [abs(v - dispersion) for v in variance_quadratures_closed(golden)]

    return [
        Check("mean_quadratures_closed_vs_matrix", _worst(mean_gap), tol),
        Check("variance_quadratures_closed_vs_matrix", _worst(var_gap), tol),
        Check("variance_alpha_independence", _worst(alpha_independence), tol),
        Check("symmetric_point_variance_equality_closed", _worst(symmetric_closed), 1e-12),
        Check("symmetric_point_variance_equality_numeric", _worst(symmetric_numeric), tol),
        Check("five_eighths_point_closed", _worst(closed_58), 1e-15),
        Check("five_eighths_point_numeric", _worst(numeric_58), tol),
        Check("variance_floor_on_symmetric_family", _worst(variance_floor), 1e-10),
        Check("golden_point_variance", _worst(golden_gap), 1e-14),
    ]


def _above_root5(num: int, den: int) -> bool:
    """num / den > sqrt(5) for den > 0, decided exactly (a rational never equals sqrt(5))."""
    return num > 0 and num * num > 5 * den * den


def _suite_fibonacci(dim: int, tol: float, seed: int, n_max: int) -> list[Check]:
    checks, above, radii = [], [], []
    records = fibonacci_ladder(n_max, dim)
    # The references walk their own recurrence from F_1 = F_2 = 1, so that a
    # fault of the ladder's Fibonacci numbers cannot reach them too.  Each
    # exact identity is an integer cross-product of the records' lowest terms
    # p/q = |zeta_n|^2 and a/b = F_n/F_{n+1}.
    f_nm2, f_nm1 = 1, 1
    for record in records:
        f_n = f_nm1 + f_nm2
        f_np1 = f_n + f_nm1
        p, q = record.zeta_sq.numerator, record.zeta_sq.denominator
        a, b = record.dispersion_closed.numerator, record.dispersion_closed.denominator
        exact_ok = (
            record.fib_n == f_n
            # p/q = F_{n-1}/F_{n-2} - 1/2
            and 2 * f_nm2 * p == (2 * f_nm1 - f_nm2) * q
            and f_np1 * a == f_n * b
            # a/b = (1 + (1/2) / (1 + p/q)) / 2
            and (2 * p + 3 * q) * b == 4 * (p + q) * a
        )
        f_nm2, f_nm1 = f_nm1, f_n
        # The closed side is the references' F_n / F_{n+1}, the same rational
        # as a/b once exact_ok holds; int / int rounds as float(Fraction) does.
        residual = abs(record.dispersion_numeric - f_n / f_np1) if exact_ok else _BOOL_FAIL
        checks.append(Check(f"fibonacci_record[n={record.n}]", residual, tol))
        # Decided in exact arithmetic: from n ~ 40 on, the radius and the gap
        # sit within float rounding of their limits.  |zeta_n|^2 > phi - 1/2
        # reads 2 |zeta_n|^2 > sqrt(5).
        above.append(_above_root5(2 * p, q))
        radii.append((2 * a + b, b))

    # The gap |a/b - 1/phi| is |r - sqrt(5)| / 2 with r = (2a + b) / b.  It fails
    # to shrink when r repeats, or when sqrt(5) lies on the previous r's side of
    # their midpoint (n1 d0 + n0 d1) / (2 d0 d1).
    alternates = all(x != y for x, y in zip(above, above[1:]))
    converges = all(
        n1 * d0 != n0 * d1 and (n1 * d0 > n0 * d1) != _above_root5(n1 * d0 + n0 * d1, 2 * d0 * d1)
        for (n0, d0), (n1, d1) in zip(radii, radii[1:])
    )
    for name, ok in (
        ("fibonacci_circle_sign_alternation", alternates),
        ("fibonacci_dispersion_monotone_convergence", converges),
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
