"""Quadrature statistics of super-coherent states and the Fibonacci ladder.

Closed-form means and dispersions are paired with a matrix-expectation
oracle that applies the banded X and P.  The Fibonacci records are exact
integer/rational arithmetic, converted to floating point only where they
meet the numeric oracle; their dispersions converge to the inverse Golden
Ratio.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import TruncationError
from .fock import DEFAULT_DIM, _ladder_entries
from .moebius import BlochPoint, ExtendedComplex, _cartesian_grid, _grid_phases, bloch_cartesian
from .superstate import (
    BlockOperator,
    CoherentParams,
    _super_qubit_grid,
    _undisplaced,
    _vecdot,
    super_coherent_state,
)

__all__ = [
    "GOLDEN_RATIO",
    "QuadratureStats",
    "FibonacciRecord",
    "quadrature_operators",
    "mean_quadratures_closed",
    "variance_quadratures_closed",
    "quadrature_stats_closed",
    "quadrature_stats_numeric",
    "fibonacci_number",
    "fibonacci_record",
    "fibonacci_ladder",
    "golden_limit",
]

GOLDEN_RATIO = 0.5 * (1.0 + math.sqrt(5.0))

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class QuadratureStats:
    """First and second moments of the X and P quadratures (hbar = 1).

    ``product`` is the uncertainty product Delta X * Delta P, which equals the
    common variance whenever the two variances coincide.
    """

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    product: float


@dataclass(frozen=True)
class FibonacciRecord:
    """Row of the Fibonacci dispersion ladder.

    zeta_sq and dispersion_closed are exact rationals; dispersion_numeric is
    the matrix-oracle variance of the state on the circle |zeta|^2 = zeta_sq
    at the symmetric point theta = pi/2, phi = pi/4.
    """

    n: int
    fib_n: int
    zeta_sq: Fraction
    dispersion_closed: Fraction
    dispersion_numeric: float


def quadrature_operators(dim: int) -> tuple[BlockOperator, BlockOperator]:
    """X = (a + a^dag)/sqrt2 and P = i (a^dag - a)/sqrt2 on both fermion blocks.

    Each boson block is tridiagonal, so only its two off-diagonals are
    stored, read-only, and the operators are applied, multiplied and adjoined
    on those diagonals.  The pair is memoised per dim: repeated calls return
    the same two operators.
    """
    return _memoised_quadratures(dim)


# A report or a command reads one dim; an entry holds 8 diagonals of dim - 1
# complex numbers, 128 (dim - 1) bytes.
@functools.lru_cache(maxsize=8)
def _memoised_quadratures(dim: int) -> tuple[BlockOperator, BlockOperator]:
    # sqrt(n) / sqrt2 as numpy's complex division by sqrt2 rounds it, which
    # the golden Fibonacci table records
    off = _ladder_entries(dim) * (1.0 / _SQRT2)
    x = {-1: off, 1: off}
    p = {-1: 1j * off, 1: -1j * off}
    return BlockOperator(dim, (x, {}, {}, x)), BlockOperator(dim, (p, {}, {}, p))


def mean_quadratures_closed(params: CoherentParams) -> tuple[float, float]:
    """Closed-form quadrature means of a super-coherent state.

    The displacement contributes the classical point (sqrt2 Re alpha,
    sqrt2 Im alpha); the reference state adds the Bloch-vector projection
    with weight 1 / (sqrt2 sqrt(1 + |zeta|^2)), which vanishes at
    zeta = infinity.
    """
    cart = bloch_cartesian(BlochPoint(params.base.theta, params.base.phi))
    weight = params.base.zeta.v.real / _SQRT2  # 1/(sqrt2 sqrt(1+|zeta|^2))
    mean_x = _SQRT2 * params.alpha.real + cart.x * weight
    mean_p = _SQRT2 * params.alpha.imag + cart.y * weight
    return mean_x, mean_p


def variance_quadratures_closed(params: CoherentParams) -> tuple[float, float]:
    """Closed-form quadrature variances; independent of alpha.

    var X = (1 + (1 - z - x^2)/(1 + |zeta|^2)) / 2 and the same for P with
    y in place of x, where (x, y, z) is the Cartesian Bloch vector of
    (theta, phi).
    """
    cart = bloch_cartesian(BlochPoint(params.base.theta, params.base.phi))
    v = params.base.zeta.v.real
    weight = v * v  # 1/(1+|zeta|^2)
    return _closed_variance(cart.x, cart.z, weight), _closed_variance(cart.y, cart.z, weight)


def _closed_variance(coordinate, z, weight):
    """(1 + (1 - z - coordinate^2) * weight) / 2 on floats or on arrays of grid points."""
    return 0.5 * (1.0 + (1.0 - z - coordinate * coordinate) * weight)


def _variance_grid(
    thetas: list[float], cos_phi: np.ndarray, sin_phi: np.ndarray, zetas: list[ExtendedComplex]
) -> tuple[np.ndarray, np.ndarray]:
    """variance_quadratures_closed at each (zeta_k, theta_i, phi_j), in ``_super_qubit_grid``'s row order.

    ``cos_phi`` and ``sin_phi`` are ``moebius._grid_phases(thetas, phis)``,
    as ``superstate._super_qubit_grid`` reads them.  The (x, y, z) of each
    point is ``moebius._cartesian_grid``'s, computed once for every zeta.
    """
    x, y, z = _cartesian_grid(thetas, cos_phi, sin_phi)
    v = np.array([zeta.v.real for zeta in zetas])[:, None, None]
    weight = v * v  # 1/(1+|zeta|^2)
    return _closed_variance(x, z, weight).ravel(), _closed_variance(y, z, weight).ravel()


def _mean_grid(
    alphas: list[complex],
    thetas: list[float],
    cos_phi: np.ndarray,
    sin_phi: np.ndarray,
    zetas: list[ExtendedComplex],
) -> tuple[np.ndarray, np.ndarray]:
    """mean_quadratures_closed at each alpha_a and (zeta_k, theta_i, phi_j), as two (A, Z*T*P) arrays.

    Row a holds alpha_a's means in ``_super_qubit_grid``'s row order.  The
    (x, y) of each point is ``moebius._cartesian_grid``'s, as
    ``_variance_grid`` reads it, and each product and sum rounds as
    mean_quadratures_closed's do.
    """
    x, y, _ = _cartesian_grid(thetas, cos_phi, sin_phi)
    weight = np.array([zeta.v.real for zeta in zetas])[:, None, None] / _SQRT2
    alphas = np.array(alphas, dtype=np.complex128)[:, None]
    return _SQRT2 * alphas.real + (x * weight).ravel(), _SQRT2 * alphas.imag + (y * weight).ravel()


def quadrature_stats_closed(params: CoherentParams) -> QuadratureStats:
    """Closed-form moments packed with the uncertainty product."""
    mean_x, mean_p = mean_quadratures_closed(params)
    var_x, var_p = variance_quadratures_closed(params)
    return QuadratureStats(mean_x, mean_p, var_x, var_p, math.sqrt(var_x * var_p))


def _quadrature_stats(states: np.ndarray) -> np.ndarray:
    """The matrix-oracle moments of each state of a (..., 2, dim) coefficient stack, as a (5, ...) array.

    Row f holds field f of QuadratureStats (mean_x, mean_p, var_x, var_p,
    product) for every state.  Each block's image op @ psi is the banded
    apply of X and P from :func:`quadrature_operators`: a row holds two
    nonzero entries, so the dense row sum in any order without FMA adds only
    exact zeros to the same two rounded products, and the image is that dense
    product bit for bit.  <op^2> is ||op psi||^2 since op is Hermitian; each
    is one ``_vecdot`` per block, summed from 0.0, psi0 before psi1, which
    fixes the rounding of the golden Fibonacci table at every dim.  A state
    on levels 0 and 1 reaches level 2 under X and P, so dim >= 3 is required.
    """
    dim = states.shape[-1]
    if dim < 3:
        raise TruncationError(f"the quadrature oracle needs dim >= 3, got {dim}", required_dim=3)
    moments = []
    for op in quadrature_operators(dim):
        images = op.apply_coeffs(states)
        overlaps = _vecdot(states, images).real
        second = _vecdot(images, images).real
        means = (0.0 + overlaps[..., 0]) + overlaps[..., 1]
        seconds = (0.0 + second[..., 0]) + second[..., 1]
        moments.append((means, seconds - means * means))
    (mean_x, var_x), (mean_p, var_p) = moments
    return np.array([mean_x, mean_p, var_x, var_p, np.sqrt(var_x * var_p)])


def quadrature_stats_numeric(params: CoherentParams, dim: int = DEFAULT_DIM) -> QuadratureStats:
    """Matrix-expectation oracle for the closed quadrature formulas.

    Builds the state, applies the banded X and P of
    :func:`quadrature_operators` to it in O(dim), then evaluates <X>,
    <X^2> - <X>^2 (and the same for P) directly; <X^2> is computed as
    ||X psi||^2 since X is Hermitian.  At alpha = 0 the state lives on levels
    0 and 1, and X, P reach level 2, so dim >= 3 is required.
    """
    return QuadratureStats(*_quadrature_stats(super_coherent_state(params, dim).coeffs).tolist())


def fibonacci_number(n: int) -> int:
    """Fibonacci number with F_1 = F_2 = 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    prev, curr = 1, 1
    for _ in range(n - 2):
        prev, curr = curr, prev + curr
    return curr


def fibonacci_record(n: int, dim: int = DEFAULT_DIM) -> FibonacciRecord:
    """Exact Fibonacci circle row plus the matrix-oracle dispersion of its state.

    The circle radius is |zeta_n|^2 = F_{n-1}/F_{n-2} - 1/2 and the closed
    dispersion on it is F_n / F_{n+1}; the identity between the two is exact
    in rational arithmetic.  The oracle state uses the real positive root
    zeta_n = sqrt(|zeta_n|^2) (only the modulus enters) at alpha = 0.
    """
    (record,) = _fibonacci_records(n, n, dim)
    return record


def fibonacci_ladder(n_max: int, dim: int = DEFAULT_DIM) -> list[FibonacciRecord]:
    """fibonacci_record(n, dim) for n = 3 .. n_max, one X and P apply for all of them."""
    return _fibonacci_records(3, n_max, dim)


def _fibonacci_records(first: int, last: int, dim: int) -> list[FibonacciRecord]:
    """fibonacci_record of each n = first .. last, the oracle states one _quadrature_stats stack.

    The rows walk the recurrence from F_{first-2} and F_{first-1}, computed once.
    """
    if first < 3:
        raise ValueError(f"the ladder starts at n = 3, got {first}")
    f_nm2, f_nm1 = fibonacci_number(first - 2), fibonacci_number(first - 1)
    rows, zetas = [], []
    for n in range(first, last + 1):
        f_n = f_nm1 + f_nm2
        f_np1 = f_n + f_nm1
        zeta_sq = Fraction(2 * f_nm1 - f_nm2, 2 * f_nm2)  # F_{n-1}/F_{n-2} - 1/2
        zetas.append(ExtendedComplex.from_value(math.sqrt(zeta_sq)))
        rows.append((n, f_n, zeta_sq, Fraction(f_n, f_np1)))
        f_nm2, f_nm1 = f_nm1, f_n
    thetas = [0.5 * math.pi]
    low = _super_qubit_grid(thetas, *_grid_phases(thetas, [0.25 * math.pi]), zetas)
    var_x = _quadrature_stats(_undisplaced(low, dim))[2]
    return [FibonacciRecord(*row, numeric) for row, numeric in zip(rows, var_x.tolist())]


def golden_limit() -> tuple[float, float]:
    """Limit of the Fibonacci ladder: (|zeta_inf|^2, dispersion).

    |zeta_inf|^2 = golden ratio - 1/2 and the limiting dispersion (and
    uncertainty product) is the inverse golden ratio.
    """
    return GOLDEN_RATIO - 0.5, 1.0 / GOLDEN_RATIO
