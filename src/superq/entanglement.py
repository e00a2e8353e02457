"""Fermion-boson entanglement measures with paired closed-form/matrix routes.

Every closed formula here has an independent matrix-level counterpart: the
Gram-determinant concurrence checks the closed concurrences, the reduced
density matrix checks the Gram route, and the spectral entropy checks the
closed entropy.  ``verify`` compares each pair; a discrepancy is a
verification failure, never silently resolved in favor of either side.

The Gram route is one pass on (..., 2, L) coefficient stacks, one state's or
a whole grid's, from which the concurrence and the 2x2 spectrum are read in
closed form; ``_gram_measures`` is the one reader of its kernels outside
this module, and the reduced density matrix never calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NormalizationError
from .moebius import ExtendedComplex, _checked_theta
from .superstate import SuperVector, _block_norms_sq, _vecdot

__all__ = [
    "NORMALIZATION_TOL",
    "DensityMatrix",
    "reduced_boson_density",
    "concurrence_gram",
    "concurrence_n_state",
    "concurrence_superqubit",
    "entropy_from_z",
    "collapse_probabilities",
    "entanglement_entropy_bits",
]

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """The reduced boson state rho = F F^dag, held as its (dim, 2) factor F; compares by identity.

    A (..., dim, 2) factor stack holds one rho per factor, and ``purity`` and
    ``eigenvalues`` then return one value, or one spectrum, per factor.
    """

    factor: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        factor = np.array(self.factor, dtype=np.complex128)
        if factor.ndim < 2 or factor.shape[-1] != 2:
            raise ValueError("density factor must have shape (dim, 2), or (..., dim, 2) for a stack")
        # Tr rho = ||F||^2 = ||psi||^2 of each factor, the one norm check on the rho route
        rows = factor.reshape(*factor.shape[:-2], 1, -1)
        _require_normalized((rows.conj() @ rows.swapaxes(-1, -2)).real)
        # rho's nonzero spectrum, descending, from one SVD of the stack: no code shared with the Gram pass
        singular = np.linalg.svd(factor, compute_uv=False)
        spectrum = singular * singular
        factor.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "_spectrum", spectrum)

    def purity(self) -> float | np.ndarray:
        """Tr rho^2, the sum of the squared eigenvalues, of each factor."""
        spectrum = self.eigenvalues()
        return np.sum(spectrum * spectrum, axis=-1)

    def eigenvalues(self) -> np.ndarray:
        return self._spectrum


def _require_normalized(norm_sq) -> None:
    # refuses each norm^2 of an array; written so that a NaN norm^2, which
    # compares false, is refused too
    within = abs(norm_sq - 1.0) <= NORMALIZATION_TOL
    if not np.all(within):
        off = float(np.ravel(norm_sq)[~np.ravel(within)][0])
        raise NormalizationError(f"state norm^2 = {off} is not 1 within {NORMALIZATION_TOL}")


def _gram_measures(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """g00, g11, the Gram concurrence and the spectral entropy of each state of a (..., 2, L) stack.

    Each has the stack's shape (...), and all four come from one Gram pass;
    for one state they are bit for bit its block norms^2, ``concurrence_gram``
    and ``entanglement_entropy_bits``.  ``verify`` and every command but
    ``concurrence``, which prints no entropy, read the Gram route here.
    """
    g00, g11, g01, det = _gram_entries(coeffs)
    return g00, g11, _concurrence(det), _entropies(g00, g11, g01, det).reshape(np.shape(det))


def _gram_entries(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """g00 = <psi0|psi0>, g11 = <psi1|psi1>, g01 = <psi0|psi1> and det G of a (..., 2, L) stack.

    The one Gram pass: the concurrence and the spectral entropy read it, and
    each norm^2 g00 + g11 is checked here.  g00 and g11 are the block norms^2
    that ``SuperVector.norm_sq`` reads too; they, g01 and the norm^2 below
    are each one ``superstate._vecdot``, which pads an L below 8 to 8.
    det G = g_big ||small - (<big|small> / g_big) big||^2, where big is the
    block of larger norm: the smaller block is projected off the larger one
    instead of subtracting |g01|^2 from g00 g11, so two parallel blocks give
    a determinant of rounding size squared, not rounding size.
    """
    block = _block_norms_sq(coeffs)
    g00, g11 = block[..., 0], block[..., 1]
    _require_normalized(g00 + g11)
    c0, c1 = coeffs[..., 0, :], coeffs[..., 1, :]
    g01 = _vecdot(c0, c1)
    first_big = g00 >= g11
    big = np.where(first_big[..., None], c0, c1)
    small = np.where(first_big[..., None], c1, c0)
    g_big = np.where(first_big, g00, g11)
    # <psi1|psi0> is the conjugate of g01
    overlap = np.where(first_big, g01, np.conj(g01))
    # numpy divides by g_big + 0j as each part times 1 / g_big; Python's
    # complex / float would divide each part by g_big and round differently
    perpendicular = small - (overlap / g_big)[..., None] * big
    return g00, g11, g01, g_big * _vecdot(perpendicular, perpendicular).real


def reduced_boson_density(state: SuperVector) -> DensityMatrix:
    """Partial trace over the fermion, |psi0><psi0| + |psi1><psi1|, as its factor [psi0 psi1]."""
    return DensityMatrix(state.coeffs.T)


def concurrence_gram(state: SuperVector) -> float:
    """Concurrence 2 sqrt(det G) from the Gram determinant of the blocks, capped at 1."""
    return float(_concurrence(_gram_entries(state.coeffs)[3]))


def _concurrence(det: np.ndarray) -> np.ndarray:
    """concurrence_gram of each state of a stack, given its Gram determinant."""
    return np.minimum(1.0, 2.0 * np.sqrt(det))


def concurrence_n_state(zeta: ExtendedComplex) -> float:
    """Closed concurrence 2|zeta| / (1 + |zeta|^2) of any n super-particle state.

    Evaluated homogeneously as 2 |u| v, which vanishes at both poles and does
    not depend on n.
    """
    return 2.0 * abs(zeta.u) * zeta.v.real


def concurrence_superqubit(theta: float, zeta: ExtendedComplex) -> float:
    """Closed concurrence sin^2(theta/2) * 2|zeta| / (1 + |zeta|^2)."""
    half_sin = math.sin(0.5 * _checked_theta(theta))
    return half_sin * half_sin * concurrence_n_state(zeta)


def _checked_z(z: float) -> float:
    z = float(z)
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"z must lie in [-1, 1], got {z}")
    return z


def entropy_from_z(z: float) -> float:
    """Von Neumann entropy in bits as a function of the vertical coordinate z.

    E(z) = -1/2 log2((1 - z^2)/4) - z/2 log2((1 + z)/(1 - z)), which equals
    the binary entropy of p = (1 + z)/2.  The indeterminate endpoints
    z = +/-1 return their analytic limit 0.
    """
    z = _checked_z(z)
    if z == 1.0 or z == -1.0:
        return 0.0
    return -0.5 * math.log2((1.0 - z * z) / 4.0) - 0.5 * z * math.log2(
        (1.0 + z) / (1.0 - z)
    )


def collapse_probabilities(z: float) -> tuple[float, float]:
    """Pole-collapse probabilities ((1 + z)/2, (1 - z)/2) at height z."""
    z = _checked_z(z)
    return 0.5 * (1.0 + z), 0.5 * (1.0 - z)


def entanglement_entropy_bits(state: SuperVector) -> float:
    """Spectral entanglement entropy of the reduced boson state, in bits.

    The reduced density matrix has rank <= 2 and its nonzero spectrum equals
    the spectrum of the 2x2 Gram matrix, so only that spectrum is computed,
    in closed form by the sweep's kernel on one state.
    """
    return float(_entropies(*_gram_entries(state.coeffs))[0])


# The measured crossover: below this many states the per-value expression is
# faster than the sort that finds the distinct eigenvalues (sweep grids at
# zeta = 0.7 + 0.2i, 1 and 3 - i: per value faster at 40 states, even at 60,
# the sort at 80 and beyond).
_DISTINCT_MIN = 64


def _entropies(g00, g11, g01, det) -> np.ndarray:
    """The spectral entropy of each state of a stack, from its Gram pass, in row order.

    The 2x2 Hermitian spectrum in closed form: lam+ = (g00 + g11 + sqrt((g00 -
    g11)^2 + 4|g01|^2)) / 2 >= 1/2, and lam- = det G / lam+, which keeps the
    projected determinant's accuracy near a pure state, where g00 + g11 -
    sqrt(...) would cancel.  |g01|^2 is re^2 + im^2 and the logarithms are
    math.log2, since numpy's complex abs and its log2 round differently at
    different SIMD levels.  The entropy is -(lam- log2 lam- + lam+ log2 lam+)
    + 0.0: lam- = 0 adds no term, and + 0.0 turns a pure state's -0.0 into
    0.0.

    Below _DISTINCT_MIN states (one state, verify's small stacks) that
    expression runs in Python floats, state by state.  A larger stack, such
    as a sweep grid, repeats most of its eigenvalues: it sorts lam- and lam+
    together, takes one math.log2 per distinct positive value, and forms the
    products and sums with numpy's float64 * and +, which round as Python's
    do; a zero lam- meets a log of 0.0, so its term is 0.0 as well.
    """
    gap, re, im = g00 - g11, g01.real, g01.imag
    high = 0.5 * (g00 + g11 + np.sqrt(gap * gap + 4.0 * (re * re + im * im)))
    low = det / high
    log2 = math.log2
    if high.size < _DISTINCT_MIN:
        return np.array([
            -((lo * log2(lo) if lo > 0.0 else 0.0) + hi * log2(hi)) + 0.0
            for lo, hi in zip(low.ravel().tolist(), high.ravel().tolist())
        ])
    spectra = np.concatenate([low.ravel(), high.ravel()])
    ordered = np.sort(spectra)
    first = np.ones(len(ordered), bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    logs = np.array([log2(lam) if lam > 0.0 else 0.0 for lam in distinct.tolist()])
    terms = spectra * logs[distinct.searchsorted(spectra)]
    return -(terms[: low.size] + terms[low.size :]) + 0.0
