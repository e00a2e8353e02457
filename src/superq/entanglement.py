"""Fermion-boson entanglement measures with paired closed-form/matrix routes.

Every closed formula here has an independent matrix-level counterpart: the
Gram-determinant concurrence checks the closed concurrences, the reduced
density matrix checks the Gram route, and the spectral entropy checks the
closed entropy.  ``verify`` compares each pair; a discrepancy is a
verification failure, never silently resolved in favor of either side.

The Gram route is one pass on (..., 2, L) coefficient stacks, one state's or
a whole grid's, from which the concurrence and the 2x2 spectrum are read in
closed form; the reduced density matrix never calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NormalizationError, NumericalConsistencyError
from .moebius import ExtendedComplex, _checked_theta
from .superstate import SuperVector, _block_norms_sq

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
    """The reduced boson state rho = F F^dag, held as its (dim, 2) factor F; compares by identity."""

    factor: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        factor = np.array(self.factor, dtype=np.complex128)
        if factor.ndim != 2 or factor.shape[1] != 2:
            raise ValueError("density factor must have shape (dim, 2)")
        # Tr rho = ||F||^2, written so that NaN entries, which compare false, are refused too
        if not abs(np.vdot(factor, factor).real - 1.0) <= 1e-12:
            raise NumericalConsistencyError("density matrix trace differs from 1")
        # rho's nonzero spectrum, descending, from one SVD: no code shared with the Gram pass
        singular = np.linalg.svd(factor, compute_uv=False)
        spectrum = singular * singular
        factor.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "_spectrum", spectrum)

    def purity(self) -> float:
        """Tr rho^2, the sum of the squared eigenvalues."""
        return float(sum(lam * lam for lam in self.eigenvalues()))

    def eigenvalues(self) -> np.ndarray:
        return self._spectrum


def _require_normalized(norm_sq) -> None:
    # refuses each norm^2 of an array; written so that a NaN norm^2, which
    # compares false, is refused too
    within = abs(norm_sq - 1.0) <= NORMALIZATION_TOL
    if not np.all(within):
        off = float(np.ravel(norm_sq)[~np.ravel(within)][0])
        raise NormalizationError(f"state norm^2 = {off} is not 1 within {NORMALIZATION_TOL}")


def _gram_entries(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """g00 = <psi0|psi0>, g11 = <psi1|psi1>, g01 = <psi0|psi1> and det G of a (..., 2, L) stack.

    The one Gram pass: the concurrence and the spectral entropy read it, and
    each norm^2 g00 + g11 is checked here.  g00 and g11 are the block norms^2
    of ``superstate._block_norms_sq``, which ``SuperVector.norm_sq`` reads
    too; g01 is one np.vecdot, which runs np.vdot's BLAS dot on each pair of
    blocks.  det G = g_big ||small - (<big|small> / g_big) big||^2, where big
    is the block of larger norm: the smaller block is projected off the
    larger one instead of subtracting |g01|^2 from g00 g11, so two parallel
    blocks give a determinant of rounding size squared, not rounding size.
    """
    block = _block_norms_sq(coeffs)
    g00, g11 = block[..., 0], block[..., 1]
    _require_normalized(g00 + g11)
    c0, c1 = coeffs[..., 0, :], coeffs[..., 1, :]
    g01 = np.vecdot(c0, c1)
    first_big = g00 >= g11
    big = np.where(first_big[..., None], c0, c1)
    small = np.where(first_big[..., None], c1, c0)
    g_big = np.where(first_big, g00, g11)
    # <psi1|psi0> is the conjugate of g01
    overlap = np.where(first_big, g01, np.conj(g01))
    # numpy divides by g_big + 0j as each part times 1 / g_big; Python's
    # complex / float would divide each part by g_big and round differently
    perpendicular = small - (overlap / g_big)[..., None] * big
    return g00, g11, g01, g_big * np.vecdot(perpendicular, perpendicular).real


def reduced_boson_density(state: SuperVector) -> DensityMatrix:
    """Partial trace over the fermion, |psi0><psi0| + |psi1><psi1|, as its factor [psi0 psi1]."""
    _require_normalized(state.norm_sq())
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


def _entropies(g00, g11, g01, det) -> np.ndarray:
    """The spectral entropy of each state of a stack, from its Gram pass, in row order.

    The 2x2 Hermitian spectrum in closed form: lam+ = (g00 + g11 + sqrt((g00 -
    g11)^2 + 4|g01|^2)) / 2 >= 1/2, and lam- = det G / lam+, which keeps the
    projected determinant's accuracy near a pure state, where g00 + g11 -
    sqrt(...) would cancel.  |g01|^2 is re^2 + im^2 and the logarithms are
    math.log2, since numpy's complex abs and its log2 round differently at
    different SIMD levels.  lam- = 0 adds no term, and + 0.0 turns a pure
    state's -0.0 into 0.0.
    """
    gap, re, im = g00 - g11, g01.real, g01.imag
    high = 0.5 * (g00 + g11 + np.sqrt(gap * gap + 4.0 * (re * re + im * im)))
    log2 = math.log2
    return np.array([
        -((lo * log2(lo) if lo > 0.0 else 0.0) + hi * log2(hi)) + 0.0
        for lo, hi in zip(np.ravel(det / high).tolist(), np.ravel(high).tolist())
    ])
