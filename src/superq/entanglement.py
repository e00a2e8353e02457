"""Fermion-boson entanglement measures with paired closed-form/matrix routes.

Every closed formula here has an independent matrix-level counterpart: the
Gram-determinant concurrence checks the closed concurrences, the reduced
density matrix checks the Gram route, and the spectral entropy checks the
closed entropy.  Reports carry both routes side by side; a discrepancy is a
verification failure, never silently resolved in favor of either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, NumericalConsistencyError
from .moebius import ExtendedComplex
from .superstate import (
    CoherentParams,
    SuperVector,
    _vdot_low,
    super_coherent_state,
    super_qubit_state,
)

__all__ = [
    "NORMALIZATION_TOL",
    "DensityMatrix",
    "EntanglementReport",
    "gram_matrix",
    "reduced_boson_density",
    "concurrence_gram",
    "concurrence_n_state",
    "concurrence_superqubit",
    "entropy_from_z",
    "collapse_probabilities",
    "entanglement_entropy_bits",
    "entanglement_report",
    "displacement_invariance_check",
]

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace reduced state of the boson factor; compares by identity."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if np.abs(mat - mat.conj().T).max() > 1e-12:
            raise NumericalConsistencyError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > 1e-12 or abs(np.trace(mat).imag) > 1e-12:
            raise NumericalConsistencyError("density matrix trace differs from 1")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def purity(self) -> float:
        """Tr rho^2, via the Frobenius norm (rho is Hermitian)."""
        return float(np.vdot(self.mat, self.mat).real)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.mat)


@dataclass(frozen=True)
class EntanglementReport:
    """Closed-form and oracle entanglement figures for one state, side by side."""

    concurrence_gram: float
    concurrence_closed: float
    purity: float
    entropy_bits: float
    p0: float
    p1: float


def _require_normalized(norm_sq: float) -> None:
    # written so that a NaN norm^2, which compares false, is refused too
    if not abs(norm_sq - 1.0) <= NORMALIZATION_TOL:
        raise NormalizationError(
            f"state norm^2 = {norm_sq} is not 1 within {NORMALIZATION_TOL}"
        )


def _gram_entries(state: SuperVector) -> tuple[float, float, np.complex128]:
    """g00 = <psi0|psi0>, g11 = <psi1|psi1> and g01 = <psi0|psi1>, one np.vdot each.

    The one place the Gram entries are computed (the diagonal ones by
    ``SuperVector.block_norms_sq``); the concurrence, the Gram matrix and the
    spectral entropy all read them from here.
    """
    return (*state.block_norms_sq(), np.vdot(state.psi0, state.psi1))


def _gram(g00: float, g11: float, g01: np.complex128) -> np.ndarray:
    return np.array([[g00, g01], [g01.conjugate(), g11]], dtype=np.complex128)


def gram_matrix(state: SuperVector) -> np.ndarray:
    """2x2 Gram matrix of the two fermion blocks in the boson Fock space."""
    return _gram(*_gram_entries(state))


def reduced_boson_density(state: SuperVector) -> DensityMatrix:
    """Partial trace over the fermion: |psi0><psi0| + |psi1><psi1|."""
    _require_normalized(state.norm_sq())
    c0, c1 = state.coeffs
    return DensityMatrix(np.outer(c0, c0.conj()) + np.outer(c1, c1.conj()))


def concurrence_gram(state: SuperVector) -> float:
    """Concurrence 2 sqrt(det G) from the Gram determinant of the blocks.

    det G = g_big ||small - (<big|small> / g_big) big||^2, where big is the
    block of larger norm: the smaller block is projected off the larger one
    instead of subtracting |g01|^2 from g00 g11, so two parallel blocks give
    a determinant of rounding size squared, not rounding size.
    """
    return _concurrence(state, *_gram_entries(state))


def _concurrence(state: SuperVector, g00: float, g11: float, g01: np.complex128) -> float:
    """concurrence_gram of a state whose Gram entries are already computed."""
    _require_normalized(g00 + g11)
    c0, c1 = state.coeffs
    if g00 >= g11:
        big, small, g_big, overlap = c0, c1, g00, g01
    else:  # <psi1|psi0> is the conjugate of g01
        big, small, g_big, overlap = c1, c0, g11, g01.conjugate()
    # numpy divides by g_big + 0j as each part times 1 / g_big; Python's
    # complex / float would divide each part by g_big and round differently
    perpendicular = small - (overlap / g_big) * big
    det = g_big * float(np.vdot(perpendicular, perpendicular).real)
    return min(1.0, 2.0 * math.sqrt(det))


def concurrence_n_state(zeta: ExtendedComplex) -> float:
    """Closed concurrence 2|zeta| / (1 + |zeta|^2) of any n super-particle state.

    Evaluated homogeneously as 2 |u| v, which vanishes at both poles and does
    not depend on n.
    """
    return 2.0 * abs(zeta.u) * zeta.v.real


def concurrence_superqubit(theta: float, zeta: ExtendedComplex) -> float:
    """Closed concurrence sin^2(theta/2) * 2|zeta| / (1 + |zeta|^2)."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    return math.sin(0.5 * theta) ** 2 * concurrence_n_state(zeta)


def entropy_from_z(z: float) -> float:
    """Von Neumann entropy in bits as a function of the vertical coordinate z.

    E(z) = -1/2 log2((1 - z^2)/4) - z/2 log2((1 + z)/(1 - z)), which equals
    the binary entropy of p = (1 + z)/2.  The indeterminate endpoints
    z = +/-1 return their analytic limit 0.
    """
    z = float(z)
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"z must lie in [-1, 1], got {z}")
    if z == 1.0 or z == -1.0:
        return 0.0
    return -0.5 * math.log2((1.0 - z * z) / 4.0) - 0.5 * z * math.log2(
        (1.0 + z) / (1.0 - z)
    )


def collapse_probabilities(z: float) -> tuple[float, float]:
    """Pole-collapse probabilities ((1 + z)/2, (1 - z)/2) at height z."""
    z = float(z)
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"z must lie in [-1, 1], got {z}")
    return 0.5 * (1.0 + z), 0.5 * (1.0 - z)


def _entropy_bits(eigenvalues: np.ndarray) -> float:
    """-sum lam log2 lam over the positive eigenvalues."""
    # + 0.0 turns the empty/pure-state result -0.0 into plain 0.0
    return float(-sum(lam * math.log2(lam) for lam in eigenvalues if lam > 0.0) + 0.0)


def entanglement_entropy_bits(state: SuperVector) -> float:
    """Spectral entanglement entropy of the reduced boson state, in bits.

    The reduced density matrix has rank <= 2 and its nonzero spectrum equals
    the spectrum of the 2x2 Gram matrix, so only that spectrum is computed.
    """
    g00, g11, g01 = _gram_entries(state)
    _require_normalized(g00 + g11)
    return _entropy_bits(np.linalg.eigvalsh(_gram(g00, g11, g01)))


def _gram_grid(coeffs: np.ndarray) -> tuple[list[float], list[float]]:
    """concurrence_gram and entanglement_entropy_bits of each state of a (K, 2, 2) array.

    ``coeffs[k]`` holds levels 0 and 1 of a state zero above them, as
    ``superstate._super_qubit_grid`` builds it.  Each Gram entry is computed
    once per state, the normalization check runs on every state, and the
    concurrence follows _concurrence step for step with numpy's own complex
    division and multiply.  The spectra come from one stacked eigvalsh, which
    runs the same LAPACK routine on each matrix.  For blocks of length >= 8
    both columns equal the per-state functions bit for bit (see _vdot_low).
    """
    c0, c1 = coeffs[:, 0], coeffs[:, 1]
    g00, g11 = _vdot_low(c0, c0).real, _vdot_low(c1, c1).real
    g01 = _vdot_low(c0, c1)
    norm_sq = g00 + g11
    off = ~(np.abs(norm_sq - 1.0) <= NORMALIZATION_TOL)
    if off.any():
        _require_normalized(float(norm_sq[off][0]))
    first_big = g00 >= g11
    big = np.where(first_big[:, None], c0, c1)
    small = np.where(first_big[:, None], c1, c0)
    g_big = np.where(first_big, g00, g11)
    overlap = np.where(first_big, g01, g01.conj())
    perpendicular = small - (overlap / g_big)[:, None] * big
    det = g_big * _vdot_low(perpendicular, perpendicular).real
    concurrence = np.minimum(1.0, 2.0 * np.sqrt(det))
    gram = np.empty((len(coeffs), 2, 2), dtype=np.complex128)
    gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 0], gram[:, 1, 1] = g00, g01, g01.conj(), g11
    entropy = [_entropy_bits(eigenvalues) for eigenvalues in np.linalg.eigvalsh(gram).tolist()]
    return concurrence.tolist(), entropy


def entanglement_report(
    state: SuperVector, concurrence_closed: float, p0: float, p1: float
) -> EntanglementReport:
    """Assemble the oracle-side figures for a state next to the closed forms.

    Validates the internal identities that do not depend on which closed
    formula the caller supplied: probabilities sum to one, and the squared
    Gram concurrence equals twice the linear entropy 1 - Tr rho^2.
    """
    entries = _gram_entries(state)
    c_gram = _concurrence(state, *entries)
    eigenvalues = np.linalg.eigvalsh(_gram(*entries))
    purity = float(np.sum(eigenvalues**2))
    if abs(p0 + p1 - 1.0) > 1e-12:
        raise NumericalConsistencyError(f"p0 + p1 = {p0 + p1} differs from 1")
    if abs(c_gram**2 - 2.0 * (1.0 - purity)) > 1e-10:
        raise NumericalConsistencyError(
            "squared concurrence does not match twice the linear entropy"
        )
    return EntanglementReport(
        concurrence_gram=c_gram,
        concurrence_closed=float(concurrence_closed),
        purity=purity,
        entropy_bits=_entropy_bits(eigenvalues),
        p0=float(p0),
        p1=float(p1),
    )


def displacement_invariance_check(params: CoherentParams, dim: int) -> float:
    """Absolute concurrence drift between a reference state and its displacement."""
    reference = super_qubit_state(params.base, dim)
    displaced = super_coherent_state(params, dim)
    return abs(concurrence_gram(displaced) - concurrence_gram(reference))
