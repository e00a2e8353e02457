"""Truncated bosonic Fock space: ladder operators, displacement, displaced kets.

All operators are dense complex matrices over the number basis |0..dim-1>.
Truncation corrupts only the top of the spectrum, so operator identities are
asserted on a guard-restricted block (``GUARD_BAND`` top levels excluded).

Displaced kets come from two independent routes.  :func:`displaced_columns`
evaluates D(alpha)|0> and D(alpha)|1> in closed form, exact on every kept
level; :func:`displacement_operator` exponentiates the truncated generator
densely and serves as the oracle for it.  Both respect
:func:`required_displacement_dim`, which keeps the norm^2 the two closed
columns lose past the truncation below 1e-13.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, TruncationError, UnsupportedLevelError

__all__ = [
    "DEFAULT_DIM",
    "GUARD_BAND",
    "BosonOperator",
    "FockVector",
    "basis_ket",
    "zero_vector",
    "boson_annihilator",
    "boson_creator",
    "number_operator",
    "required_displacement_dim",
    "ensure_displacement_dim",
    "displacement_operator",
    "displaced_columns",
    "displaced_number_state",
]

DEFAULT_DIM = 64
GUARD_BAND = 8
# Largest norm^2 that D|0> and D|1> together may lose past the truncation.
DISPLACED_TAIL_TOL = 1e-13

# Dense complex matrix acting on the truncated number basis.
BosonOperator = np.ndarray


@dataclass(frozen=True)
class FockVector:
    """Complex amplitudes over the truncated number basis |0..dim-1>."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=np.complex128)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise InvalidDimensionError("coefficients must form a nonempty 1-d vector")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def norm_sq(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inner(self, other: "FockVector") -> complex:
        """<self|other>, conjugating the left argument."""
        return complex(np.vdot(self.coeffs, other.coeffs))

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol


def basis_ket(n: int, dim: int) -> FockVector:
    """Number state |n> in a dim-level space."""
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    if not 0 <= n < dim:
        raise TruncationError(
            f"|{n}> does not fit in {dim} levels", required_dim=n + 1
        )
    coeffs = np.zeros(dim, dtype=np.complex128)
    coeffs[n] = 1.0
    return FockVector(coeffs)


def zero_vector(dim: int) -> FockVector:
    """The zero vector (not a state) used for empty fermion blocks."""
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    return FockVector(np.zeros(dim, dtype=np.complex128))


def boson_annihilator(dim: int) -> BosonOperator:
    """Lowering operator a with entries a[n-1, n] = sqrt(n).

    Its conjugate transpose is the raising operator; [a, a^dag] equals the
    identity on levels 0..dim-2, with the unavoidable truncation artifact
    1 - dim in the last diagonal entry.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2 for ladder operators, got {dim}")
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(np.complex128)


def boson_creator(dim: int) -> BosonOperator:
    """Raising operator, the conjugate transpose of the annihilator."""
    return boson_annihilator(dim).conj().T


def number_operator(dim: int) -> BosonOperator:
    """Diagonal occupation-number operator diag(0, 1, ..., dim-1)."""
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    return np.diag(np.arange(dim, dtype=np.float64)).astype(np.complex128)


def _log_coherent_moduli(modulus: float, start: int, stop: int) -> np.ndarray:
    """log |<n|D(alpha)|0>| = -|alpha|^2/2 + n log|alpha| - lgamma(n+1)/2 for start <= n < stop.

    Working with logarithms keeps every factor finite where e^{-|alpha|^2/2}
    alone would underflow.  modulus must be positive.
    """
    n = np.arange(start, stop, dtype=np.float64)
    log_factorial = np.fromiter(map(math.lgamma, n + 1.0), np.float64, stop - start)
    return (-0.5 * modulus * modulus) + n * math.log(modulus) - 0.5 * log_factorial


def required_displacement_dim(alpha: complex) -> int:
    """Smallest truncation size safe for displacing by alpha.

    The larger of |alpha|^2 + 6 |alpha| + 20 and the smallest dim at which
    D|0> and D|1> together lose at most ``DISPLACED_TAIL_TOL`` of their
    norm^2 past the truncation, summed in O(dim) from the closed moduli.
    """
    a = abs(alpha)
    floor = math.ceil(a * a + 6.0 * a + 20.0)
    if a == 0:
        return floor
    # levels floor..2*floor-1; the weights past 2*floor are far below the tolerance
    moduli = np.exp(_log_coherent_moduli(a, floor - 1, 2 * floor))  # |<n|D|0>| from n = floor-1
    # |<n|D|1>| = |sqrt(n) |<n-1|D|0>| - |alpha| |<n|D|0>||
    shifted = np.sqrt(np.arange(floor, 2.0 * floor)) * moduli[:-1] - a * moduli[1:]
    weights = moduli[1:] ** 2 + shifted**2
    tails = np.cumsum(weights[::-1])[::-1]  # tails[k] = mass on levels >= floor + k
    return floor + int(np.argmax(tails <= DISPLACED_TAIL_TOL))


def ensure_displacement_dim(alpha: complex, dim: int) -> None:
    """Raise TruncationError when dim is too small to displace by alpha."""
    required = required_displacement_dim(alpha)
    if dim < required:
        raise TruncationError(
            f"displacement by alpha = {alpha} needs dim >= {required}, got {dim}",
            required_dim=required,
        )


def displacement_operator(alpha: complex, dim: int) -> BosonOperator:
    """exp(alpha a^dag - conj(alpha) a) on the truncated space, the dense oracle.

    The anti-Hermitian generator is exponentiated through the spectral
    decomposition of its Hermitian partner i (conj(alpha) a - alpha a^dag),
    which keeps the result unitary to machine precision.  Its low columns
    differ from the exact D(alpha)|0>, D(alpha)|1> by the truncation of the
    generator; :func:`displaced_columns` is the production route.
    """
    alpha = complex(alpha)
    ensure_displacement_dim(alpha, dim)
    if alpha == 0:
        return np.eye(dim, dtype=np.complex128)
    a = boson_annihilator(dim)
    hermitian = 1j * (alpha.conjugate() * a - alpha * a.conj().T)
    evals, vecs = np.linalg.eigh(hermitian)
    return (vecs * np.exp(1j * evals)) @ vecs.conj().T


def displaced_columns(alpha: complex, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """D(alpha)|0> and D(alpha)|1> in closed form, O(dim).

    <n|D|0> = e^{-|alpha|^2/2} alpha^n / sqrt(n!) is evaluated from its
    logarithm, and D|1> = (a^dag - conj(alpha)) D|0> as a sqrt(n) shift.
    Both are exact on every kept level; the guard bounds what the truncation
    drops.  alpha = 0 gives the basis kets exactly.
    """
    alpha = complex(alpha)
    ensure_displacement_dim(alpha, dim)
    if alpha == 0:
        basis = np.eye(2, dim, dtype=np.complex128)
        return basis[0], basis[1]
    n = np.arange(dim, dtype=np.float64)
    d0 = np.exp(_log_coherent_moduli(abs(alpha), 0, dim) + 1j * (n * cmath.phase(alpha)))
    d1 = -alpha.conjugate() * d0
    d1[1:] += np.sqrt(n[1:]) * d0[:-1]
    return d0, d1


def displaced_number_state(alpha: complex, m: int, dim: int) -> FockVector:
    """D(alpha)|m> for m in {0, 1}, from the closed-form columns."""
    if m not in (0, 1):
        raise UnsupportedLevelError(f"only levels 0 and 1 are supported, got {m}")
    return FockVector(displaced_columns(alpha, dim)[m])
