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

Each route keeps a memo of its own, keyed on the bits of Re alpha and
Im alpha and on dim.  :func:`displaced_columns` holds 16 closed column
pairs, and reads lgamma(n + 1) for n < dim from a table built once per dim.
:func:`oracle_columns` holds the first two columns of 16 dense D(alpha),
each a (dim, 2) copy of 32 * dim bytes, at most 256 KiB at dim 512.  The
verification suites read no other column, so the full dim x dim D is never
kept.  A miss of either memo calls only its own route.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .errors import InvalidDimensionError, TruncationError

__all__ = [
    "DEFAULT_DIM",
    "GUARD_BAND",
    "FockVector",
    "boson_annihilator",
    "required_displacement_dim",
    "ensure_displacement_dim",
    "displacement_operator",
    "displaced_columns",
    "oracle_columns",
]

DEFAULT_DIM = 64
GUARD_BAND = 8
# Largest norm^2 that D|0> and D|1> together may lose past the truncation.
DISPLACED_TAIL_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class FockVector:
    """Complex amplitudes over |0..dim-1>, kept as a read-only complex128 copy.

    Compares and hashes by identity, as the package's other array-valued types do.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=np.complex128)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise InvalidDimensionError("coefficients must form a nonempty 1-d vector")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)


def boson_annihilator(dim: int) -> np.ndarray:
    """Lowering operator a with entries a[n-1, n] = sqrt(n).

    Its conjugate transpose is the raising operator; [a, a^dag] equals the
    identity on levels 0..dim-2, with the unavoidable truncation artifact
    1 - dim in the last diagonal entry.
    """
    return np.diag(_ladder_entries(dim), k=1)


def _ladder_entries(dim: int) -> np.ndarray:
    """The annihilator's superdiagonal sqrt(1), ..., sqrt(dim - 1), as complex128."""
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2 for ladder operators, got {dim}")
    return np.sqrt(np.arange(1.0, dim)).astype(np.complex128)


def _log_coherent_moduli(
    modulus: float, start: int, stop: int, log_factorial: np.ndarray | None = None
) -> np.ndarray:
    """log |<n|D(alpha)|0>| = -|alpha|^2/2 + n log|alpha| - lgamma(n+1)/2 for start <= n < stop.

    Working with logarithms keeps every factor finite where e^{-|alpha|^2/2}
    alone would underflow.  modulus must be positive.  log_factorial, when
    given, holds lgamma(n + 1) for those n; otherwise it is computed here.
    """
    n = np.arange(start, stop, dtype=np.float64)
    if log_factorial is None:
        log_factorial = np.fromiter(map(math.lgamma, n + 1.0), np.float64, stop - start)
    return (-0.5 * modulus * modulus) + n * math.log(modulus) - 0.5 * log_factorial


# The lgamma terms of the closed columns depend on dim alone, so every fresh
# alpha at a dim reads one table; 16 dims of 8 * dim bytes each.
@functools.lru_cache(maxsize=16)
def _log_factorials(dim: int) -> np.ndarray:
    """lgamma(n + 1) for 0 <= n < dim, as a read-only array built once per dim."""
    table = np.fromiter(map(math.lgamma, np.arange(dim, dtype=np.float64) + 1.0), np.float64, dim)
    table.setflags(write=False)
    return table


def _guard_floor(alpha: complex) -> int:
    """ceil(|alpha|^2 + 6 |alpha| + 20) for any finite alpha.

    Past the float range |alpha|^2 is summed exactly in rationals and
    |alpha| is rounded up to an integer.
    """
    try:
        a = abs(alpha)
        floor = a * a + 6.0 * a + 20.0
    except OverflowError:  # |alpha| itself overflows
        floor = math.inf
    if floor < math.inf:
        return math.ceil(floor)
    re, im = Fraction(alpha.real), Fraction(alpha.imag)
    mod_sq = math.ceil(re * re + im * im)
    return mod_sq + 6 * (math.isqrt(mod_sq) + 1) + 20


def required_displacement_dim(alpha: complex) -> int:
    """Smallest truncation size safe for displacing by alpha.

    The larger of |alpha|^2 + 6 |alpha| + 20 and the smallest dim at which
    D|0> and D|1> together lose at most ``DISPLACED_TAIL_TOL`` of their
    norm^2 past the truncation, summed from the closed moduli in O(|alpha|).
    """
    a = abs(alpha)
    floor = _guard_floor(complex(alpha))
    if a == 0:
        return floor
    # The crossing lies within 2|alpha| levels past the floor (1.89|alpha| at
    # |alpha| = 1e5).  Beyond floor + 6|alpha| + 60, or 2*floor for small alpha,
    # the weights sit far below the last bit of the tolerance.
    stop = min(2 * floor, floor + 6 * math.ceil(a) + 60)
    moduli = np.exp(_log_coherent_moduli(a, floor - 1, stop))  # |<n|D|0>| from n = floor-1
    # |<n|D|1>| = |sqrt(n) |<n-1|D|0>| - |alpha| |<n|D|0>||
    shifted = np.sqrt(np.arange(floor, stop, dtype=np.float64)) * moduli[:-1] - a * moduli[1:]
    weights = moduli[1:] * moduli[1:] + shifted * shifted
    tails = np.cumsum(weights[::-1])[::-1]  # tails[k] = mass on levels >= floor + k
    return floor + int(np.argmax(tails <= DISPLACED_TAIL_TOL))


def _dim_text(dim: int) -> str:
    """dim in full, or rounded to 4 significant digits past 15 digits."""
    return str(dim) if dim < 10**15 else f"{Decimal(dim):.3e}"


def ensure_displacement_dim(alpha: complex, dim: int) -> None:
    """Raise TruncationError when dim is too small to displace by alpha.

    O(dim) whatever alpha.  The tail scan of :func:`required_displacement_dim`
    runs only while both parts of alpha are at most dim, so over O(dim)
    levels.  A larger part needs dim > |alpha|^2 anyway: it is refused in
    O(1), naming the floor |alpha|^2 + 6 |alpha| + 20, a lower bound on the
    required dim.
    """
    alpha = complex(alpha)
    if abs(alpha.real) <= dim and abs(alpha.imag) <= dim:
        required = required_displacement_dim(alpha)
    else:
        required = _guard_floor(alpha)
    if dim < required:
        raise TruncationError(
            f"displacement by alpha = {alpha} needs dim >= {_dim_text(required)}, got {dim}",
            required_dim=required,
        )


def _require_two_levels(dim: int) -> None:
    if dim < 2:
        raise InvalidDimensionError(f"displacement needs dim >= 2, got {dim}")


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    """exp(alpha a^dag - conj(alpha) a) on the truncated space, the dense oracle.

    The anti-Hermitian generator is exponentiated through the spectral
    decomposition of its Hermitian partner i (conj(alpha) a - alpha a^dag),
    which keeps the result unitary to machine precision.  Its low columns
    differ from the exact D(alpha)|0>, D(alpha)|1> by the truncation of the
    generator; :func:`displaced_columns` is the production route.  alpha = 0
    gives the identity at any dim >= 2, outside the displacement guard.

    Each call runs a dense O(dim^3) ``eigh`` and returns a fresh, writable
    dim x dim array; it is not memoised.  :func:`oracle_columns` memoises
    the two columns that the verification suites read.
    """
    alpha = complex(alpha)
    _require_two_levels(dim)
    if alpha == 0:
        return np.eye(dim, dtype=np.complex128)
    ensure_displacement_dim(alpha, dim)
    a = boson_annihilator(dim)
    hermitian = 1j * (alpha.conjugate() * a - alpha * a.conj().T)
    evals, vecs = np.linalg.eigh(hermitian)
    return (vecs * np.exp(1j * evals)) @ vecs.conj().T


def displaced_columns(alpha: complex, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """D(alpha)|0> and D(alpha)|1> in closed form, O(dim), as read-only arrays.

    <n|D|0> = e^{-|alpha|^2/2} alpha^n / sqrt(n!) is evaluated from its
    logarithm, and D|1> = (a^dag - conj(alpha)) D|0> as a sqrt(n) shift.
    Both are exact on every kept level; the guard bounds what the truncation
    drops.  alpha = 0 gives the basis kets exactly, at any dim >= 2.

    The pair is memoised per exact (Re alpha, Im alpha, dim): 0.5 + 0j and
    0.5 - 0j compare equal but give D|1> columns whose zeros differ in sign,
    so the key holds the bits of both parts.  Repeated calls return the same
    arrays.
    """
    alpha = complex(alpha)
    return _memoised_columns(alpha.real.hex(), alpha.imag.hex(), dim)


# A report reads 5 amplitudes at one dim; 16 entries keep them for 3 dims,
# so reports that alternate between two dims rebuild none.  An entry holds
# 2 * dim complex numbers, 32 * dim bytes.
@functools.lru_cache(maxsize=16)
def _memoised_columns(re_hex: str, im_hex: str, dim: int) -> tuple[np.ndarray, np.ndarray]:
    alpha = complex(float.fromhex(re_hex), float.fromhex(im_hex))
    _require_two_levels(dim)
    if alpha == 0:
        d0, d1 = np.eye(2, dim, dtype=np.complex128)
    else:
        ensure_displacement_dim(alpha, dim)
        n = np.arange(dim, dtype=np.float64)
        log_moduli = _log_coherent_moduli(abs(alpha), 0, dim, _log_factorials(dim))
        d0 = np.exp(log_moduli + 1j * (n * cmath.phase(alpha)))
        d1 = -alpha.conjugate() * d0
        d1[1:] += np.sqrt(n[1:]) * d0[:-1]
    d0.setflags(write=False)
    d1.setflags(write=False)
    return d0, d1


def oracle_columns(alpha: complex, dim: int) -> np.ndarray:
    """The first two columns of :func:`displacement_operator`, as a read-only (dim, 2) copy.

    Memoised per exact (Re alpha, Im alpha, dim), with the key of
    :func:`displaced_columns` but a cache of its own: a miss calls only
    :func:`displacement_operator`, so the oracle shares no code with the
    closed route it checks.  Repeated calls return the same array.
    """
    alpha = complex(alpha)
    return _memoised_oracle_columns(alpha.real.hex(), alpha.imag.hex(), dim)


# A report reads 4 fixed amplitudes at one dim; 16 entries keep them for 4
# dims.  An entry holds 2 * dim complex numbers, 32 * dim bytes.
@functools.lru_cache(maxsize=16)
def _memoised_oracle_columns(re_hex: str, im_hex: str, dim: int) -> np.ndarray:
    alpha = complex(float.fromhex(re_hex), float.fromhex(im_hex))
    columns = np.array(displacement_operator(alpha, dim)[:, 0:2])
    columns.setflags(write=False)
    return columns
