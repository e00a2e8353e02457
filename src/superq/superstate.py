"""Composite fermion (x) boson space: block operators and the named states.

A composite vector splits by fermion occupation into two Fock-space blocks
(psi0, psi1).  Operators are 2x2 blocks of dense boson matrices with the
fermion index as the outer block index, so the full matrix of an operator is
the corresponding 2*dim x 2*dim array.

The one-super-particle label zeta enters every construction through its
homogeneous coordinates (u, v): the pair of blocks of |n, zeta> is
(v |n>, u |n-1>), the coefficient -1/zeta of the super-annihilation operator
is -v/u, and both poles of the sphere come out of the same expressions.

Public constructors copy the arrays a caller passes in.  The operators and
states built here wrap the fresh arrays of their own arithmetic without a
copy (``FockVector._adopt``, ``BlockOperator._adopt``), read-only as well.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidDimensionError, SingularParameterError, TruncationError
from .fock import (
    GUARD_BAND,
    FockVector,
    basis_ket,
    boson_annihilator,
    boson_creator,
    displaced_columns,
    number_operator,
    zero_vector,
)
from .moebius import BlochPoint, ExtendedComplex

__all__ = [
    "SuperVector",
    "BlockOperator",
    "SuperQubitParams",
    "CoherentParams",
    "CommutatorResiduals",
    "super_number_operator",
    "super_annihilation",
    "super_annihilation_transposed",
    "super_creation_gate",
    "n_superparticle_state",
    "super_qubit_state",
    "super_coherent_state",
    "flip_operator",
    "flip_state",
    "flipped_super_coherent_state",
    "pole_probabilities",
    "commutator_suite",
    "guarded_levels",
    "guarded_max_abs",
    "guarded_norm",
]


@dataclass(frozen=True)
class SuperVector:
    """Fermion-0 and fermion-1 Fock blocks of a composite state."""

    psi0: FockVector
    psi1: FockVector

    def __post_init__(self):
        if self.psi0.dim != self.psi1.dim:
            raise InvalidDimensionError(
                f"blocks must share one truncation size, got {self.psi0.dim} and {self.psi1.dim}"
            )

    @property
    def dim(self) -> int:
        return self.psi0.dim

    def norm_sq(self) -> float:
        return self.psi0.norm_sq() + self.psi1.norm_sq()

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol

    def inner(self, other: "SuperVector") -> complex:
        """<self|other>, conjugating the left argument."""
        return self.psi0.inner(other.psi0) + self.psi1.inner(other.psi1)

    def to_array(self) -> np.ndarray:
        """Stacked coefficients (psi0 then psi1), length 2*dim."""
        return np.concatenate([self.psi0.coeffs, self.psi1.coeffs])

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SuperVector":
        arr = np.asarray(arr)
        if arr.ndim != 1 or arr.size % 2 != 0:
            raise InvalidDimensionError("stacked vector must have even length")
        half = arr.size // 2
        return cls(FockVector(arr[:half]), FockVector(arr[half:]))

    @classmethod
    def _adopt(cls, coeffs0: np.ndarray, coeffs1: np.ndarray) -> "SuperVector":
        """Wrap two fresh complex128 blocks of one length without copying them."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "psi0", FockVector._adopt(coeffs0))
        object.__setattr__(vector, "psi1", FockVector._adopt(coeffs1))
        return vector

    def __sub__(self, other: "SuperVector") -> "SuperVector":
        return SuperVector._adopt(
            self.psi0.coeffs - other.psi0.coeffs, self.psi1.coeffs - other.psi1.coeffs
        )

    def __rmul__(self, scalar: complex) -> "SuperVector":
        return SuperVector._adopt(scalar * self.psi0.coeffs, scalar * self.psi1.coeffs)


@dataclass(frozen=True)
class BlockOperator:
    """2x2 block of dense boson matrices; the fermion index is the block index.

    A block whose entries are all zero is neither multiplied nor added by
    ``@`` and ``apply``; it is still stored as a dense zero matrix.
    """

    ul: np.ndarray
    ur: np.ndarray
    ll: np.ndarray
    lr: np.ndarray

    def __post_init__(self):
        blocks = {}
        shape = None
        for name in ("ul", "ur", "ll", "lr"):
            block = np.array(getattr(self, name), dtype=np.complex128)
            if block.ndim != 2 or block.shape[0] != block.shape[1]:
                raise InvalidDimensionError(f"block {name} must be a square matrix")
            if shape is None:
                shape = block.shape
            elif block.shape != shape:
                raise InvalidDimensionError("all four blocks must share one shape")
            block.setflags(write=False)
            blocks[name] = block
        for name, block in blocks.items():
            object.__setattr__(self, name, block)

    @classmethod
    def _adopt(cls, ul, ur, ll, lr) -> "BlockOperator":
        """Wrap fresh square complex128 blocks of one shape without copying them."""
        op = object.__new__(cls)
        for name, block in zip(("ul", "ur", "ll", "lr"), (ul, ur, ll, lr)):
            block.setflags(write=False)
            object.__setattr__(op, name, block)
        return op

    @property
    def dim(self) -> int:
        return self.ul.shape[0]

    @cached_property
    def _rows(self) -> tuple[tuple, tuple]:
        """((ul, ur), (ll, lr)) with None in place of each all-zero block."""
        return tuple(
            tuple(block if block.any() else None for block in row)
            for row in ((self.ul, self.ur), (self.ll, self.lr))
        )

    @classmethod
    def boson_diagonal(cls, mat: np.ndarray) -> "BlockOperator":
        """The same boson matrix on both fermion blocks (identity on the fermion)."""
        zeros = np.zeros_like(np.asarray(mat, dtype=np.complex128))
        return cls(mat, zeros, zeros, mat)

    def full(self) -> np.ndarray:
        """Dense 2*dim x 2*dim matrix."""
        return np.block([[self.ul, self.ur], [self.ll, self.lr]])

    def apply(self, state: SuperVector) -> SuperVector:
        psi = (state.psi0.coeffs, state.psi1.coeffs)
        return SuperVector._adopt(
            *(_sum_of_products(row, psi, (self.dim,)) for row in self._rows)
        )

    def dagger(self) -> "BlockOperator":
        return BlockOperator._adopt(
            self.ul.conj().T, self.ll.conj().T, self.ur.conj().T, self.lr.conj().T
        )

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        shape = self.ul.shape
        columns = tuple(zip(*other._rows))
        return BlockOperator._adopt(
            *(_sum_of_products(row, column, shape) for row in self._rows for column in columns)
        )

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator._adopt(
            self.ul + other.ul, self.ur + other.ur, self.ll + other.ll, self.lr + other.lr
        )

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator._adopt(
            self.ul - other.ul, self.ur - other.ur, self.ll - other.ll, self.lr - other.lr
        )


def _sum_of_products(row, column, shape) -> np.ndarray:
    """row[0] @ column[0] + row[1] @ column[1], skipping terms with a None (zero) factor."""
    terms = [x @ y for x, y in zip(row, column) if x is not None and y is not None]
    return sum(terms[1:], terms[0]) if terms else np.zeros(shape, dtype=np.complex128)


@dataclass(frozen=True)
class SuperQubitParams:
    """Bloch angles of the zero/one super-particle superposition plus the label zeta.

    theta outside [0, pi] is rejected; phi is reduced mod 2*pi and canonically
    zero at the poles, where it is unobservable.
    """

    theta: float
    phi: float
    zeta: ExtendedComplex

    def __post_init__(self):
        point = BlochPoint(self.theta, self.phi)
        object.__setattr__(self, "theta", point.theta)
        object.__setattr__(self, "phi", point.phi)


@dataclass(frozen=True)
class CoherentParams:
    """Displacement amplitude on top of a super-qubit reference state."""

    alpha: complex
    base: SuperQubitParams

    def __post_init__(self):
        alpha = complex(self.alpha)
        if not cmath.isfinite(alpha):
            raise ValueError("alpha must be finite")
        object.__setattr__(self, "alpha", alpha)


def _minus_inverse(zeta: ExtendedComplex) -> complex:
    """The operator entry -1/zeta, evaluated as -v/u; zero at the pole."""
    if zeta.u == 0:
        raise SingularParameterError(
            "zeta = 0 makes the -1/zeta operator entry diverge; "
            "state-level constructions remain valid there"
        )
    return -(zeta.v / zeta.u)


def super_number_operator(dim: int) -> BlockOperator:
    """Total super-particle count: block-diagonal (N, N + 1)."""
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    n = number_operator(dim)
    zeros = np.zeros_like(n)
    return BlockOperator._adopt(n, zeros, zeros, n + np.eye(dim, dtype=np.complex128))


def super_annihilation(zeta: ExtendedComplex, dim: int) -> BlockOperator:
    """Super-annihilation operator [[a, -(1/zeta) I], [0, a]].

    At zeta = infinity the off-diagonal entry vanishes and the operator is
    block-diagonal (a, a), the plain bosonic annihilator on both blocks.
    zeta = 0 is rejected: the entry -1/zeta is unbounded there.
    """
    a = boson_annihilator(dim)
    coeff = _minus_inverse(zeta)
    zeros = np.zeros_like(a)
    return BlockOperator._adopt(a, coeff * np.eye(dim, dtype=np.complex128), zeros, a)


def super_annihilation_transposed(zeta: ExtendedComplex, dim: int) -> BlockOperator:
    """Block transpose [[a, 0], [-(1/zeta) I, a]], annihilating flipped states."""
    a = boson_annihilator(dim)
    coeff = _minus_inverse(zeta)
    zeros = np.zeros_like(a)
    return BlockOperator._adopt(a, zeros, coeff * np.eye(dim, dtype=np.complex128), a)


def super_creation_gate(zeta: ExtendedComplex, dim: int) -> BlockOperator:
    """Gate raising |0, zeta> to |1, zeta>: [[a^dag, 0], [zeta, a^dag]] / sqrt(1+|zeta|^2).

    Written homogeneously as [[v a^dag, 0], [u I, v a^dag]], valid at both poles.
    """
    ad = boson_creator(dim)
    zeros = np.zeros_like(ad)
    return BlockOperator._adopt(
        zeta.v * ad, zeros, zeta.u * np.eye(dim, dtype=np.complex128), zeta.v * ad
    )


def n_superparticle_state(n: int, zeta: ExtendedComplex, dim: int) -> SuperVector:
    """Normalized eigenstate of the super-particle count with eigenvalue n.

    For n >= 1 the blocks are (|n>, zeta |n-1>) / sqrt(1 + |zeta|^2); the
    n = 0 state is (|0>, 0) regardless of zeta.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return SuperVector(basis_ket(0, dim), zero_vector(dim))
    if n >= dim:
        raise TruncationError(
            f"|{n}, zeta> does not fit in {dim} levels", required_dim=n + 1
        )
    coeffs0 = np.zeros(dim, dtype=np.complex128)
    coeffs1 = np.zeros(dim, dtype=np.complex128)
    coeffs0[n] = zeta.v
    coeffs1[n - 1] = zeta.u
    return SuperVector._adopt(coeffs0, coeffs1)


def super_qubit_state(params: SuperQubitParams, dim: int) -> SuperVector:
    """Superposition cos(theta/2) |0, zeta> + sin(theta/2) e^{i phi} |1, zeta>."""
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    amp0 = math.cos(0.5 * params.theta)
    amp1 = cmath.rect(math.sin(0.5 * params.theta), params.phi)
    coeffs0 = np.zeros(dim, dtype=np.complex128)
    coeffs1 = np.zeros(dim, dtype=np.complex128)
    coeffs0[0] = amp0
    coeffs0[1] = amp1 * params.zeta.v
    coeffs1[0] = amp1 * params.zeta.u
    return SuperVector._adopt(coeffs0, coeffs1)


def _displace_low_levels(alpha: complex, state: SuperVector) -> SuperVector:
    """D(alpha) on both blocks of a state supported on boson levels 0 and 1.

    Each block r0 |0> + r1 |1> becomes r0 D|0> + r1 D|1>, built from the
    memoised closed-form columns.
    """
    d0, d1 = displaced_columns(alpha, state.dim)

    def block(psi: FockVector) -> np.ndarray:
        return psi.coeffs[0] * d0 + psi.coeffs[1] * d1

    return SuperVector._adopt(block(state.psi0), block(state.psi1))


def super_coherent_state(params: CoherentParams, dim: int) -> SuperVector:
    """Displaced super-qubit state, an eigenstate of the super-annihilation operator.

    The displacement acts as the boson displacement on both fermion blocks.
    alpha = 0 returns the reference super-qubit state exactly, at any dim >= 2:
    nothing is displaced, so the displacement guard does not apply.
    """
    reference = super_qubit_state(params.base, dim)
    if params.alpha == 0:
        return reference
    return _displace_low_levels(params.alpha, reference)


def flip_operator(dim: int) -> BlockOperator:
    """Fermion-flip gate sigma_1 (x) I, swapping the two blocks; an involution."""
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    eye = np.eye(dim, dtype=np.complex128)
    zeros = np.zeros_like(eye)
    return BlockOperator._adopt(zeros, eye, eye, zeros)


def flip_state(state: SuperVector) -> SuperVector:
    """The flipped state: blocks exchanged, no arithmetic involved."""
    return SuperVector(state.psi1, state.psi0)


def flipped_super_coherent_state(params: CoherentParams, dim: int) -> SuperVector:
    """Flip of the super-coherent state.

    The displacement is block-diagonal and therefore commutes with the block
    swap, so displacing the flipped reference gives the same vector; it is an
    eigenstate of the transposed super-annihilation operator with eigenvalue
    alpha.
    """
    return flip_state(super_coherent_state(params, dim))


def pole_probabilities(
    state: SuperVector, zeta: ExtendedComplex, alpha: complex = 0.0
) -> tuple[float, float]:
    """Collapse probabilities onto the (displaced) zero/one super-particle states.

    Computed as explicit squared overlaps rather than from the Bloch angles,
    so they double as a verification of the angle parametrization.
    """
    dim = state.dim
    pole0 = n_superparticle_state(0, zeta, dim)
    pole1 = n_superparticle_state(1, zeta, dim)
    if alpha != 0:
        pole0 = _displace_low_levels(alpha, pole0)
        pole1 = _displace_low_levels(alpha, pole1)
    return abs(pole0.inner(state)) ** 2, abs(pole1.inner(state)) ** 2


def _guarded_count(dim: int, guard: int) -> int:
    """Number of boson levels below the guard band, dim - guard."""
    if not 0 <= guard < dim:
        raise InvalidDimensionError(f"guard must satisfy 0 <= guard < dim, got {guard}")
    return dim - guard


def guarded_levels(dim: int, guard: int = GUARD_BAND) -> np.ndarray:
    """Stacked indices of both fermion blocks with boson level < dim - guard."""
    keep = np.arange(_guarded_count(dim, guard))
    return np.concatenate([keep, keep + dim])


def guarded_max_abs(full_matrix: np.ndarray, dim: int, guard: int = GUARD_BAND) -> float:
    """Max-norm of a 2*dim x 2*dim matrix restricted to the guarded sub-block."""
    keep = guarded_levels(dim, guard)
    return float(np.abs(full_matrix[np.ix_(keep, keep)]).max())


def guarded_norm(state: SuperVector, guard: int = GUARD_BAND) -> float:
    """Euclidean norm of a SuperVector restricted to the guarded levels."""
    keep = _guarded_count(state.dim, guard)
    guarded = np.concatenate([state.psi0.coeffs[:keep], state.psi1.coeffs[:keep]])
    return float(np.linalg.norm(guarded))


@dataclass(frozen=True)
class CommutatorResiduals:
    """Guarded max-norm residuals of the super-oscillator algebra.

    number_lowering:  [N_super, A] + A
    number_raising:   [N_super, A^dag] - A^dag
    ladder:           [A, A^dag] - I - (1/|zeta|^2) sigma_3 (x) I
    """

    number_lowering: float
    number_raising: float
    ladder: float

    def max(self) -> float:
        return max(self.number_lowering, self.number_raising, self.ladder)


def commutator_suite(
    zeta: ExtendedComplex, dim: int, guard: int = GUARD_BAND
) -> CommutatorResiduals:
    """Residuals of the three defining commutation relations for a given zeta."""
    a_op = super_annihilation(zeta, dim)
    a_dag = a_op.dagger()
    n_op = super_number_operator(dim)
    inv_mod_sq = (abs(zeta.v) / abs(zeta.u)) ** 2  # 1/|zeta|^2, zero at the pole
    eye = np.eye(dim, dtype=np.complex128)
    zeros = np.zeros_like(eye)
    ladder_target = BlockOperator._adopt(
        (1.0 + inv_mod_sq) * eye, zeros, zeros, (1.0 - inv_mod_sq) * eye
    )
    lowering = (n_op @ a_op - a_op @ n_op + a_op).full()
    raising = (n_op @ a_dag - a_dag @ n_op - a_dag).full()
    ladder = (a_op @ a_dag - a_dag @ a_op - ladder_target).full()
    return CommutatorResiduals(
        guarded_max_abs(lowering, dim, guard),
        guarded_max_abs(raising, dim, guard),
        guarded_max_abs(ladder, dim, guard),
    )
