"""Composite fermion (x) boson space: block operators and the named states.

A composite vector splits by fermion occupation into two Fock-space blocks
(psi0, psi1).  An operator is a 2x2 array of boson blocks with the fermion
index as the outer block index, so its full matrix is 2*dim x 2*dim.  Every
block the package builds is banded (a, a^dag, N, I, X, P all have bandwidth
<= 1), so ``BlockOperator`` stores each block as its nonzero diagonals and
multiplies, applies, adds and adjoins in O(dim); only ``full()`` and the
dense block accessors form dim x dim arrays.

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
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import InvalidDimensionError, SingularParameterError, TruncationError
from .fock import (
    GUARD_BAND,
    FockVector,
    _ladder_entries,
    basis_ket,
    displaced_columns,
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


# A banded boson matrix: {offset k: the diagonal M[i, i + k]} over the rows
# i = max(0, -k) .. dim - 1 - max(0, k), so the diagonal holds dim - |k|
# entries.  The empty mapping is the zero matrix.
Band = dict[int, np.ndarray]

_BLOCK_NAMES = ("ul", "ur", "ll", "lr")


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """2x2 fermion blocks of banded boson matrices; the fermion index is the block index.

    ``bands`` holds the blocks (ul, ur, ll, lr) as ``{offset: diagonal}``
    mappings of their nonzero diagonals, a zero block as the empty mapping.
    ``@``, ``apply``, ``+``, ``-`` and ``dagger`` work on the diagonals alone,
    in O(offsets^2 * dim), and never form a dim x dim array.

    The constructor takes the four blocks as dense square matrices of one
    shape and keeps their nonzero diagonals.  ``op.ul`` (and ``ur``, ``ll``,
    ``lr``) reads a block back as a dense read-only matrix and ``full()`` the
    whole 2*dim x 2*dim matrix; both are built on each call.
    """

    ul: InitVar[np.ndarray]
    ur: InitVar[np.ndarray]
    ll: InitVar[np.ndarray]
    lr: InitVar[np.ndarray]
    dim: int = field(init=False)
    bands: tuple[Band, Band, Band, Band] = field(init=False)

    def __post_init__(self, ul, ur, ll, lr):
        blocks = [_square(block, name) for name, block in zip(_BLOCK_NAMES, (ul, ur, ll, lr))]
        if any(block.shape != blocks[0].shape for block in blocks):
            raise InvalidDimensionError("all four blocks must share one shape")
        object.__setattr__(self, "dim", blocks[0].shape[0])
        object.__setattr__(self, "bands", tuple(_freeze(_band_of(block)) for block in blocks))

    @classmethod
    def _adopt(cls, dim: int, ul: Band, ur: Band, ll: Band, lr: Band) -> "BlockOperator":
        """Wrap four bands of fresh (or read-only) diagonals without copying them."""
        op = object.__new__(cls)
        object.__setattr__(op, "dim", dim)
        object.__setattr__(op, "bands", tuple(_freeze(band) for band in (ul, ur, ll, lr)))
        return op

    @classmethod
    def boson_diagonal(cls, mat: np.ndarray) -> "BlockOperator":
        """The same boson matrix on both fermion blocks (identity on the fermion)."""
        mat = _square(mat, "ul")
        band = _band_of(mat)
        return cls._adopt(mat.shape[0], band, {}, {}, band)

    @classmethod
    def fermion_diagonal(cls, upper: complex, lower: complex, dim: int) -> "BlockOperator":
        """diag(upper, lower) (x) I: each fermion block a multiple of the boson identity."""
        return cls._adopt(dim, _scalar_band(upper, dim), {}, {}, _scalar_band(lower, dim))

    def __getattr__(self, name: str) -> np.ndarray:
        # the dense block accessors ul, ur, ll, lr
        if name not in _BLOCK_NAMES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        block = np.zeros((self.dim, self.dim), dtype=np.complex128)
        _fill(block, self.bands[_BLOCK_NAMES.index(name)])
        block.setflags(write=False)
        return block

    def full(self) -> np.ndarray:
        """Dense 2*dim x 2*dim matrix."""
        dim = self.dim
        out = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
        for (row, col), band in zip(((0, 0), (0, dim), (dim, 0), (dim, dim)), self.bands):
            _fill(out[row : row + dim, col : col + dim], band)
        return out

    def apply(self, state: SuperVector) -> SuperVector:
        ul, ur, ll, lr = self.bands
        psi = (state.psi0.coeffs, state.psi1.coeffs)
        return SuperVector._adopt(
            _band_apply(zip((ul, ur), psi), self.dim), _band_apply(zip((ll, lr), psi), self.dim)
        )

    def dagger(self) -> "BlockOperator":
        ul, ur, ll, lr = (
            {-offset: diagonal.conj() for offset, diagonal in band.items()} for band in self.bands
        )
        return BlockOperator._adopt(self.dim, ul, ll, ur, lr)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        a, b, c, d = self.bands
        e, f, g, h = other.bands
        dim = self.dim
        return BlockOperator._adopt(
            dim,
            _band_matmul(((a, e), (b, g)), dim),
            _band_matmul(((a, f), (b, h)), dim),
            _band_matmul(((c, e), (d, g)), dim),
            _band_matmul(((c, f), (d, h)), dim),
        )

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        return self._entrywise(other, np.add)

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return self._entrywise(other, np.subtract)

    def _entrywise(self, other: "BlockOperator", ufunc) -> "BlockOperator":
        """ufunc(self, other) entry by entry; a diagonal self lacks reads as 0.0."""
        bands = []
        for x, y in zip(self.bands, other.bands):
            band = dict(x)
            for offset, diagonal in y.items():
                band[offset] = ufunc(x.get(offset, 0.0), diagonal)
            bands.append(band)
        return BlockOperator._adopt(self.dim, *bands)

    def max_abs(self, guard: int = 0) -> float:
        """Max-norm over the boson levels below dim - guard of every block.

        Entries off the diagonals are exactly zero, so this equals the max
        over the dense guarded sub-block; a zero operator gives 0.0.
        """
        keep = _guarded_count(self.dim, guard)
        maxima = [0.0]
        for band in self.bands:
            for offset, diagonal in band.items():
                # rows i < keep whose column i + offset is < keep too
                count = min(keep, keep - offset) - max(0, -offset)
                if count > 0:
                    maxima.append(np.abs(diagonal[:count]).max())
        return float(np.max(maxima))


def _square(block, name: str) -> np.ndarray:
    block = np.asarray(block, dtype=np.complex128)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise InvalidDimensionError(f"block {name} must be a square matrix")
    return block


def _band_of(mat: np.ndarray) -> Band:
    """The nonzero diagonals of a square matrix, each a copy, in ascending offset."""
    rows, cols = np.nonzero(mat)
    return {int(k): np.diagonal(mat, k).copy() for k in np.unique(cols - rows)}


def _freeze(band: Band) -> Band:
    for diagonal in band.values():
        diagonal.setflags(write=False)
    return band


def _scalar_band(scalar: complex, dim: int) -> Band:
    """scalar times the boson identity; the zero matrix when scalar is 0."""
    return {0: np.full(dim, scalar, dtype=np.complex128)} if scalar != 0 else {}


def _fill(block: np.ndarray, band: Band) -> None:
    """Write the diagonals of a band into a zeroed square matrix (or a view of one)."""
    for offset, diagonal in band.items():
        np.fill_diagonal(block[max(0, -offset) :, max(0, offset) :], diagonal)


def _band_apply(terms, dim: int) -> np.ndarray:
    """Sum of band @ psi over the (band, psi) terms, in term and offset order."""
    out = np.zeros(dim, dtype=np.complex128)
    for band, psi in terms:
        for offset, diagonal in band.items():
            lo, hi = max(0, -offset), dim - max(0, offset)
            out[lo:hi] += diagonal * psi[lo + offset : hi + offset]
    return out


def _band_matmul(pairs, dim: int) -> Band:
    """Sum of x @ y over the (x, y) pairs of bands, in pair order, then the bands' offset order.

    Diagonal p of x times diagonal q of y lands on diagonal s = p + q, at the
    rows i where both factors X[i, i + p] and Y[i + p, i + s] lie inside the
    matrix.
    """
    out: Band = {}
    for x, y in pairs:
        for p, xd in x.items():
            x0 = max(0, -p)
            for q, yd in y.items():
                s = p + q
                lo, hi = max(0, -p, -s), min(dim, dim - p, dim - s)
                if lo >= hi:
                    continue
                if s not in out:
                    out[s] = np.zeros(dim - abs(s), dtype=np.complex128)
                y0, s0 = max(0, -q) - p, max(0, -s)
                out[s][lo - s0 : hi - s0] += xd[lo - x0 : hi - x0] * yd[lo - y0 : hi - y0]
    return out


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
    n = np.arange(dim, dtype=np.complex128)
    return BlockOperator._adopt(dim, {0: n}, {}, {}, {0: n + 1.0})


def super_annihilation(zeta: ExtendedComplex, dim: int) -> BlockOperator:
    """Super-annihilation operator [[a, -(1/zeta) I], [0, a]].

    At zeta = infinity the off-diagonal entry vanishes and the operator is
    block-diagonal (a, a), the plain bosonic annihilator on both blocks.
    zeta = 0 is rejected: the entry -1/zeta is unbounded there.
    """
    a = {1: _ladder_entries(dim)}
    return BlockOperator._adopt(dim, a, _scalar_band(_minus_inverse(zeta), dim), {}, a)


def super_annihilation_transposed(zeta: ExtendedComplex, dim: int) -> BlockOperator:
    """Block transpose [[a, 0], [-(1/zeta) I, a]], annihilating flipped states."""
    a = {1: _ladder_entries(dim)}
    return BlockOperator._adopt(dim, a, {}, _scalar_band(_minus_inverse(zeta), dim), a)


def super_creation_gate(zeta: ExtendedComplex, dim: int) -> BlockOperator:
    """Gate raising |0, zeta> to |1, zeta>: [[a^dag, 0], [zeta, a^dag]] / sqrt(1+|zeta|^2).

    Written homogeneously as [[v a^dag, 0], [u I, v a^dag]], valid at both poles.
    """
    v_ad = {-1: zeta.v * _ladder_entries(dim)} if zeta.v != 0 else {}
    return BlockOperator._adopt(dim, v_ad, {}, _scalar_band(zeta.u, dim), v_ad)


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
    ones = _scalar_band(1.0, dim)
    return BlockOperator._adopt(dim, {}, ones, ones, {})


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
    """Max-norm of a 2*dim x 2*dim matrix restricted to the guarded sub-block.

    The guarded sub-block is the four [:keep, :keep] corners of the fermion
    blocks, keep = dim - guard: the entries ``guarded_levels`` indexes.
    """
    keep = _guarded_count(dim, guard)
    corners = [
        np.abs(full_matrix[row : row + keep, col : col + keep]).max()
        for row in (0, dim)
        for col in (0, dim)
    ]
    return float(np.max(corners))


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
    ladder_target = BlockOperator.fermion_diagonal(1.0 + inv_mod_sq, 1.0 - inv_mod_sq, dim)
    lowering = n_op @ a_op - a_op @ n_op + a_op
    raising = n_op @ a_dag - a_dag @ n_op - a_dag
    ladder = a_op @ a_dag - a_dag @ a_op - ladder_target
    return CommutatorResiduals(
        lowering.max_abs(guard), raising.max_abs(guard), ladder.max_abs(guard)
    )
