"""Composite fermion (x) boson space: block operators and the named states.

A composite vector splits by fermion occupation into two Fock-space blocks
(psi0, psi1), the rows of one (2, dim) array.  An operator is a 2x2 array of
boson blocks with the fermion index as the outer block index, so its full
matrix is 2*dim x 2*dim.  Every block the package builds is banded (a,
a^dag, N, I, X, P all have bandwidth <= 1), so ``BlockOperator`` stores each
block as its nonzero diagonals and multiplies, applies, adds, adjoins and
compares in O(dim); only the dense block accessors form dim x dim arrays.
An operator stack (``BlockOperator.stack``, built by ``_stacked``) holds
the operators of several zeta as rows of its diagonals and takes them
through one pass of that arithmetic, each row as it would go alone.

The one-super-particle label zeta enters every construction through its
homogeneous coordinates (u, v): the pair of blocks of |n, zeta> is
(v |n>, u |n-1>), the coefficient -1/zeta of the super-annihilation operator
is -v/u, and both poles of the sphere come out of the same expressions.

Each value type has one construction path, its dataclass constructor, which
validates the arrays it is given and keeps read-only copies of them; the
builders here fill fresh arrays and pass them to it once.

Every super-qubit and super-coherent state, and each pole, is its boson levels
0 and 1 (``_low_levels``, ``_pole_levels``, ``_super_qubit_grid``) finished
by ``_undisplaced`` or ``_displace_low_levels``, on one state or a stack.  A
single state has one route: ``super_coherent_state``, which is
``super_qubit_state`` at alpha = 0, and ``pole_probabilities`` for its poles,
displaced by the same alpha.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import InvalidDimensionError, SingularParameterError, TruncationError
from .fock import (
    GUARD_BAND,
    _ladder_entries,
    displaced_columns,
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
    "pole_probabilities",
    "commutator_suite",
]


@dataclass(frozen=True, eq=False)
class SuperVector:
    """A composite state: its fermion-0 and fermion-1 Fock blocks as one array.

    ``coeffs`` is a read-only (2, dim) complex128 array whose rows are the
    blocks psi0 and psi1.  The constructor copies the array it is given and
    refuses any shape other than (2, dim >= 1).  Like every array-valued type
    of the package it compares and hashes by identity.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        try:
            # C order keeps psi0 before psi1 in memory for ravelled reductions
            coeffs = np.array(self.coeffs, dtype=np.complex128, order="C")
        except ValueError as exc:
            raise InvalidDimensionError(
                f"coefficients must form a (2, dim >= 1) array: {exc}"
            ) from exc
        if coeffs.ndim != 2 or coeffs.shape[0] != 2 or coeffs.shape[1] == 0:
            raise InvalidDimensionError(
                f"coefficients must form a (2, dim >= 1) array, got shape {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def norm_sq(self) -> float:
        """<psi0|psi0> + <psi1|psi1>, from ``_block_norms_sq``."""
        g00, g11 = _block_norms_sq(self.coeffs).tolist()
        return g00 + g11

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def __sub__(self, other: "SuperVector") -> "SuperVector":
        return SuperVector(self.coeffs - other.coeffs)

    def __rmul__(self, scalar: complex) -> "SuperVector":
        return SuperVector(scalar * self.coeffs)


# A banded boson matrix: {offset k: the diagonal M[i, i + k]} over the rows
# i = max(0, -k) .. dim - 1 - max(0, k), so the diagonal holds dim - |k|
# entries.  The empty mapping is the zero matrix.
Band = Mapping[int, np.ndarray]

_BLOCK_NAMES = ("ul", "ur", "ll", "lr")


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """2x2 fermion blocks of banded boson matrices; the fermion index is the block index.

    ``bands`` holds the blocks (ul, ur, ll, lr) as ``{offset: diagonal}``
    mappings of their nonzero diagonals, a zero block as the empty mapping.
    The constructor checks that each diagonal holds dim - |offset| entries
    on its last axis and keeps read-only copies of them in read-only
    mappings.  ``@``, ``apply`` (``apply_coeffs`` on a stack of states),
    ``+``, ``-`` and ``dagger`` work on the diagonals alone, in
    O(offsets^2 * dim), and never form a dim x dim array.

    ``stack`` makes the operator a stack of operators, () for one operator:
    a diagonal may then carry that leading shape, (*stack, dim - |offset|),
    row r belonging to operator r, or stay 1-d and be shared by every row.
    The operations act row by row with the per-entry arithmetic of one
    operator, so each row equals that operator's result entry for entry, a
    diagonal that the operator lacks reading as 0; ``max_abs`` returns one
    max per row.

    ``op.ul`` (and ``ur``, ``ll``, ``lr``) reads a block back as a dense
    read-only (..., dim, dim) matrix stack, built on each call.
    """

    dim: int
    bands: tuple[Band, Band, Band, Band]
    stack: tuple[int, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidDimensionError(f"dim must be >= 1, got {self.dim}")
        if len(self.bands) != 4:
            raise InvalidDimensionError(f"an operator has 4 blocks, got {len(self.bands)}")
        bands = tuple(_checked_band(band, self.dim, self.stack) for band in self.bands)
        object.__setattr__(self, "bands", bands)

    @classmethod
    def fermion_diagonal(cls, upper: complex, lower: complex, dim: int) -> "BlockOperator":
        """diag(upper, lower) (x) I: each fermion block a multiple of the boson identity."""
        return cls(dim, (_scalar_band(upper, dim), {}, {}, _scalar_band(lower, dim)))

    def __getattr__(self, name: str) -> np.ndarray:
        # the dense block accessors ul, ur, ll, lr; no superq module reads them, and they
        # stay only for the benchmark's matmul probe until it reads op.dim (ROADMAP item 13)
        if name not in _BLOCK_NAMES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        block = np.zeros((*self.stack, self.dim, self.dim), dtype=np.complex128)
        _fill(block, self.bands[_BLOCK_NAMES.index(name)])
        block.setflags(write=False)
        return block

    def apply(self, state: SuperVector) -> SuperVector:
        return SuperVector(self.apply_coeffs(state.coeffs))

    def apply_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """The operator applied to each state of a (..., 2, dim) coefficient stack.

        Every state gets the arithmetic ``apply`` gives it alone, so each
        result equals ``apply(SuperVector(state)).coeffs`` bit for bit.  The
        rows of an operator stack broadcast against the states' leading axes.
        """
        shape = np.shape(coeffs)
        if shape[-2:] != (2, self.dim):
            raise InvalidDimensionError(
                f"a dim-{self.dim} operator applies to (..., 2, {self.dim}) coefficients, "
                f"got shape {shape}"
            )
        if self.stack:
            shape = np.broadcast_shapes((*self.stack, 2, self.dim), shape)
        ul, ur, ll, lr = self.bands
        blocks = (coeffs[..., 0, :], coeffs[..., 1, :])
        out = np.zeros(shape, dtype=np.complex128)
        _band_apply(out[..., 0, :], zip((ul, ur), blocks))
        _band_apply(out[..., 1, :], zip((ll, lr), blocks))
        return out

    def dagger(self) -> "BlockOperator":
        ul, ur, ll, lr = (
            {-offset: diagonal.conj() for offset, diagonal in band.items()} for band in self.bands
        )
        return BlockOperator(self.dim, (ul, ll, ur, lr), self.stack)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        a, b, c, d = self.bands
        e, f, g, h = other.bands
        dim, stack = self.dim, self._joint_stack(other)
        return BlockOperator(
            dim,
            (
                _band_matmul(((a, e), (b, g)), dim, stack),
                _band_matmul(((a, f), (b, h)), dim, stack),
                _band_matmul(((c, e), (d, g)), dim, stack),
                _band_matmul(((c, f), (d, h)), dim, stack),
            ),
            stack,
        )

    def _joint_stack(self, other: "BlockOperator") -> tuple[int, ...]:
        """The stack of a product or sum: the operands' stack, where a single operator joins any."""
        if self.stack and other.stack and self.stack != other.stack:
            raise InvalidDimensionError(f"operator stacks {self.stack} and {other.stack} differ")
        return self.stack or other.stack

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
        return BlockOperator(self.dim, tuple(bands), self._joint_stack(other))

    def max_abs(self, guard: int = 0) -> float | np.ndarray:
        """Max-norm over the boson levels below dim - guard of every block.

        Entries off the diagonals are exactly zero, so this equals the max
        over the dense guarded sub-block; a zero operator gives 0.0.  An
        operator stack gives an array of one max per row; a NaN entry makes
        its row's max NaN.
        """
        if not 0 <= guard < self.dim:
            raise InvalidDimensionError(f"guard must satisfy 0 <= guard < dim, got {guard}")
        keep = self.dim - guard
        maxima = np.zeros(self.stack)
        for band in self.bands:
            for offset, diagonal in band.items():
                # rows i < keep whose column i + offset is < keep too
                count = min(keep, keep - offset) - max(0, -offset)
                if count > 0:
                    maxima = np.maximum(maxima, np.abs(diagonal[..., :count]).max(axis=-1))
        return maxima if self.stack else float(maxima)


def _checked_band(band: Band, dim: int, stack: tuple[int, ...]) -> Band:
    """Read-only complex128 copies of a band's diagonals, in a read-only mapping in its offset order.

    Diagonal k must have shape (dim - |k|,) or (*stack, dim - |k|), dim - |k| > 0.
    """
    checked = {}
    for offset, diagonal in band.items():
        diagonal = np.array(diagonal, dtype=np.complex128)
        size = dim - abs(offset)
        if not size > 0 or diagonal.shape not in ((size,), (*stack, size)):
            shapes = " or ".join(map(str, dict.fromkeys([(size,), (*stack, size)])))
            raise InvalidDimensionError(
                f"diagonal {offset} of a dim-{dim} block needs shape {shapes}, got {diagonal.shape}"
            )
        diagonal.setflags(write=False)
        checked[offset] = diagonal
    return MappingProxyType(checked)


def _scalar_band(scalar: complex, dim: int) -> Band:
    """scalar times the boson identity; the zero matrix when scalar is 0."""
    return {0: np.full(dim, scalar, dtype=np.complex128)} if scalar != 0 else {}


def _fill(block: np.ndarray, band: Band) -> None:
    """Write the diagonals of a band into a zeroed (..., dim, dim) stack of square matrices."""
    dim = block.shape[-1]
    for offset, diagonal in band.items():
        rows = np.arange(max(0, -offset), dim - max(0, offset))
        block[..., rows, rows + offset] = diagonal


def _stacked(ops: Sequence[BlockOperator]) -> BlockOperator:
    """Single operators of one dim as one operator stack, row k operator k.

    A diagonal that an operator lacks is a row of zeros, which the stack's
    arithmetic reads as the 0 that the operator's own arithmetic skips; each
    band keeps its offsets in the order in which they first appear.
    """
    dim = ops[0].dim
    if any(op.dim != dim or op.stack for op in ops):
        raise InvalidDimensionError("a stack holds single operators of one dim")
    bands = []
    for block in zip(*(op.bands for op in ops)):
        band = {}
        for offset in dict.fromkeys(offset for rows in block for offset in rows):
            zero = np.zeros(dim - abs(offset), dtype=np.complex128)
            band[offset] = [rows.get(offset, zero) for rows in block]
        bands.append(band)
    return BlockOperator(dim, tuple(bands), (len(ops),))


def _band_apply(out: np.ndarray, terms) -> None:
    """Add band @ psi into a zeroed out over the (band, psi) terms, in term and offset order.

    psi and out may carry the same leading stack axes; the band acts on the last.
    """
    dim = out.shape[-1]
    for band, psi in terms:
        for offset, diagonal in band.items():
            lo, hi = max(0, -offset), dim - max(0, offset)
            out[..., lo:hi] += diagonal * psi[..., lo + offset : hi + offset]


def _band_matmul(pairs, dim: int, stack: tuple[int, ...]) -> Band:
    """Sum of x @ y over the (x, y) pairs of bands, in pair order, then the bands' offset order.

    Diagonal p of x times diagonal q of y lands on diagonal s = p + q, at the
    rows i where both factors X[i, i + p] and Y[i + p, i + s] lie inside the
    matrix.  Each output diagonal carries the operands' stack shape.
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
                    out[s] = np.zeros((*stack, dim - abs(s)), dtype=np.complex128)
                y0, s0 = max(0, -q) - p, max(0, -s)
                out[s][..., lo - s0 : hi - s0] += xd[..., lo - x0 : hi - x0] * yd[..., lo - y0 : hi - y0]
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
    return BlockOperator(dim, ({0: n}, {}, {}, {0: n + 1.0}))


def super_annihilation(zeta: ExtendedComplex, dim: int) -> BlockOperator:
    """Super-annihilation operator [[a, -(1/zeta) I], [0, a]].

    At zeta = infinity the off-diagonal entry vanishes and the operator is
    block-diagonal (a, a), the plain bosonic annihilator on both blocks.
    zeta = 0 is rejected: the entry -1/zeta is unbounded there.
    """
    a = {1: _ladder_entries(dim)}
    return BlockOperator(dim, (a, _scalar_band(_minus_inverse(zeta), dim), {}, a))


def super_annihilation_transposed(zeta: ExtendedComplex, dim: int) -> BlockOperator:
    """Block transpose [[a, 0], [-(1/zeta) I, a]], annihilating flipped states."""
    a = {1: _ladder_entries(dim)}
    return BlockOperator(dim, (a, {}, _scalar_band(_minus_inverse(zeta), dim), a))


def super_creation_gate(zeta: ExtendedComplex, dim: int) -> BlockOperator:
    """Gate raising |0, zeta> to |1, zeta>: [[a^dag, 0], [zeta, a^dag]] / sqrt(1+|zeta|^2).

    Written homogeneously as [[v a^dag, 0], [u I, v a^dag]], valid at both poles.
    """
    v_ad = {-1: zeta.v * _ladder_entries(dim)} if zeta.v != 0 else {}
    return BlockOperator(dim, (v_ad, {}, _scalar_band(zeta.u, dim), v_ad))


def n_superparticle_state(n: int, zeta: ExtendedComplex, dim: int) -> SuperVector:
    """Normalized eigenstate of the super-particle count with eigenvalue n.

    For n >= 1 the blocks are (|n>, zeta |n-1>) / sqrt(1 + |zeta|^2); the
    n = 0 state is (|0>, 0) regardless of zeta.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n >= dim:
        raise TruncationError(f"|{n}, zeta> needs dim >= {n + 1}, got {dim}", required_dim=n + 1)
    coeffs = np.zeros((2, dim), dtype=np.complex128)
    if n == 0:
        coeffs[0, 0] = 1.0
    else:
        coeffs[0, n] = zeta.v
        coeffs[1, n - 1] = zeta.u
    return SuperVector(coeffs)


def super_qubit_state(params: SuperQubitParams, dim: int) -> SuperVector:
    """Superposition cos(theta/2) |0, zeta> + sin(theta/2) e^{i phi} |1, zeta>."""
    return SuperVector(_undisplaced(_low_levels(params), dim))


def _low_levels(params: SuperQubitParams) -> np.ndarray:
    """Levels 0 and 1 of super_qubit_state, all its nonzero entries, as a (2, 2) array [block, level]."""
    amp0, amp1 = math.cos(0.5 * params.theta), cmath.rect(math.sin(0.5 * params.theta), params.phi)
    return np.array([[amp0, amp1 * params.zeta.v], [amp1 * params.zeta.u, 0.0]], dtype=np.complex128)


def _pole_levels(zeta: ExtendedComplex) -> np.ndarray:
    """Levels 0 and 1 of the poles |0, zeta> and |1, zeta>, as a (2, 2, 2) array [pole, block, level]."""
    return np.array([[[1, 0], [0, 0]], [[0, zeta.v], [zeta.u, 0]]], dtype=np.complex128)


def _super_qubit_grid(
    thetas: list[float], cos_phi: np.ndarray, sin_phi: np.ndarray, zetas: list[ExtendedComplex]
) -> np.ndarray:
    """``_low_levels`` at each (zeta_k, theta_i, phi_j), as row (k*T + i)*P + j of a (Z*T*P, 2, 2) array.

    ``cos_phi`` and ``sin_phi`` are ``moebius._grid_phases(thetas, phis)``,
    which runs the angle checks and gives the canonical azimuths, computed
    once per angle grid.  Each row equals its point's ``_low_levels`` bit for
    bit: cmath.rect and Python's complex multiply are written out as the
    real products they round.
    """
    radius = np.array([math.sin(0.5 * theta) for theta in thetas])[:, None]
    amp1_re, amp1_im = radius * cos_phi, radius * sin_phi
    coeffs = np.zeros((len(zetas), *cos_phi.shape, 2, 2), dtype=np.complex128)
    coeffs[..., 0, 0] = np.array([math.cos(0.5 * theta) for theta in thetas])[:, None]
    for (block, level), w in (((0, 1), [z.v for z in zetas]), ((1, 0), [z.u for z in zetas])):
        w = np.array(w)[:, None, None]
        coeffs.real[..., block, level] = amp1_re * w.real - amp1_im * w.imag
        coeffs.imag[..., block, level] = amp1_re * w.imag + amp1_im * w.real
    return coeffs.reshape(-1, 2, 2)


def _undisplaced(low: np.ndarray, dim: int) -> np.ndarray:
    """The (..., 2, dim) states of a (..., 2, 2) low-level array, zero above level 1.

    The alpha = 0 counterpart of ``_displace_low_levels``.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    try:
        states = np.zeros((*low.shape[:-1], dim), dtype=np.complex128)
    except ValueError as exc:  # a stack numpy cannot describe ("array is too big")
        raise MemoryError(f"Unable to allocate the states: {exc}") from None
    states[..., :2] = low
    return states


def _displace_low_levels(alpha: complex, low: np.ndarray, dim: int) -> np.ndarray:
    """D(alpha) on both blocks of the states a (..., 2, 2) low-level array describes, as (..., 2, dim).

    Each block r0 |0> + r1 |1> becomes r0 D|0> + r1 D|1>, built from the
    memoised closed-form columns elementwise.
    """
    d0, d1 = displaced_columns(alpha, dim)
    return low[..., :1] * d0 + low[..., 1:2] * d1


def super_coherent_state(params: CoherentParams, dim: int) -> SuperVector:
    """Displaced super-qubit state, an eigenstate of the super-annihilation operator.

    The displacement acts as the boson displacement on both fermion blocks.
    alpha = 0 returns ``super_qubit_state`` of the base, at any dim >= 2:
    nothing is displaced, so the displacement guard does not apply.
    """
    if params.alpha == 0:
        return super_qubit_state(params.base, dim)
    return SuperVector(_displace_low_levels(params.alpha, _low_levels(params.base), dim))


def flip_operator(dim: int) -> BlockOperator:
    """Fermion-flip gate sigma_1 (x) I, swapping the two blocks; an involution."""
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    ones = _scalar_band(1.0, dim)
    return BlockOperator(dim, ({}, ones, ones, {}))


def flip_state(state: SuperVector) -> SuperVector:
    """The flipped state: blocks exchanged, no arithmetic involved."""
    return SuperVector(state.coeffs[::-1])


def pole_probabilities(
    state: SuperVector, zeta: ExtendedComplex, alpha: complex = 0.0
) -> tuple[float, float]:
    """Collapse probabilities onto the (displaced) zero/one super-particle states.

    Computed as explicit squared overlaps rather than from the Bloch angles,
    so they double as a verification of the angle parametrization.
    """
    poles = _pole_levels(zeta)
    if alpha != 0:
        poles = _displace_low_levels(alpha, poles, state.coeffs.shape[-1])
    return tuple(_pole_probabilities(state.coeffs[None], poles)[:, 0].tolist())


_PARTS = np.array([1.0, 1j]).reshape(2, 1, 1, 1)


def _pole_probabilities(coeffs: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Collapse probabilities of each state of a (K, 2, dim) stack onto the poles, as a (2, K) array.

    ``poles`` is |0, zeta> and |1, zeta> as a (2, 2, L) array [pole, block,
    level], ``_pole_levels``'s or displaced to L = dim; the first L levels of
    each state are read.  Re and Im of each block's overlap are sums of real
    products, (Re p, Im p) and (-Im p, Re p) against (Re psi, Im psi) at each
    level, added along the level axis in numpy's pairwise order; the overlap
    adds the two blocks, psi0 first.  No BLAS kernel and no SIMD level
    chooses that rounding.

    On the 4-entry axis of the 2-level poles numpy reduces one output at a
    time, so for a stack of more than one state (the sweep's grid and
    verify's pole rows) the four products are added as ((p0 + p1) + p2) + p3
    in three whole-stack adds, numpy's own order on that axis.  One state
    (state --theta) and the displaced poles keep numpy's sum, one call.  Each
    block of a 2-level pole is nonzero at one level, so at most two of its
    four products are nonzero and any order rounds them alike; the routes
    differ only in the sign of a zero, which squaring removes.
    """
    if coeffs.shape[-1] < poles.shape[-1]:
        raise InvalidDimensionError(f"dim must be >= {poles.shape[-1]}, got {coeffs.shape[-1]}")
    # 1 * p is (Re p, Im p) and 1j * p is (-Im p, Re p), exactly but for the
    # sign of a zero; [part, pole, block, 2 * level + (re, im)]
    weights = (_PARTS * poles).view(np.float64)
    # [state, part, pole, block, 2 * level + (re, im)]
    products = weights * coeffs[..., : poles.shape[-1]].view(np.float64)[:, None, None]
    if poles.shape[-1] == 2 and len(coeffs) > 1:
        blocks = products[..., 0] + products[..., 1]
        blocks += products[..., 2]
        blocks += products[..., 3]
    else:
        blocks = products.sum(axis=-1)
    overlaps = blocks[..., 0] + blocks[..., 1]
    squares = overlaps * overlaps
    return (squares[:, 0] + squares[:, 1]).T


def _vecdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.vecdot of two (..., L) stacks of one shape, the package's one BLAS reduction.

    BLAS sums fewer than 8 entries in a tail loop that rounds unlike its blocked
    loop, so a shorter row is padded with zeros to 8 entries, each operand once.
    """
    if x.shape != y.shape:
        raise ValueError(f"a dot needs operands of one shape, got {x.shape} and {y.shape}")
    if x.shape[-1] < 8:
        operands = (x,) if y is x else (x, y)
        padded = np.zeros((len(operands), *x.shape[:-1], 8), dtype=np.complex128)
        padded[..., : x.shape[-1]] = operands
        x, y = padded[0], padded[-1]
    return np.vecdot(x, y)


def _block_norms_sq(coeffs: np.ndarray) -> np.ndarray:
    """<psi0|psi0> and <psi1|psi1> of each state of a (..., 2, dim) stack, one ``_vecdot`` each."""
    return _vecdot(coeffs, coeffs).real


def _norms(coeffs: np.ndarray) -> np.ndarray:
    """SuperVector.norm of each state of a (..., 2, dim) coefficient stack."""
    block = _block_norms_sq(coeffs)
    return np.sqrt(block[..., 0] + block[..., 1])


@dataclass(frozen=True)
class CommutatorResiduals:
    """Guarded max-norm residuals of the super-oscillator algebra, one per zeta, in zeta order.

    number_lowering:  [N_super, A] + A
    number_raising:   [N_super, A^dag] - A^dag
    ladder:           [A, A^dag] - I - (1/|zeta|^2) sigma_3 (x) I
    """

    number_lowering: np.ndarray
    number_raising: np.ndarray
    ladder: np.ndarray


def commutator_suite(zetas: Sequence[ExtendedComplex], dim: int) -> CommutatorResiduals:
    """Residuals of the three defining commutation relations at each zeta.

    One pass over the stack of the zetas' ``super_annihilation`` operators:
    each row is the residual that zeta's operators give alone.
    """
    return _commutator_residuals(_stacked([super_annihilation(zeta, dim) for zeta in zetas]), zetas, dim)


def _commutator_residuals(a_op: BlockOperator, zetas: Sequence[ExtendedComplex], dim: int) -> CommutatorResiduals:
    """commutator_suite's residuals, given a_op, the stack of the zetas' ``super_annihilation`` operators."""
    a_dag = a_op.dagger()
    n_op = super_number_operator(dim)
    inv_mods = np.array([abs(zeta.v) / abs(zeta.u) for zeta in zetas])  # 1/|zeta|, zero at the pole
    inv_mod_sq = inv_mods * inv_mods
    ones = np.ones(dim)
    ladder_target = BlockOperator(
        dim,
        ({0: np.multiply.outer(1.0 + inv_mod_sq, ones)}, {}, {}, {0: np.multiply.outer(1.0 - inv_mod_sq, ones)}),
        a_op.stack,
    )
    lowering = n_op @ a_op - a_op @ n_op + a_op
    raising = n_op @ a_dag - a_dag @ n_op - a_dag
    ladder = a_op @ a_dag - a_dag @ a_op - ladder_target
    return CommutatorResiduals(
        lowering.max_abs(GUARD_BAND), raising.max_abs(GUARD_BAND), ladder.max_abs(GUARD_BAND)
    )
