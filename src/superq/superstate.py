"""Composite fermion (x) boson space: block operators and the named states.

A composite vector splits by fermion occupation into two Fock-space blocks
(psi0, psi1), the rows of one (2, dim) array.  An operator is a 2x2 array of
boson blocks with the fermion index as the outer block index, so its full
matrix is 2*dim x 2*dim.  Every block the package builds is banded (a,
a^dag, N, I, X, P all have bandwidth <= 1), so ``BlockOperator`` stores each
block as its nonzero diagonals and multiplies, applies, adds and adjoins in
O(dim); only ``full()`` and the dense block accessors form dim x dim arrays.

The one-super-particle label zeta enters every construction through its
homogeneous coordinates (u, v): the pair of blocks of |n, zeta> is
(v |n>, u |n-1>), the coefficient -1/zeta of the super-annihilation operator
is -v/u, and both poles of the sphere come out of the same expressions.

Each value type has one construction path, its dataclass constructor, which
validates the arrays it is given and keeps read-only copies of them; the
builders here fill fresh arrays and pass them to it once.

The kernels behind one state also take stacks of them, as the sweep and
``verify`` pass them: ``_undisplaced``, ``_displace_low_levels``,
``_block_norms_sq`` and ``_pole_probabilities``.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
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

    def block_norms_sq(self) -> tuple[float, float]:
        """<psi0|psi0> and <psi1|psi1>, from ``_block_norms_sq``."""
        g00, g11 = _block_norms_sq(self.coeffs).tolist()
        return g00, g11

    def norm_sq(self) -> float:
        g00, g11 = self.block_norms_sq()
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
    and keeps read-only copies of them in read-only mappings.  ``@``,
    ``apply`` (``apply_coeffs`` on a stack of states), ``+``, ``-`` and
    ``dagger`` work on the diagonals alone, in O(offsets^2 * dim), and never
    form a dim x dim array.

    ``op.ul`` (and ``ur``, ``ll``, ``lr``) reads a block back as a dense
    read-only matrix and ``full()`` the whole 2*dim x 2*dim matrix; both are
    built on each call.
    """

    dim: int
    bands: tuple[Band, Band, Band, Band]

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidDimensionError(f"dim must be >= 1, got {self.dim}")
        if len(self.bands) != 4:
            raise InvalidDimensionError(f"an operator has 4 blocks, got {len(self.bands)}")
        bands = tuple(_checked_band(band, self.dim) for band in self.bands)
        object.__setattr__(self, "bands", bands)

    @classmethod
    def fermion_diagonal(cls, upper: complex, lower: complex, dim: int) -> "BlockOperator":
        """diag(upper, lower) (x) I: each fermion block a multiple of the boson identity."""
        return cls(dim, (_scalar_band(upper, dim), {}, {}, _scalar_band(lower, dim)))

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
        return SuperVector(self.apply_coeffs(state.coeffs))

    def apply_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """The operator applied to each state of a (..., 2, dim) coefficient stack.

        Every state gets the arithmetic ``apply`` gives it alone, so each
        result equals ``apply(SuperVector(state)).coeffs`` bit for bit.
        """
        if np.shape(coeffs)[-2:] != (2, self.dim):
            raise InvalidDimensionError(
                f"a dim-{self.dim} operator applies to (..., 2, {self.dim}) coefficients, "
                f"got shape {np.shape(coeffs)}"
            )
        ul, ur, ll, lr = self.bands
        blocks = (coeffs[..., 0, :], coeffs[..., 1, :])
        out = np.zeros(np.shape(coeffs), dtype=np.complex128)
        _band_apply(out[..., 0, :], zip((ul, ur), blocks))
        _band_apply(out[..., 1, :], zip((ll, lr), blocks))
        return out

    def dagger(self) -> "BlockOperator":
        ul, ur, ll, lr = (
            {-offset: diagonal.conj() for offset, diagonal in band.items()} for band in self.bands
        )
        return BlockOperator(self.dim, (ul, ll, ur, lr))

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        a, b, c, d = self.bands
        e, f, g, h = other.bands
        dim = self.dim
        return BlockOperator(
            dim,
            (
                _band_matmul(((a, e), (b, g)), dim),
                _band_matmul(((a, f), (b, h)), dim),
                _band_matmul(((c, e), (d, g)), dim),
                _band_matmul(((c, f), (d, h)), dim),
            ),
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
        return BlockOperator(self.dim, tuple(bands))

    def max_abs(self, guard: int = 0) -> float:
        """Max-norm over the boson levels below dim - guard of every block.

        Entries off the diagonals are exactly zero, so this equals the max
        over the dense guarded sub-block; a zero operator gives 0.0.
        """
        if not 0 <= guard < self.dim:
            raise InvalidDimensionError(f"guard must satisfy 0 <= guard < dim, got {guard}")
        keep = self.dim - guard
        maxima = [0.0]
        for band in self.bands:
            for offset, diagonal in band.items():
                # rows i < keep whose column i + offset is < keep too
                count = min(keep, keep - offset) - max(0, -offset)
                if count > 0:
                    maxima.append(np.abs(diagonal[:count]).max())
        return float(np.max(maxima))


def _checked_band(band: Band, dim: int) -> Band:
    """Read-only complex128 copies of a band's diagonals, in a read-only mapping in its offset order.

    Diagonal k must hold dim - |k| > 0 entries.
    """
    checked = {}
    for offset, diagonal in band.items():
        diagonal = np.array(diagonal, dtype=np.complex128)
        if not abs(offset) < dim or diagonal.shape != (dim - abs(offset),):
            raise InvalidDimensionError(
                f"diagonal {offset} of a dim-{dim} block needs shape ({dim - abs(offset)},), "
                f"got {diagonal.shape}"
            )
        diagonal.setflags(write=False)
        checked[offset] = diagonal
    return MappingProxyType(checked)


def _scalar_band(scalar: complex, dim: int) -> Band:
    """scalar times the boson identity; the zero matrix when scalar is 0."""
    return {0: np.full(dim, scalar, dtype=np.complex128)} if scalar != 0 else {}


def _fill(block: np.ndarray, band: Band) -> None:
    """Write the diagonals of a band into a zeroed square matrix (or a view of one)."""
    for offset, diagonal in band.items():
        np.fill_diagonal(block[max(0, -offset) :, max(0, offset) :], diagonal)


def _band_apply(out: np.ndarray, terms) -> None:
    """Add band @ psi into a zeroed out over the (band, psi) terms, in term and offset order.

    psi and out may carry the same leading stack axes; the band acts on the last.
    """
    dim = out.shape[-1]
    for band, psi in terms:
        for offset, diagonal in band.items():
            lo, hi = max(0, -offset), dim - max(0, offset)
            out[..., lo:hi] += diagonal * psi[..., lo + offset : hi + offset]


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
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    amp0 = math.cos(0.5 * params.theta)
    amp1 = cmath.rect(math.sin(0.5 * params.theta), params.phi)
    coeffs = np.zeros((2, dim), dtype=np.complex128)
    coeffs[0, 0] = amp0
    coeffs[0, 1] = amp1 * params.zeta.v
    coeffs[1, 0] = amp1 * params.zeta.u
    return SuperVector(coeffs)


def _super_qubit_grid(
    thetas: list[float], cos_phi: np.ndarray, sin_phi: np.ndarray, zeta: ExtendedComplex
) -> np.ndarray:
    """Levels 0 and 1 of super_qubit_state at each (theta_i, phi_j), as one (T*P, 2, 2) array.

    Row i * P + j belongs to (theta_i, phi_j).  ``cos_phi`` and ``sin_phi``
    are ``moebius._grid_phases(thetas, phis)``, which runs the angle checks
    and gives the canonical azimuths; a caller computes them once per angle
    grid and passes them to every zeta.  super_qubit_state writes nothing
    above level 1, so these are all of its nonzero entries, equal to its
    entries bit for bit: cmath.rect and Python's complex multiply are
    written out as the real products they round.
    """
    radius = np.array([math.sin(0.5 * theta) for theta in thetas])[:, None]
    amp1_re, amp1_im = radius * cos_phi, radius * sin_phi
    coeffs = np.zeros((*cos_phi.shape, 2, 2), dtype=np.complex128)
    coeffs[:, :, 0, 0] = np.array([math.cos(0.5 * theta) for theta in thetas])[:, None]
    for (block, level), w in (((0, 1), zeta.v), ((1, 0), zeta.u)):
        coeffs.real[:, :, block, level] = amp1_re * w.real - amp1_im * w.imag
        coeffs.imag[:, :, block, level] = amp1_re * w.imag + amp1_im * w.real
    return coeffs.reshape(-1, 2, 2)


def _undisplaced(low: np.ndarray, dim: int) -> np.ndarray:
    """The (..., 2, dim) coefficients of the states a (..., 2, 2) low-level array describes.

    Levels 0 and 1 are copied and every level above is zero: the alpha = 0
    counterpart of ``_displace_low_levels``.
    """
    states = np.zeros((*low.shape[:-1], dim), dtype=np.complex128)
    states[..., :2] = low
    return states


def _displace_low_levels(alpha: complex, low: np.ndarray, dim: int) -> np.ndarray:
    """D(alpha) on both blocks of states supported on boson levels 0 and 1.

    ``low[..., block, level]`` holds levels 0 and 1 of each block, for one
    state (2, 2), as super_coherent_state reads it, or a stack (..., 2, 2),
    as ``_super_qubit_grid`` builds it.  Each block r0 |0> + r1 |1> becomes
    r0 D|0> + r1 D|1>, built from the memoised closed-form columns
    elementwise; the result is (..., 2, dim).
    """
    d0, d1 = displaced_columns(alpha, dim)
    return low[..., :1] * d0 + low[..., 1:2] * d1


def super_coherent_state(params: CoherentParams, dim: int) -> SuperVector:
    """Displaced super-qubit state, an eigenstate of the super-annihilation operator.

    The displacement acts as the boson displacement on both fermion blocks.
    alpha = 0 returns the reference super-qubit state exactly, at any dim >= 2:
    nothing is displaced, so the displacement guard does not apply.
    """
    reference = super_qubit_state(params.base, dim)
    if params.alpha == 0:
        return reference
    return SuperVector(_displace_low_levels(params.alpha, reference.coeffs[:, :2], dim))


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
    return tuple(_pole_probabilities(state.coeffs[None], zeta, alpha)[:, 0].tolist())


def _pole_probabilities(coeffs: np.ndarray, zeta: ExtendedComplex, alpha: complex = 0.0) -> np.ndarray:
    """pole_probabilities of each state of a (K, 2, L) coefficient stack, as the rows of a (2, K) array.

    The poles |0, zeta> and |1, zeta> are one (2, 2, 2) array of their boson
    levels 0 and 1, displaced to length L when alpha != 0; at alpha = 0 only
    levels 0 and 1 of the states are read, since the poles have no other.
    Re and Im of each block's overlap are sums of real products, (Re p, Im p)
    and (-Im p, Re p) against (Re psi, Im psi) at each level, added along the
    level axis in numpy's pairwise order; the overlap adds the two blocks,
    psi0 first.  No BLAS kernel and no SIMD level chooses that rounding.
    """
    dim = coeffs.shape[-1]
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    # [pole, block, level]
    poles = np.array([[[1, 0], [0, 0]], [[0, zeta.v], [zeta.u, 0]]], dtype=np.complex128)
    if alpha != 0:
        poles = _displace_low_levels(alpha, poles, dim)
    else:
        coeffs = coeffs[..., :2]
    # 1j * p is (-Im p, Re p) exactly; [part, pole, block, 2 * level + (re, im)]
    weights = np.array([poles, 1j * poles]).view(np.float64)
    # [state, part, pole, block]
    blocks = (weights * coeffs.view(np.float64)[:, None, None]).sum(axis=-1)
    overlaps = blocks[..., 0] + blocks[..., 1]
    squares = overlaps * overlaps
    return (squares[:, 0] + squares[:, 1]).T


def _block_norms_sq(coeffs: np.ndarray) -> np.ndarray:
    """<psi0|psi0> and <psi1|psi1> of each state of a (..., 2, dim) stack, as a (..., 2) array.

    The one computation of the block norms.  np.vecdot runs np.vdot's BLAS
    dot on each block, so one state's values are its np.vdot sums bit for bit.
    """
    return np.vecdot(coeffs, coeffs).real


def _norms(coeffs: np.ndarray) -> np.ndarray:
    """SuperVector.norm of each state of a (..., 2, dim) coefficient stack."""
    block = _block_norms_sq(coeffs)
    return np.sqrt(block[..., 0] + block[..., 1])


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


def commutator_suite(zeta: ExtendedComplex, dim: int) -> CommutatorResiduals:
    """Residuals of the three defining commutation relations for a given zeta."""
    a_op = super_annihilation(zeta, dim)
    a_dag = a_op.dagger()
    n_op = super_number_operator(dim)
    inv_mod = abs(zeta.v) / abs(zeta.u)  # 1/|zeta|, zero at the pole
    inv_mod_sq = inv_mod * inv_mod
    ladder_target = BlockOperator.fermion_diagonal(1.0 + inv_mod_sq, 1.0 - inv_mod_sq, dim)
    lowering = n_op @ a_op - a_op @ n_op + a_op
    raising = n_op @ a_dag - a_dag @ n_op - a_dag
    ladder = a_op @ a_dag - a_dag @ a_op - ladder_target
    return CommutatorResiduals(
        lowering.max_abs(GUARD_BAND), raising.max_abs(GUARD_BAND), ladder.max_abs(GUARD_BAND)
    )
