"""Riemann-sphere geometry for the one-super-particle label.

The label zeta lives on the extended complex plane.  Points are stored as a
homogeneous pair (u, v) with zeta = u/v, so the point at infinity is the
ordinary value (1, 0) and every formula below evaluates at both poles
without special cases.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExtendedComplex",
    "BlochPoint",
    "CartesianBloch",
    "zeta_to_bloch",
    "bloch_cartesian",
    "concurrence_circle",
]

_TWO_PI = 2.0 * math.pi
# Coordinates past this size are scaled down by _DOWNSCALE (a power of two,
# so exactly) before normalizing: |u| and the norm of (|u|, |v|) stay finite.
_HUGE = 2.0**1000
_DOWNSCALE = 2.0**-64
# Largest distance of |r|^2 from 1 that a Cartesian Bloch vector may have.
_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class ExtendedComplex:
    """Homogeneous point (u, v) of the extended complex plane, zeta = u/v.

    Stored in canonical form: |u|^2 + |v|^2 = 1 with v real and >= 0, and
    u real and > 0 when v = 0 (the point at infinity).  The imaginary part
    of the stored v is exactly zero.
    """

    u: complex
    v: complex

    def __post_init__(self):
        u = complex(self.u)
        v = complex(self.v)
        if not (cmath.isfinite(u) and cmath.isfinite(v)):
            raise ValueError("homogeneous coordinates must be finite")
        if max(abs(u.real), abs(u.imag), abs(v.real), abs(v.imag)) > _HUGE:
            u *= _DOWNSCALE
            v *= _DOWNSCALE
        scale = math.hypot(abs(u), abs(v))
        if scale == 0.0:
            raise ValueError("homogeneous coordinates must not both be zero")
        u /= scale
        v /= scale
        anchor = v if v != 0 else u
        phase = anchor.conjugate() / abs(anchor)
        object.__setattr__(self, "u", u * phase)
        object.__setattr__(self, "v", v * phase)

    @classmethod
    def from_value(cls, zeta: complex) -> "ExtendedComplex":
        zeta = complex(zeta)
        if cmath.isnan(zeta):
            raise ValueError("zeta must not be NaN")
        if cmath.isinf(zeta):
            return cls.infinity()
        return cls(zeta, 1.0)

    @classmethod
    def infinity(cls) -> "ExtendedComplex":
        return cls(1.0, 0.0)

    @property
    def is_infinite(self) -> bool:
        return self.v == 0


@dataclass(frozen=True)
class BlochPoint:
    """Polar angles on a unit sphere; phi is canonically 0 at the poles.

    theta outside [0, pi] (NaN included) and a non-finite phi are rejected.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        theta = _checked_theta(self.theta)
        phi = _reduced_phi(self.phi)
        if _at_pole(theta):
            phi = 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


def _checked_theta(theta: float) -> float:
    theta = float(theta)
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    return theta


def _reduced_phi(phi: float) -> float:
    """phi mod 2*pi in [0, 2*pi): a tiny negative phi, whose float remainder rounds to 2*pi, is 0."""
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    reduced = phi % _TWO_PI
    return 0.0 if reduced == _TWO_PI else reduced


def _at_pole(theta: float) -> bool:
    return theta == 0.0 or theta == math.pi


def _grid_phases(thetas: list[float], phis: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the canonical azimuth of each grid point (theta_i, phi_j), as (T, P) arrays.

    Every theta and phi passes BlochPoint's checks, and the azimuth is the
    one BlochPoint keeps: phi mod 2*pi, or 0 where theta is a pole.
    math.cos and math.sin run once per phi.
    """
    at_pole = np.array([_at_pole(_checked_theta(theta)) for theta in thetas])[:, None]
    reduced = [_reduced_phi(phi) for phi in phis]
    cos_phi = np.where(at_pole, 1.0, [math.cos(phi) for phi in reduced])
    sin_phi = np.where(at_pole, 0.0, [math.sin(phi) for phi in reduced])
    return cos_phi, sin_phi


@dataclass(frozen=True)
class CartesianBloch:
    """Unit vector on the sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        r_sq = self.x * self.x + self.y * self.y + self.z * self.z
        # written so that a NaN |r|^2, which compares false, is refused too
        if not abs(r_sq - 1.0) <= _UNIT_TOL:
            raise ValueError(f"(x, y, z) must be a unit vector, |r|^2 = {r_sq}")


def zeta_to_bloch(zeta: ExtendedComplex) -> BlochPoint:
    """Inverse stereographic projection of zeta = tan(theta/2) e^{i phi}."""
    theta = 2.0 * math.atan2(abs(zeta.u), zeta.v.real)
    if zeta.u == 0 or zeta.is_infinite:
        return BlochPoint(theta, 0.0)
    return BlochPoint(theta, cmath.phase(zeta.u) % _TWO_PI)


def bloch_cartesian(point: BlochPoint) -> CartesianBloch:
    """Cartesian coordinates (sin t cos p, sin t sin p, cos t)."""
    sin_theta = math.sin(point.theta)
    return CartesianBloch(
        sin_theta * math.cos(point.phi),
        sin_theta * math.sin(point.phi),
        math.cos(point.theta),
    )


def _cartesian_grid(
    thetas: list[float], cos_phi: np.ndarray, sin_phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """bloch_cartesian of each grid point: x and y as (T, P) arrays, z as a (T, 1) column.

    ``cos_phi`` and ``sin_phi`` come from ``_grid_phases``.  The products
    round as bloch_cartesian's do, and every point gets CartesianBloch's
    unit-vector check.
    """
    sin_theta = np.array([math.sin(theta) for theta in thetas])[:, None]
    z = np.array([math.cos(theta) for theta in thetas])[:, None]
    x, y = sin_theta * cos_phi, sin_theta * sin_phi
    off = ~(np.abs(x * x + y * y + z * z - 1.0) <= _UNIT_TOL)
    if off.any():
        i, j = np.argwhere(off)[0]
        CartesianBloch(float(x[i, j]), float(y[i, j]), float(z[i, 0]))
    return x, y, z


def concurrence_circle(theta1: float) -> tuple[float, float]:
    """Concurrence and vertical coordinate of a one-super-particle point.

    The concurrence is the distance of the sphere point from the vertical
    axis, sin(theta1); the circle of equally entangled states sits at
    height z = cos(theta1).
    """
    if not 0.0 <= theta1 <= math.pi:
        raise ValueError(f"theta1 must lie in [0, pi], got {theta1}")
    return math.sin(theta1), math.cos(theta1)
