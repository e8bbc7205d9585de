"""Wave-plate operator algebra, and decomposition of the nonunitary
propagator into plate strings around a loss element.

Angle conventions: all public setting angles are degrees. With the Jones
matrices below, QWP(45) HWP(theta) QWP(45) = -i * diag(-e^{-2i theta},
e^{2i theta}); the two sandwiches in a full string therefore contribute a
global factor of -1, which decompose_grid() absorbs by adding 45 degrees
to theta. One angle, DecompositionParams.theta_deg, serves both strings:
the shift (theta, theta) + k (45, -45) leaves the product as it is for
k = 2 and negates its real off-diagonal C for k = +-1, a sign the loss
angles carry. As H is traceless, det U = 1, so the loss element's entries
are c = |A + iB| + |C| and 1 / c.
decompose_grid() decomposes a time grid as one stack of 2x2 plate products.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _read_only
from .propagator import Family, propagators

_ROUNDTRIP_TOL = 1e-10


def hwp(angle_deg):
    """Half-wave-plate Jones matrix at a setting angle in degrees, taken
    modulo 180; over an array of angles, a (..., 2, 2) stack."""
    ang = np.deg2rad(np.remainder(angle_deg, 180.0))
    c2, s2 = np.cos(2.0 * ang), np.sin(2.0 * ang)
    m = np.empty(np.shape(ang) + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = c2, s2, s2, -c2
    return m


def qwp(angle_deg):
    """Quarter-wave-plate Jones matrix, with the angles of hwp()."""
    ang = np.deg2rad(np.remainder(angle_deg, 180.0))
    c, s = np.cos(ang), np.sin(ang)
    m = np.empty(np.shape(ang) + (2, 2), dtype=complex)
    m[..., 0, 0] = c * c + 1j * s * s
    m[..., 0, 1] = m[..., 1, 0] = s * c * (1.0 - 1j)
    m[..., 1, 1] = s * s + 1j * c * c
    return m


def loss_matrix(xi1_deg, xi2_deg):
    """Loss-dependent element [[0, sin 2 xi1], [sin 2 xi2, 0]]; over arrays
    of angles, a (..., 2, 2) stack."""
    s1 = np.sin(2.0 * np.deg2rad(xi1_deg))
    m = np.zeros(np.shape(s1) + (2, 2), dtype=complex)
    m[..., 0, 1], m[..., 1, 0] = s1, np.sin(2.0 * np.deg2rad(xi2_deg))
    return m


class DecompositionError(ArithmeticError):
    """The plate strings could not reproduce the propagator."""


@dataclass(frozen=True)
class DecompositionParams:
    """Plate angle, loss angles and scale realizing a propagator, or, as
    decompose_grid() returns them, (T,) arrays over a time grid.

    c * reconstruct(params) equals the propagator elementwise, and the loss
    element's entries are lambda1,2 = c sin(2 xi1,2): one is c and the
    other 1 / c.
    """
    theta_deg: float
    xi1_deg: float
    xi2_deg: float
    c: float


# the fixed plates of both strings, multiplied in the order the strings use
_FIRST_HEAD = _read_only(hwp(0.0) @ hwp(22.5) @ qwp(45.0))
_QWP45 = _read_only(qwp(45.0))
_HWP67_5 = _read_only(hwp(67.5))


def reconstruct(d):
    """Plate-string product second(theta) @ loss(xi1, xi2) @ first(theta),
    elementwise over the broadcast angle arrays of d."""
    plate = hwp(d.theta_deg)
    first = _FIRST_HEAD @ plate @ _QWP45
    second = _QWP45 @ plate @ _QWP45 @ _HWP67_5
    return second @ loss_matrix(d.xi1_deg, d.xi2_deg) @ first


def decompose_grid(p, times):
    """Plate and loss parameters realizing propagators(p, times) / c, as one
    DecompositionParams of (T,) arrays.

    A, B and C come off one propagator stack and every field is computed
    elementwise, theta = arg(A + iB) / 4 + 45 degrees included. As
    A^2 + B^2 = 1 + C^2, c = |A + iB| + |C| with |A + iB| >= 1, a bound that
    hypot can miss by an ulp and c keeps; the loss angle on the side that the
    sign of C picks is 45 degrees and the other asin((1 / c)^2) / 2, which
    cannot overflow. A point holds when its round-trip error is within
    _ROUNDTRIP_TOL of its largest |U| entry, since U grows like cosh in t.
    Raises DecompositionError naming the first t that the plate strings do
    not reproduce.
    """
    if p.family is not Family.APT:
        raise ValueError("decomposition is defined for the APT family only")
    times = np.asarray(times, dtype=float).reshape(-1)
    with np.errstate(invalid="ignore", over="ignore"):
        target = propagators(p, times)
        a, b, off = target[:, 0, 0].real, -target[:, 0, 0].imag, target[:, 0, 1].real
        c = np.maximum(np.hypot(a, b), 1.0) + np.abs(off)
        small = np.rad2deg(0.5 * np.arcsin((1.0 / c) ** 2))
        xi1 = np.where(off < 0.0, 45.0, small)
        xi2 = np.where(off < 0.0, small, 45.0)
        theta = np.rad2deg(np.arctan2(b, a) / 4.0 + np.pi / 4.0) % 180.0
        d = DecompositionParams(theta, xi1, xi2, c)
        recon = c[:, None, None] * reconstruct(d)
        err = (np.max(np.abs(recon - target), axis=(-2, -1))
               / np.max(np.abs(target), axis=(-2, -1)))
    bad = ~(err < _ROUNDTRIP_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        error = np.inf if np.isnan(err[i]) else err[i]
        raise DecompositionError(f"t={float(times[i]):g}: the plate strings do not reproduce the "
                                 f"propagator (round-trip error {error:.3e} of max |U|)")
    return d
