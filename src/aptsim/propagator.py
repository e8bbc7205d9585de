"""The single qubit: non-Hermitian Hamiltonians in the sigma_x / sigma_z
family, their symmetry regime, and their closed-form nonunitary propagators
exp(-i H t) in real arithmetic, one formula for every regime and both
families.

H is traceless, so H^2 = k I (k = -det H) and exp(-i H t) = c I - i ts H.
With w = sqrt(|k|) taken once, (c, ts) = (cos wt, sin(wt) / w) for k > 0 and
(cosh wt, sinh(wt) / w) for k < 0: the sign of one scalar picks the form, and
k t^2 is never formed, so it cannot overflow. k = 0 is exact, not a limit
(H^2 = 0, so U = I - i t H), and near it sin and sinh keep their relative
accuracy at small wt, so no series fallback is needed, not even inside the
exceptional-point band. k = gamma^2 (a - 1)(a + 1) stays accurate near a = 1.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import SIGMA_X, SIGMA_Z

EP_TOL = 1e-9


class Family(Enum):
    """APT: H = gamma * (i sx + a sz). PT: H = gamma * (sx - i a sz).

    The two are related by H_apt = i * H_pt at equal (a, gamma).
    """
    APT = "apt"
    PT = "pt"


class Regime(Enum):
    UNBROKEN = "unbroken"
    EXCEPTIONAL_POINT = "exceptional_point"
    BROKEN = "broken"


@dataclass(frozen=True)
class AptParams:
    """Per-qubit Hamiltonian parameters.

    `a` is the degree of Hermiticity (ratio of the Hermitian sigma_z part
    to the anti-Hermitian sigma_x part), `gamma` the energy scale; times
    elsewhere are quoted in units of 1/gamma. gamma = 0 is H = 0, a qubit
    that does not evolve (IDENTITY).
    """
    a: float
    gamma: float = 1.0
    family: Family = Family.APT

    def __post_init__(self):
        if not 0 < self.a < np.inf:
            raise ValueError(f"a must be finite and > 0, got {self.a}")
        if not 0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not abs(self.gamma * self.gamma * (self.a - 1.0) * (self.a + 1.0)) < np.inf:
            raise ValueError(f"a = {self.a}, gamma = {self.gamma} overflow k = gamma^2 (a^2 - 1)")


# the single-qubit case: H = 0, so exp(-i H t) = I at every t
IDENTITY = AptParams(a=1.0, gamma=0.0)


def hamiltonian(p):
    """Traceless 2x2 Hamiltonian matrix for the given parameters."""
    if p.family is Family.APT:
        return p.gamma * (1j * SIGMA_X + p.a * SIGMA_Z)
    return p.gamma * (SIGMA_X - 1j * p.a * SIGMA_Z)


def classify(p):
    """Symmetry regime, with an EP_TOL-wide exceptional-point band around a = 1.

    APT eigenvalues +-gamma*sqrt(a^2 - 1) are real for a > 1 (unbroken)
    and imaginary for a < 1 (broken); the PT family is mirrored. gamma = 0
    is H = 0, diagonalizable with a real spectrum: unbroken at any a.
    """
    if p.gamma == 0.0:
        return Regime.UNBROKEN
    if abs(p.a - 1.0) <= EP_TOL:
        return Regime.EXCEPTIONAL_POINT
    above = p.a > 1.0
    if p.family is Family.APT:
        return Regime.UNBROKEN if above else Regime.BROKEN
    return Regime.BROKEN if above else Regime.UNBROKEN


def propagator_terms(p, times):
    """Real (c, ts) over `times`, with exp(-i H t) = c I - i ts H."""
    k = p.gamma * p.gamma * (p.a - 1.0) * (p.a + 1.0)
    k = k if p.family is Family.APT else -k  # H^2 = k I
    t = np.asarray(times, dtype=float).reshape(-1)
    if k == 0.0:
        return np.ones(t.size), t.copy()
    w = np.sqrt(abs(k))
    cos, sin = (np.cos, np.sin) if k > 0.0 else (np.cosh, np.sinh)
    return cos(w * t), sin(w * t) / w


def propagators(p, times):
    """exp(-i H t) for every t of `times`, as a (T, 2, 2) stack, for either
    family: within ~1e-13 (relative to |U|) of a 40-digit exponential for
    t <= 70, the exceptional-point band included."""
    c, ts = propagator_terms(p, times)
    return c[:, None, None] * np.eye(2) - 1j * ts[:, None, None] * hamiltonian(p)
