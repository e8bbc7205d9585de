"""Closed-form nonunitary propagators exp(-i H t): one formula for every
regime and both Hamiltonian families.

H is traceless, so H^2 = k I (k = -det H) and exp(-i H t) = c I - i t s H
with z = k t^2, c = cos(sqrt z), s = sin(sqrt z) / sqrt z. Both are entire
in z: a complex square root turns them into cosh/sinh for z < 0, and np.sinc
gives s = 1 exactly at z = 0, so neither a regime branch nor a series
fallback is needed, not even inside the exceptional-point band. k is formed
as gamma^2 (a - 1)(a + 1), which keeps its relative accuracy near a = 1.
"""

import numpy as np

from .model import Family, hamiltonian


def propagator_terms(p, times):
    """Real (c, ts) over `times`, with exp(-i H t) = c I - i ts H."""
    k = p.gamma * p.gamma * (p.a - 1.0) * (p.a + 1.0)  # H^2 = k I for APT, -k I for PT
    t = np.asarray(times, dtype=float).reshape(-1)
    root = np.sqrt((k if p.family is Family.APT else -k) * t * t + 0j)
    return np.cos(root).real, t * np.sinc(root / np.pi).real


def propagators(p, times):
    """exp(-i H t) for every t of `times`, as a (T, 2, 2) stack."""
    c, ts = propagator_terms(p, times)
    return c[:, None, None] * np.eye(2) - 1j * ts[:, None, None] * hamiltonian(p)


def closed_form(p, t):
    """Single-qubit propagator exp(-i H t) for either family.

    Within ~1e-13 (relative to |U|) of a 40-digit exponential for t <= 70,
    the exceptional-point band included.
    """
    return propagators(p, [t])[0]
