"""Closed-form nonunitary propagators exp(-i H t) in real arithmetic: one
formula for every regime and both Hamiltonian families.

H is traceless, so H^2 = k I (k = -det H) and exp(-i H t) = c I - i ts H.
With w = sqrt(|k|) taken once, (c, ts) = (cos wt, sin(wt) / w) for k > 0 and
(cosh wt, sinh(wt) / w) for k < 0: the sign of one scalar picks the form, and
k t^2 is never formed, so it cannot overflow. k = 0 is exact, not a limit
(H^2 = 0, so U = I - i t H), and near it sin and sinh keep their relative
accuracy at small wt, so no series fallback is needed, not even inside the
exceptional-point band. k = gamma^2 (a - 1)(a + 1) stays accurate near a = 1.
"""

import numpy as np

from .model import Family, hamiltonian


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

