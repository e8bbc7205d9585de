"""The paper's closed forms (value, minimum, period) for the concurrence of
the Bell-initial identical-evolution trajectories. The concurrence of any
state is Wootters' formula on a factor F of it, linalg.wootters(F)[0]: the
evolution kernel applies it to its initial factor, and a density matrix
takes it as linalg.wootters(dynamics.rank_factor(rho))[0]."""

import numpy as np

from .propagator import Family


def _unbroken_w(a):
    """w = a^2 - 1 for an unbroken APT qubit. nan, inf, a <= 1 and an a^2
    that overflows raise ValueError, as they do in AptParams."""
    w = (float(a) - 1.0) * (float(a) + 1.0)
    if not (float(a) > 1.0 and w < np.inf):  # w is even in a
        raise ValueError(f"requires finite a > 1 with a^2 - 1 finite, got {a}")
    return w


def analytic_concurrence_identical(a, t):
    """Concurrence at time t for the Bell state under identical evolution
    with a > 1: w^2 / (w^2 + 8 w s + 8 s^2), where w = a^2 - 1 and
    s = sin^2(sqrt(w) t), evaluated as 1 / (1 + 8 u (1 + u)) with u = s / w
    so that no w^2 overflows."""
    w = _unbroken_w(a)
    phase = w ** 0.5 * float(t)
    if not abs(phase) < np.inf:
        raise ValueError(f"requires finite sqrt(a^2 - 1) t, got a = {a}, t = {t}")
    u = float(np.sin(phase)) ** 2 / w
    return 1.0 / (1.0 + 8.0 * u * (1.0 + u))


def concurrence_period(a, family=Family.APT):
    """Oscillation period of the concurrence: pi / sqrt(a^2 - 1) for the
    APT family (a > 1), pi / sqrt(1 - a^2) for PT (0 < a < 1)."""
    if family is Family.APT:
        return float(np.pi / np.sqrt(_unbroken_w(a)))
    if not 0 < a < 1:
        raise ValueError(f"PT period requires 0 < a < 1, got {a}")
    return float(np.pi / np.sqrt((1.0 - a) * (1.0 + a)))


def concurrence_minimum_identical(a):
    """Minimum of the identical-evolution concurrence, attained where
    sin^2 = 1: w^2 / (w^2 + 8 w + 8) with w = a^2 - 1, evaluated as
    1 / (1 + 8 v (1 + v)) with v = 1 / w."""
    v = 1.0 / _unbroken_w(a)
    return 1.0 / (1.0 + 8.0 * v * (1.0 + v))


def ep_concurrence(t):
    """Identical evolution exactly at the exceptional point:
    1 / (1 + 8 t^2 + 8 t^4). Decays polynomially and never revives."""
    if not 0 <= t < np.inf:
        raise ValueError(f"requires finite t >= 0, got {t}")
    t2 = float(t) * float(t)
    return 1.0 / (1.0 + 8.0 * t2 + 8.0 * t2 * t2)
