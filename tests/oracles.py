"""Reference implementations that only the tests use: a series matrix
exponential, closed-form 2x2 eigenvalues, the two-qubit tensor
propagator, and mpmath evaluations of the propagator terms, of Wootters'
concurrence and of a whole evolution. Except for two_qubit, they are
deliberately independent of `aptsim.propagator`, which they check."""

import numpy as np

from aptsim.model import Family
from aptsim.propagator import propagators

# Taylor order 24 at scaled norm <= 0.5 makes the truncation error
# negligible; the 10-odd squarings that restore the full time amplify
# rounding instead. Near the exceptional point -iHt is nearly nilpotent
# and its entries grow like gamma * t, so the absolute error reaches
# 1.3e-9 at a = 1 +- 1e-9, gamma = 2.5, t = 70 (7e-12 relative to |U|),
# against a 40-digit mpmath exponential.
_SERIES_ORDER = 24
_SCALE_TARGET = 0.5
_MAX_TIME = 100.0
DEFAULT_OVERFLOW_BOUND = 1e150


def expm_series(m, t, overflow_bound=DEFAULT_OVERFLOW_BOUND):
    """exp(-i * m * t) for a 2x2 matrix by scaling-and-squaring Taylor series.

    |t| is capped at 100 and intermediates are checked against
    `overflow_bound`: off the unitary case the exponential grows without
    bound, and silent overflow would poison downstream trajectories.
    """
    if abs(t) > _MAX_TIME:
        raise ValueError(f"|t| must be <= {_MAX_TIME}, got {t}")
    scaled = -1j * np.asarray(m, dtype=complex) * t
    if scaled.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {scaled.shape}")
    if not np.all(np.isfinite(scaled)):
        raise ValueError("matrix contains non-finite entries")

    norm = float(np.linalg.norm(scaled, ord=np.inf))
    squarings = 0
    if norm > _SCALE_TARGET:
        squarings = int(np.ceil(np.log2(norm / _SCALE_TARGET)))
        scaled = scaled / (2.0 ** squarings)

    term = np.eye(2, dtype=complex)
    acc = np.eye(2, dtype=complex)
    for k in range(1, _SERIES_ORDER + 1):
        term = term @ scaled / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
        if np.max(np.abs(acc)) > overflow_bound:
            raise OverflowError(
                f"matrix exponential exceeded the overflow bound {overflow_bound:g}")
    if not np.all(np.isfinite(acc)):
        raise OverflowError("matrix exponential produced non-finite entries")
    return acc


def eig2(m):
    """Both eigenvalues of a 2x2 matrix from the characteristic polynomial,
    ordered by (real part, imaginary part) descending."""
    m = np.asarray(m, dtype=complex)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(complex(tr * tr - 4.0 * det))
    lo, hi = sorted(((tr + disc) / 2.0, (tr - disc) / 2.0),
                    key=lambda z: (z.real, z.imag))
    return complex(hi), complex(lo)


def two_qubit(p1, p2, t):
    """Two-qubit propagator U1(t) (x) U2(t)."""
    return np.kron(propagators(p1, [t])[0], propagators(p2, [t])[0])


def _mp_matrix(m):
    import mpmath as mp

    return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in m])


def _wootters_mp(r):
    """Wootters' concurrence of the mpmath 4x4 state r at the working
    precision: square roots of the eigenvalues of r (sy x sy) r* (sy x sy)."""
    import mpmath as mp

    yy = mp.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
    flipped = r * yy * r.apply(mp.conj) * yy
    roots = sorted((mp.sqrt(max(mp.re(x), 0)) for x in
                    mp.eig(flipped, left=False, right=False)), reverse=True)
    return max(0, roots[0] - roots[1] - roots[2] - roots[3])


def wootters_mp(rho, dps=50):
    """Wootters' concurrence of the 4x4 float matrix rho, taken as exact, at
    `dps` digits, where eigenvalue noise near zero is far below double
    precision."""
    import mpmath as mp

    with mp.workdps(dps):
        return float(_wootters_mp(_mp_matrix(rho)))


def terms_mp(p, t):
    """(c, ts) of exp(-i H t) = c I - i ts H at one time, at the working
    mpmath precision: cos/sin or cosh/sinh of the exact k of the float
    inputs, and k = 0 exact."""
    import mpmath as mp

    a, g, t = mp.mpf(p.a), mp.mpf(p.gamma), mp.mpf(t)
    k = g * g * (a - 1) * (a + 1) * (1 if p.family is Family.APT else -1)
    if k == 0:
        return mp.mpf(1), t
    w = mp.sqrt(abs(k))
    if k > 0:
        return mp.cos(w * t), mp.sin(w * t) / w
    return mp.cosh(w * t), mp.sinh(w * t) / w


def _propagator_mp(p, t):
    """exp(-i H t) = c I - i ts H at the working mpmath precision."""
    import mpmath as mp

    a, g = mp.mpf(p.a), mp.mpf(p.gamma)
    if p.family is Family.APT:
        h = g * mp.matrix([[a, 1j], [1j, -a]])
    else:
        h = g * mp.matrix([[-1j * a, 1], [1, 1j * a]])
    c, ts = terms_mp(p, t)
    return c * mp.eye(2) - 1j * ts * h


def evolve_mp(rho0, p1, p2, times, dps=40):
    """(C, N, rho) at each t of `times`, as float arrays and a (T, 4, 4)
    complex array, of the 4x4 float state rho0, taken as exact, under
    U1(t) (x) U2(t), at `dps` digits: N = Tr[U rho0 U^H], rho = U rho0 U^H / N
    and C is Wootters' concurrence of rho. Neither a factor of rho0 nor the
    local-filtering law is used."""
    import mpmath as mp

    conc, norms, states = [], [], []
    with mp.workdps(dps):
        r0 = _mp_matrix(rho0)
        for t in times:
            u1, u2 = _propagator_mp(p1, t), _propagator_mp(p2, t)
            u = mp.matrix(4, 4)
            for i in range(4):
                for j in range(4):
                    u[i, j] = u1[i // 2, j // 2] * u2[i % 2, j % 2]
            m = u * r0 * u.H
            n = mp.re(sum(m[i, i] for i in range(4)))
            conc.append(float(_wootters_mp(m / n)))
            norms.append(float(n))
            states.append([[complex(m[i, j] / n) for j in range(4)] for i in range(4)])
    return np.array(conc), np.array(norms), np.array(states)
