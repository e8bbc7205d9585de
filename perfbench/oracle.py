"""Reference physics for the output checks, built without aptsim.

The propagator is scipy's `expm` of a Hamiltonian assembled here. For a
state rho = A A^H evolved by a product of 2x2 propagators, U = U1 (x) U2,
the unnormalized norm is ||U A||_F^2 and Wootters' concurrence obeys the
local-filtering law (Verstraete, Dehaene & De Moor, PRA 64, 010101, 2001)

    C(t) = |det U1| |det U2| C(rho0) / ||U A||_F^2,

with |det U| = |exp(-i t tr H)| by Jacobi's formula. C(rho0) is Wootters'
concurrence (PRL 80, 2245, 1998) from the singular values of
A^H (sy x sy) A^*, which are the square roots of the eigenvalues of
rho rho~ without squaring first. Both forms stay accurate where the
evolved state's own entries lose digits to cancellation (large norms in
the broken regime).

Wave-plate matrices are the Jones matrices documented in the README.
"""

import numpy as np
from scipy.linalg import expm

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
YY = np.kron(SY, SY)
BELL = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def hamiltonian(a, family="apt", gamma=1.0):
    """APT: gamma (i sx + a sz); PT: gamma (sx - i a sz)."""
    if family == "apt":
        return gamma * (1j * SX + a * SZ)
    return gamma * (SX - 1j * a * SZ)


def propagators(h, times):
    """exp(-i H t) for every t, shape (T, 2, 2); None means no evolution."""
    times = np.asarray(times, dtype=float)
    if h is None:
        return np.broadcast_to(np.eye(2, dtype=complex), (times.size, 2, 2))
    return expm(-1j * times[:, None, None] * h)


def _det_modulus(h, times):
    if h is None:
        return np.ones(np.size(times))
    return np.abs(np.exp(-1j * np.asarray(times, dtype=float) * np.trace(h)))


def wootters(factor):
    """Concurrence of rho = factor factor^H (factor is 4 x k, k >= 1)."""
    factor = np.asarray(factor, dtype=complex)
    m = factor.conj().T @ YY @ factor.conj()
    r = np.sort(np.linalg.svd(m, compute_uv=False))[::-1]
    r = np.concatenate([r, np.zeros(4)])[:4]
    return max(0.0, float(r[0] - r[1] - r[2] - r[3]))


def evolve(h1, h2, factor, times):
    """(concurrence, unnormalized norm) over times for rho0 = factor factor^H."""
    u1, u2 = propagators(h1, times), propagators(h2, times)
    u = np.einsum("tij,tkl->tikjl", u1, u2).reshape(-1, 4, 4)
    norm = np.sum(np.abs(u @ factor) ** 2, axis=(1, 2))
    scale = _det_modulus(h1, times) * _det_modulus(h2, times)
    return wootters(factor) * scale / norm, norm


def bell_curve(h1, h2, times):
    return evolve(h1, h2, BELL[:, None], times)


def hwp(deg):
    c, s = np.cos(2.0 * np.deg2rad(deg)), np.sin(2.0 * np.deg2rad(deg))
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp(deg):
    c, s = np.cos(np.deg2rad(deg)), np.sin(np.deg2rad(deg))
    return np.array([[c * c + 1j * s * s, (1.0 - 1j) * s * c],
                     [(1.0 - 1j) * s * c, s * s + 1j * c * c]])


def plate_product(theta1, theta2, xi1, xi2):
    """Second string(theta2) . loss(xi1, xi2) . first string(theta1)."""
    first = hwp(0.0) @ hwp(22.5) @ qwp(45.0) @ hwp(theta1) @ qwp(45.0)
    second = qwp(45.0) @ hwp(theta2) @ qwp(45.0) @ hwp(67.5)
    loss = np.array([[0.0, np.sin(2.0 * np.deg2rad(xi1))],
                     [np.sin(2.0 * np.deg2rad(xi2)), 0.0]], dtype=complex)
    return second @ loss @ first
