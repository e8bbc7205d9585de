"""Pauli matrices, and two measures of two-qubit states on any factor
rho = F F^H: Wootters' concurrence and Uhlmann's fidelity, neither of which
validates, reshapes or factors its input. Every module-level array of the
package is read-only, so that no caller's in-place write changes a kernel."""

import numpy as np


def _read_only(a):
    """The array a, marked read-only."""
    a.flags.writeable = False
    return a


SIGMA_X = _read_only(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
SIGMA_Y = _read_only(np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex))
SIGMA_Z = _read_only(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))

_YY = _read_only(np.kron(SIGMA_Y, SIGMA_Y))


def wootters(f):
    """(C, s) for rho = F F^H, F of shape (..., 4, r): s are the singular
    values, descending, of the symmetric r x r matrix F^T (sy x sy) F, and
    C = max(0, s1 - s2 - s3 - s4) clamped to 1 (Wootters, PRL 80, 2245, 1998,
    in the form of Uhlmann, PRA 62, 032307, 2000), one per state of a stack
    from one SVD. The s^2 are the eigenvalues of rho (sy x sy) rho* (sy x sy),
    but no square root of a near-zero eigenvalue is taken, so a rank-deficient
    rho loses no digits."""
    s = np.linalg.svd(f.swapaxes(-2, -1) @ _YY @ f, compute_uv=False)  # r = 0: empty
    return (s[..., :1].sum(axis=-1) - s[..., 1:].sum(axis=-1)).clip(0.0, 1.0), s


def uhlmann(a, b):
    """Uhlmann fidelity (Rep. Math. Phys. 9, 273, 1976) of A A^H and B B^H,
    factors of shape (..., 4, r), one per pair of leading axes: (sum of the
    singular values of A^H B)^2 clamped to [0, 1]. No square root is taken,
    so a rank-1 A A^H = |psi><psi| gives <psi|B B^H|psi> to rounding."""
    s = np.linalg.svd(a.conj().swapaxes(-2, -1) @ b, compute_uv=False)
    return (s.sum(axis=-1) ** 2).clip(0.0, 1.0)
