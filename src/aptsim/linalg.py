"""Pauli matrices, and Wootters' concurrence of a two-qubit state from any
factor rho = F F^H."""

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_YY = np.kron(SIGMA_Y, SIGMA_Y)


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
