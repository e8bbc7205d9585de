"""Dense complex-matrix constants and the Kronecker product for 2x2 and
4x4 work."""

import numpy as np

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def kron(a, b):
    """Kronecker product; block (i, j) of the result equals a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
