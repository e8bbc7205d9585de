"""Machine-speed calibration for the end-to-end timings.

On shared cores the speed of this kind of work drifts by up to 1.8x
within a minute: CPU time tracks wall time, so it is contention, not
descheduling, and no statistic inside a 20-second run removes it. A
fixed kernel of the same kind of work as aptsim's (2x2 Kronecker
products, 4x4 products and `eigh` through numpy, without aptsim) is
timed right before and right after every timed operation. Each timing
is then rescaled to a machine on which the kernel takes `REFERENCE_S`.
"""

import time

import numpy as np

REFERENCE_S = 0.01
_ITERATIONS = 250
_A = np.array([[1.0, 2.0j], [3.0, 4.0]])
_B = np.array([[0.5, 1.0], [1.0j, 2.0]])


def calibrate():
    """Seconds the fixed kernel takes now."""
    began = time.perf_counter()
    for _ in range(_ITERATIONS):
        k = np.kron(_A, _B)
        m = k @ k.conj().T
        np.linalg.eigh(m)
        np.trace(m @ m)
    return time.perf_counter() - began


def normalize(seconds, calibration_s):
    """A duration measured while the kernel took `calibration_s`, rescaled
    to the reference machine."""
    return seconds * REFERENCE_S / calibration_s
