"""Simulator for two-qubit entanglement dynamics under anti-PT-symmetric
non-Hermitian Hamiltonians, with the optical decomposition of the
nonunitary propagator and a tomography measurement chain."""

from .dynamics import (DegenerateNormError, EvolutionSpec, InvalidStateError,
                       Trajectory, bell_state, evolve_pairs, rank_factor, run,
                       time_grid)
from .entanglement import (analytic_concurrence_identical,
                           concurrence_minimum_identical, concurrence_period,
                           ep_concurrence)
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, uhlmann, wootters
from .optics import (DecompositionError, DecompositionParams, decompose_grid,
                     hwp, loss_matrix, qwp, reconstruct)
from .propagator import (IDENTITY, AptParams, Family, Regime, classify,
                         hamiltonian, propagators)
from .tomography import MleConvergenceError, draw_counts, mle_fit

__version__ = "0.1.0"
