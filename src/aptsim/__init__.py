"""Simulator for two-qubit entanglement dynamics under anti-PT-symmetric
non-Hermitian Hamiltonians, with the optical decomposition of the
nonunitary propagator and a tomography measurement chain."""

from .dynamics import (IDENTITY, DegenerateNormError, EvolutionSpec,
                       IdentityEvolution, InvalidStateError, Trajectory,
                       bell_ket, bell_state, evolve_pairs, maximally_mixed,
                       run, time_grid, validate_density_matrix)
from .entanglement import (analytic_concurrence_identical, concurrence,
                           concurrence_minimum_identical, concurrence_period,
                           ep_concurrence)
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z
from .model import AptParams, Family, Regime, classify, hamiltonian
from .optics import (BeamPaths, DecompositionError, DecompositionParams,
                     bd_circuit, decompose_grid, hwp, loss_matrix, qwp,
                     reconstruct)
from .propagator import propagators
from .tomography import (MleConvergenceError, ProjectionBasis, basis_set,
                         draw_counts, fidelity, mle_fit)

__version__ = "0.1.0"
