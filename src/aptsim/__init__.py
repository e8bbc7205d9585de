"""Simulator for two-qubit entanglement dynamics under anti-PT-symmetric
non-Hermitian Hamiltonians, with the optical decomposition of the
nonunitary propagator and a tomography measurement chain."""

from .dynamics import (IDENTITY, DegenerateNormError, EvolutionSpec,
                       IdentityEvolution, InvalidStateError, Trajectory,
                       bell_ket, bell_state, bell_concurrence_curve,
                       evolve_pairs, evolve_state, maximally_mixed, run,
                       validate_density_matrix)
from .entanglement import (ConcurrenceReport, analytic_concurrence_identical,
                           concurrence, concurrence_minimum_identical,
                           concurrence_period, ep_concurrence)
from .linalg import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z
from .model import AptParams, Family, Regime, classify, hamiltonian
from .optics import (BeamPaths, DecompositionError, DecompositionParams,
                     PlateKind, WavePlate, bd_circuit, decompose,
                     decompose_grid, hwp, loss_matrix, qwp, reconstruct,
                     waveplate_matrix)
from .propagator import closed_form
from .tomography import (CountRecord, MleConvergenceError, MleResult,
                         ProjectionBasis, basis_set, draw_counts, fidelity, mle_fit,
                         mle_reconstruct, mle_reconstruct_batch, simulate_counts)

__version__ = "0.1.0"
