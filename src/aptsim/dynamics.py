"""Two-qubit state evolution under the nonunitary propagator with trace
renormalization, and trajectory sampling.

One stacked kernel, evolve_pairs(), evolves one initial state under P qubit
pairs (p1, p2) over one time grid, such as time_grid() validates and returns;
the CLI commands call it once per block of their curves, and run() is its
P = 1 case over time_grid(spec.t_max, spec.dt). The kernel takes rho0 as a
factor F, rho0 = F F^H, checked by _unit_trace, the one factor test, which
rank_factor and draw_counts apply too; a density matrix enters as
rank_factor(rho0), and run() so factors spec.initial. F drops its zero
columns; the Bell state's factor and its concurrence are module constants.
Each column of F, as a 2x2 block F_k, evolves as U1(t) F_k U2(t)^T over the
whole grid at once, from t = 0 at absolute time, with the propagator terms
of each distinct qubit taken once; a qubit that does not evolve is
propagator.IDENTITY, gamma = 0, whose terms are those of H = 0. The norm
is N(t) = sum_k |U1 F_k U2^T|^2. C(rho0) comes from the same F
(linalg.wootters), and local filtering (Verstraete, Dehaene & De Moor,
PRA 64, 010101, 2001) with |det U| = 1 for traceless H gives
C(t) = C(rho0) / N(t): no eigensolver per sample, and no cancellation
where the state's entries grow large. The evolved states are handed out as
their factor, rho(t) = F(t) F(t)^H / N(t), never as 4x4 matrices: the
tomography chain counts, fits against and scores the truth on that factor."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import propagator
from .linalg import _read_only, wootters
from .propagator import AptParams, hamiltonian

NORM_FLOOR = 1e-300
# largest Hermiticity deviation of a matrix, and trace deviation of a matrix or a factor
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
# Largest time grid a spec accepts; the figure presets use at most 7,001 samples.
MAX_SAMPLES = 1_000_000
# eigh resolves eigenvalues to a few eps of the largest; below this they are noise
_RANK_RTOL = 1e-15


class InvalidStateError(ValueError):
    """A density matrix or a factor is not a state within tolerance."""


class DegenerateNormError(ArithmeticError):
    """Tr[U rho U+] underflowed: the state was entirely lost."""

    def __init__(self, t, norm):
        super().__init__(f"evolution norm underflowed at t={t}: {norm!r}")
        self.t = t
        self.norm = norm


def bell_state():
    """Density matrix of the Bell state (|01> + |10>)/sqrt(2), with H = 0 and V = 1."""
    v = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(v, v)


def _check(ok, message, noun="state"):
    """Raise InvalidStateError(message(i)) at the first False i of ok; a stack's names `noun i`."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise InvalidStateError(message(i) if ok.ndim == 0 else f"{noun} {i}: {message(i)}")


def _unit_trace(f):
    """Each factor's sum |F|^2, alike alone and stacked, and whether it is 1 within TRACE_TOL."""
    trace = np.square(np.ascontiguousarray(f).view(float)).sum(axis=(-2, -1))
    return trace, np.abs(trace - 1.0) <= TRACE_TOL


def rank_factor(rho):
    """F with F F^H the Hermitian part of rho: (4, 4) for one 4x4 state and
    (..., 4, 4) for a stack, from one eigh. The columns of eigenvalues below
    _RANK_RTOL of the largest are zero, so no state's factor depends on the
    others. InvalidStateError names the first matrix (by its index in the
    flattened stack) that is not a state or whose factor fails _unit_trace."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise InvalidStateError(f"expected a 4x4 matrix, got shape {rho.shape}")
    herm = np.abs(rho - rho.conj().swapaxes(-2, -1))
    tr = rho.trace(axis1=-2, axis2=-1)
    # one test for the whole stack, which any nan or inf entry fails
    if not (herm.max(initial=0.0) <= HERM_TOL and np.abs(tr - 1.0).max(initial=0.0) <= TRACE_TOL):
        _check(np.isfinite(rho).all(axis=(-2, -1)), lambda i: "density matrix has non-finite entries")
        herm = herm.max(axis=(-2, -1))
        _check(herm <= HERM_TOL, lambda i: f"not Hermitian: max deviation {herm.flat[i]:.3e}")
        _check(np.abs(tr - 1.0) <= TRACE_TOL, lambda i: f"trace is {complex(tr.flat[i])}, expected 1")
    w, v = np.linalg.eigh((rho + rho.conj().swapaxes(-2, -1)) / 2.0)
    factor = v * np.sqrt(np.where(w > _RANK_RTOL * w[..., -1:], w, 0.0))[..., None, :]
    trace, ok = _unit_trace(factor)
    _check(ok, lambda i: f"negative eigenvalue {w[..., 0].flat[i]:.3e}" if w[..., 0].flat[i] < 0
           else f"trace is {complex(trace.flat[i])}, expected 1")  # rounded past the bound
    return factor


# eigh is deterministic, so this is the factor rank_factor(bell_state()) gives,
# and C(rho0) is the one evolve_pairs would take from it
_BELL_FACTOR = _read_only(rank_factor(bell_state()))
_BELL_CONCURRENCE = wootters(_BELL_FACTOR[:, _BELL_FACTOR.any(axis=0)])[0]


def _samples(t_max, dt):
    """The number of samples of the grid 0, dt, ..., t_max; ValueError unless
    t_max and dt are finite, dt > 0, t_max >= 0 and it is at most MAX_SAMPLES."""
    for name, value in (("t_max", t_max), ("dt", dt)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    samples = t_max / dt + 1.0  # a float: no huge or infinite int
    if not samples <= MAX_SAMPLES:
        raise ValueError(f"dt = {dt} gives {samples:.3g} samples up to "
                         f"t_max = {t_max}, more than {MAX_SAMPLES}")
    return int(np.floor(t_max / dt + 1e-9)) + 1


def time_grid(t_max, dt):
    """The validated time grid 0, dt, ..., t_max (see _samples)."""
    return np.arange(_samples(t_max, dt)) * dt


@dataclass(frozen=True)
class EvolutionSpec:
    """One trajectory request: qubit parameters, grid, and initial density
    matrix (defaults to the Bell state)."""
    p1: AptParams
    p2: AptParams
    t_max: float
    dt: float = 0.01
    initial: Optional[np.ndarray] = None

    def __post_init__(self):
        _samples(self.t_max, self.dt)


@dataclass
class Trajectory:
    times: np.ndarray
    concurrence: np.ndarray
    unnormalized_norm: np.ndarray


def evolve_pairs(pairs, times, initial=None):
    """Concurrence and unnormalized norm N, each (P, T), and the evolved
    factor F, (P, T, 4, r) with rho(t) = F F^H / N(t), of rho0 = F0 F0^H for
    the (4, r) factor F0 = `initial` (default: the Bell state's) under each
    (p1, p2) of `pairs` over `times`; InvalidStateError unless F0 is (4, r)
    with sum |F0|^2 within TRACE_TOL of 1, so finite. U1 F U2^T
    expands over {I, H1} x {I, H2}: one real (P, T, 4) x (P, 4, 8r) product
    of scalar terms with four constant complex blocks per pair seen as
    floats; F is a view of that product, not a copy. A norm that is not
    finite or below NORM_FLOOR raises OverflowError or DegenerateNormError
    naming the first bad t of the first pair that has one."""
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 1:  # matmul's gemv for one row rounds unlike its gemm: take two
        return tuple(x[:, :1] for x in evolve_pairs(pairs, np.repeat(times, 2), initial))
    factor = _BELL_FACTOR if initial is None else np.asarray(initial, dtype=complex)
    trace, ok = _unit_trace(factor.reshape(1, -1))  # one row: a sum to name for any shape
    if factor.ndim != 2 or len(factor) != 4 or not ok:
        raise InvalidStateError(f"expected a (4, r) factor with sum |F|^2 = 1, got {factor.shape}, "
                                f"sum {float(trace)!r}: pass rank_factor(rho) for a matrix rho")
    factor = factor[:, factor.any(axis=0)]  # the work grows with the rank r
    f = factor.T.reshape(-1, 2, 2)  # rho0 = sum_k vec(F_k) vec(F_k)^H
    terms = np.empty((len(pairs), times.size, 4))
    basis = np.empty((len(pairs), 4) + f.shape, dtype=complex)
    qubits = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for i, pair in enumerate(pairs):
            for p in pair:
                if p not in qubits:
                    qubits[p] = (*propagator.propagator_terms(p, times), hamiltonian(p))
            (c1, s1, h1), (c2, s2, h2) = qubits[pair[0]], qubits[pair[1]]
            for k, (x, y) in enumerate(((c1, c2), (c1, s2), (s1, c2), (s1, s2))):
                np.multiply(x, y, out=terms[i, :, k])
            fh2 = f @ h2.T
            basis[i] = f, -1j * fh2, -1j * (h1 @ f), -(h1 @ fh2)
        # (re, im) pairs of the (P, T, 4r) blocks
        flat = terms @ basis.reshape(len(pairs), 4, f.size).view(float)
        norms = np.einsum("pti,pti->pt", flat, flat)
    healthy = np.isfinite(norms) & (norms >= NORM_FLOOR)
    if not healthy.all():
        i = int(np.argmin(healthy))  # row-major: the first bad pair, then its first t
        t, norm = float(times[i % times.size]), float(norms.flat[i])
        if np.isfinite(norm):
            raise DegenerateNormError(t, norm)
        raise OverflowError(f"evolution norm is not finite at t={t}: {norm!r}")
    initial_concurrence = _BELL_CONCURRENCE if initial is None else wootters(factor)[0]
    conc = np.minimum(initial_concurrence / norms, 1.0)
    # the blocks' rows vec(U1 F_k U2^T) are the columns of the evolved factor
    kets = flat.view(complex).reshape(len(pairs), times.size, len(f), 4)
    return conc, norms, kets.swapaxes(-1, -2)


def run(spec):
    """Concurrence and unnormalized norm of rank_factor(spec.initial) over spec's grid,
    whose first bad sample DegenerateNormError or OverflowError names."""
    times = time_grid(spec.t_max, spec.dt)
    initial = None if spec.initial is None else rank_factor(spec.initial)
    conc, norms, _ = evolve_pairs([(spec.p1, spec.p2)], times, initial)
    return Trajectory(times=times, concurrence=conc[0], unnormalized_norm=norms[0])
