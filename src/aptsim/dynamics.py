"""Two-qubit state evolution under the nonunitary propagator with trace
renormalization, and trajectory sampling.

One stacked kernel, evolve_pairs(), evolves one initial state under P qubit
pairs (p1, p2) over one time grid; run(), evolve_state() and
bell_concurrence_curve() are its P = 1 case, and the figure and sweep commands
call it once per chunk of whole curves. rho0 = F F^H is factored once by eigh,
which also checks that rho0 is a state; the default Bell state's factor is a
module constant, so it is neither validated nor factored again. Each column of
F, as a 2x2 block F_k, evolves as U1(t) F_k U2(t)^T over the whole grid at
once, from t = 0 at absolute time, with the propagator terms of each distinct
qubit taken once. The norm is N(t) = sum_k |U1 F_k U2^T|^2. C(rho0) comes from
the same F (linalg.wootters), and local filtering (Verstraete, Dehaene & De
Moor, PRA 64, 010101, 2001) with |det U| = 1 for traceless H gives C(t) =
C(rho0) / N(t): no eigensolver per sample, and no cancellation where the
state's entries grow large."""

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import propagator
from .linalg import wootters
from .model import AptParams, hamiltonian

NORM_FLOOR = 1e-300
# Largest time grid a spec accepts; the figure presets use at most 7,001 samples.
MAX_SAMPLES = 1_000_000
# eigh resolves eigenvalues to a few eps of the largest; below this they are noise
_RANK_RTOL = 1e-15


class InvalidStateError(ValueError):
    """A density matrix violates its invariants beyond tolerance."""


class DegenerateNormError(ArithmeticError):
    """Tr[U rho U+] underflowed: the state was entirely lost."""

    def __init__(self, t, norm):
        super().__init__(f"evolution norm underflowed at t={t}: {norm!r}")
        self.t = t
        self.norm = norm


class IdentityEvolution:
    """Marker for a qubit that does not evolve (single-qubit case)."""

    def __repr__(self):
        return "IdentityEvolution()"


IDENTITY = IdentityEvolution()


def bell_ket():
    """(|01> + |10>) / sqrt(2), with H = 0 and V = 1."""
    v = np.zeros(4, dtype=complex)
    v[1] = v[2] = 1.0 / np.sqrt(2.0)
    return v


def bell_state():
    """Density matrix of the entangled initial state (|01> + |10>)/sqrt(2)."""
    v = bell_ket()
    return np.outer(v, v.conj())


def maximally_mixed():
    return np.eye(4, dtype=complex) / 4.0


def _check(ok, message):
    """Raise InvalidStateError(message(i)) at the first False i of ok; a stack's names i."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise InvalidStateError(message(i) if ok.ndim == 0 else f"state {i}: {message(i)}")


def validate_density_matrix(rho, herm_tol=1e-12, trace_tol=1e-12, eig_floor=-1e-10):
    """Raise InvalidStateError unless rho, a 4x4 matrix or a (..., 4, 4) stack,
    holds valid two-qubit states; return the eigh (ascending eigenvalues,
    eigenvectors) of its Hermitian part, one call for the whole stack. A bad
    state of a stack is named by its index in the flattened stack."""
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise InvalidStateError(f"expected a 4x4 matrix, got shape {rho.shape}")
    herm = np.abs(rho - rho.conj().swapaxes(-2, -1))
    tr = rho.trace(axis1=-2, axis2=-1)
    # one test for the whole stack, which any nan or inf entry fails
    if not (herm.max() <= herm_tol and np.abs(tr - 1.0).max() <= trace_tol):
        _check(np.isfinite(rho).all(axis=(-2, -1)),
               lambda i: "density matrix has non-finite entries")
        herm = herm.max(axis=(-2, -1))
        _check(herm <= herm_tol, lambda i: f"not Hermitian: max deviation {herm.flat[i]:.3e}")
        _check(np.abs(tr - 1.0) <= trace_tol, lambda i: f"trace is {complex(tr.flat[i])}, expected 1")
    w, v = np.linalg.eigh((rho + rho.conj().swapaxes(-2, -1)) / 2.0)
    if w[..., 0].min() < eig_floor:
        _check(w[..., 0] >= eig_floor, lambda i: f"negative eigenvalue {w[..., 0].flat[i]:.3e}")
    return w, v


def rank_factor(rho, validate=True):
    """F with rho = F F^H, from the one eigh that validation makes; eigenvalues
    below _RANK_RTOL of the largest are cut. One state gives (4, r); a stack
    gives (..., 4, 4) with its cut columns zero, so that no state's factor
    depends on the others."""
    rho = np.asarray(rho, dtype=complex)
    w, v = (validate_density_matrix(rho) if validate
            else np.linalg.eigh((rho + rho.conj().swapaxes(-2, -1)) / 2.0))
    keep = w > _RANK_RTOL * w[..., -1:]
    if rho.ndim == 2:
        return v[:, keep] * np.sqrt(w[keep])
    return v * np.sqrt(np.where(keep, w, 0.0))[..., None, :]


# eigh is deterministic, so this is the factor rank_factor(bell_state()) gives
_BELL_FACTOR = rank_factor(bell_state())
_BELL_FACTOR.flags.writeable = False


@dataclass(frozen=True)
class EvolutionSpec:
    """One trajectory request: qubit parameters, grid, and initial state
    (defaults to the Bell state)."""
    p1: AptParams
    p2: Union[AptParams, IdentityEvolution]
    t_max: float
    dt: float = 0.01
    initial: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("t_max", "dt"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_max < 0:
            raise ValueError(f"t_max must be >= 0, got {self.t_max}")
        samples = self.t_max / self.dt + 1.0  # a float: no huge or infinite int
        if not samples <= MAX_SAMPLES:
            raise ValueError(f"dt = {self.dt} gives {samples:.3g} samples up to "
                             f"t_max = {self.t_max}, more than {MAX_SAMPLES}")

    def time_grid(self):
        n = int(np.floor(self.t_max / self.dt + 1e-9))
        return np.arange(n + 1) * self.dt


@dataclass
class Trajectory:
    times: np.ndarray
    concurrence: np.ndarray
    unnormalized_norm: np.ndarray
    states: Optional[np.ndarray] = None  # (T, 4, 4), with keep_states


def _terms(p, times):
    """(c, ts, H) of exp(-i H t) = c I - i ts H; H = 0 for a frozen qubit."""
    if isinstance(p, IdentityEvolution):
        return np.ones(times.size), np.zeros(times.size), np.zeros((2, 2))
    return (*propagator.propagator_terms(p, times), hamiltonian(p))


def evolve_pairs(pairs, times, initial=None, keep_states=False, norm_floor=NORM_FLOOR):
    """Concurrence and unnormalized norm, each (P, T), and with keep_states
    the (P, T, 4, 4) states, of `initial` (default: the Bell state) under
    each (p1, p2) of `pairs` over `times`; p2 may be an IdentityEvolution
    marker. U1 F U2^T expands over {I, H1} x {I, H2}: one real
    (P, T, 4) x (P, 4, 8r) product of scalar terms with four constant
    complex blocks per pair seen as floats. A norm that is not finite or
    below norm_floor raises OverflowError or DegenerateNormError naming the
    first bad t of the first pair that has one."""
    factor = _BELL_FACTOR if initial is None else rank_factor(initial)
    times = np.asarray(times, dtype=float).reshape(-1)
    f = factor.T.reshape(-1, 2, 2)  # rho0 = sum_k vec(F_k) vec(F_k)^H
    terms = np.empty((len(pairs), times.size, 4))
    basis = np.empty((len(pairs), 4) + f.shape, dtype=complex)
    qubits = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for i, pair in enumerate(pairs):
            for p in pair:
                if p not in qubits:
                    qubits[p] = _terms(p, times)
            (c1, s1, h1), (c2, s2, h2) = qubits[pair[0]], qubits[pair[1]]
            for k, (x, y) in enumerate(((c1, c2), (c1, s2), (s1, c2), (s1, s2))):
                np.multiply(x, y, out=terms[i, :, k])
            fh2 = f @ h2.T
            basis[i] = f, -1j * fh2, -1j * (h1 @ f), -(h1 @ fh2)
        # (re, im) pairs of the (P, T, 4r) blocks
        flat = terms @ basis.reshape(len(pairs), 4, -1).view(float)
        norms = np.einsum("pti,pti->pt", flat, flat)
    healthy = np.isfinite(norms) & (norms >= norm_floor)
    if not healthy.all():
        i = int(np.argmin(healthy))  # row-major: the first bad pair, then its first t
        t, norm = float(times[i % times.size]), float(norms.flat[i])
        if np.isfinite(norm):
            raise DegenerateNormError(t, norm)
        raise OverflowError(f"evolution norm is not finite at t={t}: {norm!r}")
    conc = np.minimum(wootters(factor)[0] / norms, 1.0)

    states = None
    if keep_states:
        kets = flat.view(complex).reshape(len(pairs), times.size, -1, 4)
        m = kets.swapaxes(-1, -2) @ kets.conj()
        states = (m + m.conj().swapaxes(-1, -2)) / (2.0 * norms[..., None, None])
    return conc, norms, states


def evolve_state(initial, p1, p2, t, norm_floor=NORM_FLOOR):
    """rho(t) = U rho(0) U+ / Tr[U rho(0) U+], re-symmetrized.

    p2 may be an IdentityEvolution marker. Raises DegenerateNormError when
    the trace denominator falls below norm_floor, OverflowError when it is
    not finite.
    """
    return evolve_pairs([(p1, p2)], [t], initial, True, norm_floor)[2][0, 0]


def run(spec, keep_states=False):
    """Sample concurrence and unnormalized norm over the grid of spec.

    DegenerateNormError or OverflowError names the first bad sample.
    """
    times = spec.time_grid()
    conc, norms, states = evolve_pairs([(spec.p1, spec.p2)], times, spec.initial,
                                       keep_states)
    return Trajectory(times=times, concurrence=conc[0], unnormalized_norm=norms[0],
                      states=None if states is None else states[0])


def bell_concurrence_curve(p1, p2, times):
    """Concurrence of the Bell-initial trajectory over any array of times;
    p2 may be an IdentityEvolution marker, and either family is allowed."""
    return evolve_pairs([(p1, p2)], times)[0][0]
