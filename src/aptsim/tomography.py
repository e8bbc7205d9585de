"""Measurement chain: projection onto the 16 two-photon bases of James,
Kwiat, Munro & White (PRA 64, 052312, 2001) with Poisson count
statistics, and maximum-likelihood reconstruction of the density matrix.

The fit minimizes f(rho) = sum_b [N_b p_b - n_b log p_b], p_b = <b|rho|b>,
the negative Poisson log-likelihood up to a constant, by accelerated
projected gradient (Shang, Zhang & Ng, PRA 95, 062336, 2017): a gradient
step, then the Euclidean projection onto the density matrices, with a
backtracking step size, Nesterov momentum (k - 1) / (k + 2) and a restart
whenever f rises. It starts from projected linear inversion. The time
points of a batch are stacked only so that numpy works on all of them at
once: each keeps its own step size, momentum, stopping test and iteration
count, so its estimate does not depend on the batch.
"""

import csv
import io
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import validate_density_matrix

BASIS_LABELS = ("HH", "HV", "VV", "VH", "RH", "RV", "DV", "DH",
                "DR", "DD", "RD", "HD", "VD", "VL", "HL", "RL")

_SINGLE_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "R": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
    "L": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
}

# (QWP, HWP) setting angles, degrees, for each single-photon projection
_SETTINGS = {
    "H": (0.0, 0.0),
    "V": (0.0, 45.0),
    "D": (45.0, 22.5),
    "R": (0.0, 22.5),
    "L": (45.0, 0.0),
}

DEFAULT_TOTAL = 10000
DEFAULT_MAX_ITER = 100000

# row b: the two-photon ket of BASIS_LABELS[b]
_KETS = np.array([np.kron(_SINGLE_KETS[label[0]], _SINGLE_KETS[label[1]])
                  for label in BASIS_LABELS])
# row b: |b><b| row-major, as interleaved (re, im) floats. For Hermitian
# rho, p_b = tr(|b><b| rho) is the real dot product of the two rows, and
# sum_b w_b |b><b| is w times this table. Both products, and linear
# inversion, are written as broadcast sums over a fixed axis rather than
# BLAS calls, whose summation order may change with the number of rows:
# that keeps every point's arithmetic independent of its batch.
_OUTER = np.einsum("bi,bj->bij", _KETS, _KETS.conj()).reshape(16, 16)
_PROJECTORS = _OUTER.view(float)
_PROJECTORS_T = np.ascontiguousarray(_PROJECTORS.T)
_INVERSION = np.linalg.inv(_OUTER.conj())  # probabilities -> vec(rho)

# APG constants. The objective is divided by sum_b N_b, so a first step of
# 1 suits any count total. A point stops after _QUIET accepted steps in a
# row that each gain less than _TOL in these units: 1.6e-7 in
# log-likelihood at 10,000 counts per basis.
_SHRINK = 0.3
_GROW = 1.1
_TOL = 1e-12
_QUIET = 3
_ONE_TO_FOUR = np.arange(1.0, 5.0)
# p_b is floored here before any logarithm or division, in the fit and in
# the reported log-likelihood
_P_FLOOR = 1e-14


@dataclass(frozen=True)
class ProjectionBasis:
    label: str
    ket: np.ndarray
    settings: tuple  # ((qwp1, hwp1), (qwp2, hwp2)) in degrees


@dataclass(frozen=True)
class CountRecord:
    basis: str
    expected: float
    observed: int
    total_per_basis: int


class MleConvergenceError(ArithmeticError):
    """The likelihood optimization hit its iteration cap; `points` holds
    the batch indices of the points that did not converge."""

    def __init__(self, message, points=()):
        super().__init__(message)
        self.points = tuple(points)


@dataclass
class MleResult:
    rho_hat: np.ndarray
    log_likelihood: float
    iterations: int
    fidelity_vs_truth: Optional[float] = None


_BASES = tuple(ProjectionBasis(label, ket, (_SETTINGS[label[0]], _SETTINGS[label[1]]))
               for label, ket in zip(BASIS_LABELS, _KETS))


def basis_set():
    """The 16 projection bases in canonical order."""
    return list(_BASES)


def _probabilities(rho):
    """(P,16) probabilities <b|rho|b> of a (P,4,4) stack of Hermitian matrices."""
    flat = np.ascontiguousarray(rho, dtype=complex).view(float).reshape(-1, 1, 32)
    return (flat * _PROJECTORS).sum(axis=2)


def simulate_counts(rho, total=DEFAULT_TOTAL, seed=0, noiseless=False):
    """Per-basis expected and observed counts for the state rho.

    observed ~ Poisson(expected), drawn in basis order from a generator
    seeded with `seed` (deterministic), or round(expected) in noiseless mode.
    """
    if total <= 0:
        raise ValueError(f"total must be > 0, got {total}")
    validate_density_matrix(rho)
    expected = np.clip(_probabilities(rho)[0] * total, 0.0, total)
    if noiseless:
        observed = np.rint(expected)
    else:
        observed = np.random.default_rng(seed).poisson(expected)
    return [CountRecord(label, float(e), int(o), int(total))
            for label, e, o in zip(BASIS_LABELS, expected, observed)]


def _project(m):
    """Euclidean projection of a (P,4,4) Hermitian stack onto the density
    matrices: the eigenvalues go onto the probability simplex, shifted by
    the largest (cumsum_k - 1) / k of their descending order (Duchi et al.,
    ICML 2008), and the eigenvectors stay."""
    w, v = np.linalg.eigh(m)
    shift = ((np.cumsum(w[:, ::-1], axis=1) - 1.0) / _ONE_TO_FOUR).max(axis=1)
    x = np.maximum(w - shift[:, None], 0.0)
    return (v * x[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _objective(p, n, big_n):
    return (big_n * p - n * np.log(np.maximum(p, _P_FLOOR))).sum(axis=1)


def _weights(p, n, big_n):
    """df/dp_b; the gradient is sum_b w_b |b><b|."""
    return big_n - n / np.maximum(p, _P_FLOOR)


def _gradient(w):
    return (w[:, None, :] * _PROJECTORS_T).sum(axis=2).view(complex).reshape(-1, 4, 4)


def _apg(n, big_n, rho, max_iter):
    """Minimize f over each row of the (P,4,4) start stack `rho`.

    Returns the estimates, each row's accepted steps, and which rows met
    the stopping test within max_iter steps. Rows that finish leave the
    working arrays, so later passes cost only what is still running.
    """
    out, iterations = rho.copy(), np.zeros(len(rho), dtype=int)
    converged = np.zeros(len(rho), dtype=bool)
    rows = np.arange(len(rho))
    p = _probabilities(rho)
    f = _objective(p, n, big_n)
    x, x_prev, p_prev = rho, rho, p
    y, p_y, f_y, w_y = rho, p, f, _weights(p, n, big_n)
    step = np.ones(len(rho))
    steps, momentum, quiet = (np.zeros(len(rho), dtype=int) for _ in range(3))
    while rows.size:
        z = _project(y - step[:, None, None] * _gradient(w_y))
        p_z = _probabilities(z)
        f_z = _objective(p_z, n, big_n)
        d = (z - y).view(float).reshape(-1, 32)
        ok = f_z <= (f_y + (w_y * (p_z - p_y)).sum(axis=1)
                     + np.einsum("ij,ij->i", d, d) / (2.0 * step) + _TOL)
        # a step that raises f under momentum is dropped, and the next one
        # starts again from x without momentum
        take = ok & ((f_z <= f) | (momentum == 0))
        steps += ok
        quiet = np.where(take, (f - f_z <= _TOL) * (quiet + 1), quiet)
        momentum = np.where(ok, (momentum + 1) * take, momentum)
        x_prev = np.where(take[:, None, None], x, x_prev)
        x = np.where(take[:, None, None], z, x)
        p_prev = np.where(take[:, None], p, p_prev)
        p = np.where(take[:, None], p_z, p)
        f = np.where(take, f_z, f)
        m = np.where(ok, (momentum - 1.0) / (momentum + 2.0), 0.0).clip(0.0)
        # nor does momentum carry y out of the domain of the logarithm
        inside = ((p + m[:, None] * (p - p_prev) > _P_FLOOR) | (n == 0.0)).all(axis=1)
        m, momentum = m * inside, momentum * inside
        y = np.where(ok[:, None, None], x + m[:, None, None] * (x - x_prev), y)
        p_y = np.where(ok[:, None], p + m[:, None] * (p - p_prev), p_y)
        f_y = _objective(p_y, n, big_n)
        w_y = _weights(p_y, n, big_n)
        step = step * np.where(ok, _GROW, _SHRINK)

        done = (quiet >= _QUIET) | (steps >= max_iter)
        if done.any():
            out[rows[done]] = x[done]
            iterations[rows[done]] = steps[done]
            converged[rows[done]] = quiet[done] >= _QUIET
            keep = ~done
            (rows, x, x_prev, p, p_prev, f, y, p_y, f_y, w_y, step, steps,
             momentum, quiet, n, big_n) = (v[keep] for v in (
                 rows, x, x_prev, p, p_prev, f, y, p_y, f_y, w_y, step, steps,
                 momentum, quiet, n, big_n))
    return out, iterations, converged


def mle_reconstruct_batch(count_sets, truths=None, max_iter=DEFAULT_MAX_ITER):
    """Maximum-likelihood state estimates for a sequence of count sets,
    fitted together; result i depends on count_sets[i] alone.

    A point converges when three accepted APG steps in a row each improve
    its log-likelihood by less than 1e-12 * sum_b N_b. `iterations` counts
    the steps its backtracking test accepted, momentum restarts included.
    Raises MleConvergenceError, naming the points, if any has not converged
    after max_iter steps. When `truths` is given, each result carries the
    fidelity against its truth.
    """
    observed, totals = np.zeros((2, len(count_sets), 16))
    index = {label: b for b, label in enumerate(BASIS_LABELS)}
    for i, counts in enumerate(count_sets):
        missing = set(BASIS_LABELS) - {record.basis for record in counts}
        if missing:
            raise ValueError(
                f"count set is not informationally complete, missing {sorted(missing)}")
        for record in counts:
            # repeated bases add up: the likelihood only sees the sums
            observed[i, index[record.basis]] += record.observed
            totals[i, index[record.basis]] += record.total_per_basis
    if np.any(totals <= 0):
        raise ValueError("total_per_basis must be > 0 for every record")

    scale = totals.sum(axis=1, keepdims=True)
    linear = ((observed / totals)[:, None, :] * _INVERSION).sum(axis=2).reshape(-1, 4, 4)
    start = _project((linear + linear.conj().transpose(0, 2, 1)) / 2.0)
    rho, steps, converged = _apg(observed / scale, totals / scale, start, max_iter)
    stuck = np.flatnonzero(~converged)
    if stuck.size:
        raise MleConvergenceError(
            f"no convergence within {max_iter} iterations at points {stuck.tolist()}",
            stuck.tolist())

    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2.0
    mus = totals * np.maximum(_probabilities(rho), _P_FLOOR)
    log_likelihood = np.sum(observed * np.log(mus) - mus, axis=1)
    truths = [None] * len(rho) if truths is None else truths
    return [MleResult(r, float(ll), int(k), None if truth is None else fidelity(truth, r))
            for r, ll, k, truth in zip(rho, log_likelihood, steps, truths)]


def mle_reconstruct(counts, truth=None, max_iter=DEFAULT_MAX_ITER):
    """Maximum-likelihood state estimate from one count set: the one-point
    case of mle_reconstruct_batch."""
    return mle_reconstruct_batch([counts], None if truth is None else [truth],
                                 max_iter)[0]


def _psd_sqrt(m):
    evals, evecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T


def fidelity(a, b):
    """Uhlmann fidelity (tr sqrt(sqrt(a) b sqrt(a)))^2, clamped to [0, 1]."""
    root = _psd_sqrt(np.asarray(a, dtype=complex))
    inner = root @ np.asarray(b, dtype=complex) @ root
    evals = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2.0), 0.0, None)
    value = float(np.sum(np.sqrt(evals)) ** 2)
    return min(max(value, 0.0), 1.0)


def counts_to_csv(records):
    """Serialize count records as `basis,observed,total` CSV text."""
    lines = ["basis,observed,total"]
    for record in records:
        lines.append(f"{record.basis},{record.observed},{record.total_per_basis}")
    return "\n".join(lines) + "\n"


def counts_from_csv(text):
    """Parse `basis,observed,total` CSV. Expected counts are not stored in
    the file; parsed records carry NaN there."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != ["basis", "observed", "total"]:
        raise ValueError(f"unexpected CSV header: {reader.fieldnames}")
    records = []
    for row in reader:
        label = row["basis"].strip()
        if label not in BASIS_LABELS:
            raise ValueError(f"unknown basis label {label!r}")
        records.append(CountRecord(label, float("nan"),
                                   int(row["observed"]), int(row["total"])))
    return records


def mle_result_to_json(result):
    """Serialize an MLE result: 16 row-major {re, im} entries plus the
    log-likelihood and iteration count."""
    entries = [{"re": float(z.real), "im": float(z.imag)}
               for z in result.rho_hat.ravel()]
    payload = {
        "rho_hat": entries,
        "log_likelihood": float(result.log_likelihood),
        "iterations": int(result.iterations),
    }
    if result.fidelity_vs_truth is not None:
        payload["fidelity_vs_truth"] = float(result.fidelity_vs_truth)
    return json.dumps(payload, indent=2, sort_keys=True)


def mle_result_from_json(text):
    payload = json.loads(text)
    entries = payload["rho_hat"]
    if len(entries) != 16:
        raise ValueError(f"expected 16 entries, got {len(entries)}")
    rho = np.array([complex(e["re"], e["im"]) for e in entries]).reshape(4, 4)
    return MleResult(rho_hat=rho,
                     log_likelihood=float(payload["log_likelihood"]),
                     iterations=int(payload["iterations"]),
                     fidelity_vs_truth=payload.get("fidelity_vs_truth"))
