"""Measurement chain: projection onto the 16 two-photon bases of James,
Kwiat, Munro & White (PRA 64, 052312, 2001) with Poisson count
statistics, and maximum-likelihood reconstruction of the density matrix.

The fit minimizes f(rho) = sum_b [N_b p_b - n_b log p_b], p_b = <b|rho|b>,
the negative Poisson log-likelihood up to a constant, over rho = T T^H with
T lower triangular and |T| = 1 (Burer & Monteiro, Math. Program. 95, 329,
2003), by damped Newton steps on that sphere with the exact Hessian and a
line search. It starts from projected linear inversion mixed with a little
I/4. A point stops once its Newton decrement is tiny and the Frank-Wolfe
gap <G, rho> - lambda_min(G), G = grad f, certifies the optimum; if the gap
fails there, the point is a saddle and restarts toward lambda_min(G)'s
eigenvector. Each point of a batch keeps its own factor, damping, stopping
test and step count, so its estimate does not depend on the batch: its
products are stacked matmuls with the batch leading, one BLAS call per
point, and never a 2-D GEMM whose rows are the batch.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import rank_factor, validate_density_matrix

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
MAX_TOTAL = 10 ** 18  # numpy draws Poisson counts up to a mean of about 9.2e18
DEFAULT_MAX_ITER = 100000

# row b: the two-photon ket of BASIS_LABELS[b]
_KETS = np.array([np.kron(_SINGLE_KETS[label[0]], _SINGLE_KETS[label[1]])
                  for label in BASIS_LABELS])
# row b: |b><b| row-major, as interleaved (re, im) floats. Sums over the
# basis are broadcast sums or stacked matmuls with the batch leading (one
# BLAS call per point), never a 2-D GEMM with the batch as a dimension,
# whose summation order may change with the number of rows: each point's
# arithmetic is its own.
_OUTER = np.einsum("bi,bj->bij", _KETS, _KETS.conj()).reshape(16, 16)
_PROJECTORS = _OUTER.view(float)
_INVERSION = np.linalg.inv(_OUTER.conj())  # probabilities -> vec(rho)

# Newton constants, in units of f / sum_b N_b. A point stops when its Newton
# decrement (about twice f - min f) and its Frank-Wolfe gap are below the two
# tolerances. A pass keeps the step length that lowers f most among those
# passing Armijo's test; lengths over 1 help where rho loses rank.
_MIX = 1e-3
_TOL_DECREMENT = 1e-13
_TOL_GAP = 1e-6
_ARMIJO = 1e-4
_STEPS = np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.25, 0.125, 0.0625])
_DAMPING = 1e-12
# p_b is floored here before any logarithm or division, in the fit and in
# the reported log-likelihood
_P_FLOOR = 1e-14

# The fit's 16 real unknowns x are the entries of T.view(float) (row-major,
# interleaved re/im) at _X_INDEX: the lower triangle, real on the diagonal.
# The Hessian of <G, T T^H> in x is 2 (G (x) I), gathered from G.view(float)
# at _G_SOURCE and scaled by _G_SIGN.
_ROW, _COL, _PART = np.array([(i, j, part) for i in range(4) for j in range(i + 1)
                              for part in range(1 + (i > j))]).T
_X_INDEX = (4 * _ROW + _COL) * 2 + _PART
_G_SOURCE = (4 * _ROW[:, None] + _ROW) * 2 + (_PART[:, None] != _PART)
_G_SIGN = 2.0 * (_COL[:, None] == _COL) * np.where((_PART[:, None] == 0) & (_PART == 1), -1.0, 1.0)


@dataclass(frozen=True)
class ProjectionBasis:
    label: str
    ket: np.ndarray
    settings: tuple  # ((qwp1, hwp1), (qwp2, hwp2)) in degrees


class MleConvergenceError(ArithmeticError):
    """The fit hit its pass cap at the batch indices held in `points`."""

    def __init__(self, message, points=()):
        super().__init__(message)
        self.points = tuple(points)


_BASES = tuple(ProjectionBasis(label, ket, (_SETTINGS[label[0]], _SETTINGS[label[1]]))
               for label, ket in zip(BASIS_LABELS, _KETS))


def basis_set():
    """The 16 projection bases in canonical order."""
    return list(_BASES)


def _probabilities(rho):
    """(P,16) probabilities <b|rho|b> of a (P,4,4) stack of Hermitian matrices."""
    flat = np.ascontiguousarray(rho, dtype=complex).view(float).reshape(-1, 1, 32)
    return (flat * _PROJECTORS).sum(axis=2)


def draw_counts(states, total=DEFAULT_TOTAL, seed=0, noiseless=False):
    """(P,16) expected and observed counts, in basis order, of a (P,4,4) stack
    of states (P = 1 for one 4x4 state), validated together. State i draws
    observed ~ Poisson(expected) from a generator seeded with seed + i
    (deterministic), or takes round(expected) in noiseless mode."""
    if not 0 < total <= MAX_TOTAL:
        raise ValueError(f"total must be in (0, {MAX_TOTAL:.0e}], got {total}")
    validate_density_matrix(states)
    expected = np.clip(_probabilities(states) * total, 0.0, total)
    if noiseless:
        return expected, np.rint(expected)
    return expected, np.array([np.random.default_rng(seed + i).poisson(e)
                               for i, e in enumerate(expected)])


def _project(m):
    """Euclidean projection of a (P,4,4) Hermitian stack onto the density
    matrices: the eigenvalues go onto the probability simplex, shifted by
    the largest (cumsum_k - 1) / k of their descending order (Duchi et al.,
    ICML 2008), and the eigenvectors stay."""
    w, v = np.linalg.eigh(m)
    shift = ((np.cumsum(w[:, ::-1], axis=1) - 1.0) / np.arange(1.0, 5.0)).max(axis=1)
    x = np.maximum(w - shift[:, None], 0.0)
    return (v * x[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _to_matrix(x):
    """The (P,4,4) triangular factors T of a (P,16) coordinate stack."""
    t = np.zeros((len(x), 32))
    t[:, _X_INDEX] = x
    return t.view(complex).reshape(-1, 4, 4)


def _unpermuted(factor, order):
    """F F^H in the original basis, for a factor F whose rows follow `order`."""
    f = np.take_along_axis(factor, np.argsort(order, axis=1)[:, :, None], 1)
    return f @ f.conj().transpose(0, 2, 1)


def _start(rho):
    """Unit coordinates of the Cholesky factor of (1 - _MIX) rho + _MIX I/4
    in diagonal-pivoting order, so the columns that vanish at a rank-deficient
    optimum come last; that order; and the kets in it, as conj(K), 2 K and
    the (P,16,32) float table of |b><b|."""
    m = (1.0 - _MIX) * rho + (_MIX / 4.0) * np.eye(4)
    rows, order = np.arange(len(m)), np.zeros((len(m), 4), dtype=int)
    schur, free = m, np.ones((len(m), 4), dtype=bool)
    for k in range(4):
        diag = np.where(free, np.real(np.diagonal(schur, axis1=1, axis2=2)), -np.inf)
        order[:, k] = pivot = diag.argmax(axis=1)
        free[rows, pivot] = False
        col = schur[rows, :, pivot] / np.sqrt(diag[rows, pivot])[:, None]
        schur = schur - col[:, :, None] * col.conj()[:, None, :]
    m = np.take_along_axis(np.take_along_axis(m, order[:, :, None], 1), order[:, None, :], 2)
    x = np.take(np.linalg.cholesky(m).view(float).reshape(-1, 32), _X_INDEX, axis=1)
    kets = np.ascontiguousarray(_KETS[:, order].transpose(1, 0, 2))
    outer = (kets[:, :, :, None] * kets.conj()[:, :, None, :]).view(float).reshape(-1, 16, 32)
    return (x / np.sqrt((x * x).sum(axis=1, keepdims=True)), order, kets.conj(),
            2.0 * kets[:, :, :, None], outer)


def _newton(n, big_n, rho, max_iter):
    """Minimize f from each row of the (P,4,4) start stack `rho`: the
    estimates, each row's accepted steps, and which rows stopped within
    max_iter passes. Stopped rows leave the working arrays."""
    x, order, conj_kets, twice_kets, projectors = _start(rho)
    estimates = np.zeros((len(rho), 4, 4), dtype=complex)
    iterations, steps, passes = np.zeros((3, len(rho)), dtype=int)
    converged, rows = np.zeros(len(rho), dtype=bool), np.arange(len(rho))
    damping = np.full(len(rho), _DAMPING)
    while rows.size:
        y = conj_kets @ _to_matrix(x)  # y[b, j] = <b| column j of T
        y_float = y.view(float)
        p = (y_float * y_float).sum(axis=2)
        pf = np.maximum(p, _P_FLOOR)
        w = big_n - n / pf
        g_matrix = (w[:, None, :] @ projectors)[:, 0]  # G.view(float)
        lam_min = np.linalg.eigvalsh(g_matrix.view(complex).reshape(-1, 4, 4))[:, 0]
        gap = (w * p).sum(axis=1) - lam_min
        # dp[k, b] = dp_b/dx_k: 2 K_bi Y_bj at the coordinates of T
        dp = np.take((twice_kets * y[:, :, None, :]).view(float).reshape(-1, 16, 32),
                     _X_INDEX, axis=2).transpose(0, 2, 1).copy()
        grad = (dp @ w[:, :, None])[:, :, 0]
        jac = (np.sqrt(n) / pf)[:, None, :] * dp
        # sum_b (n_b / p_b^2) dp_b dp_b^T
        hess = jac @ jac.transpose(0, 2, 1) + np.take(g_matrix, _G_SOURCE, axis=1) * _G_SIGN
        # Newton step on the sphere |x| = 1, bordered by x. Its Hessian's
        # multiplier <G, rho> is replaced by lambda_min(G) <= <G, rho>, which
        # makes it positive definite on the tangent space and equal at the optimum.
        system = np.zeros((len(x), 17, 17))
        system[:, :16, :16] = hess + np.eye(16) * (damping - 2.0 * lam_min)[:, None, None]
        system[:, 16, :16] = system[:, :16, 16] = x
        rhs = np.concatenate([-grad, np.zeros((len(x), 1))], axis=1)[:, :, None]
        d = np.linalg.solve(system, rhs)[:, :16, 0].copy()
        decrement = -(grad * d).sum(axis=1)
        passes += 1
        small = decrement <= _TOL_DECREMENT
        stop = small & (gap <= _TOL_GAP)

        # p along x(s) = (x + s d) / |x + s d|: T is linear in x and x . d = 0,
        # so p(s) - p = (s lin + s^2 (|Y_d|^2 - p |d|^2)) / (1 + s^2 |d|^2)
        y_d = (conj_kets @ _to_matrix(d)).view(float)
        dd = (d * d).sum(axis=1)
        lin = 2.0 * (y_float * y_d).sum(axis=2)
        quad = (y_d * y_d).sum(axis=2) - p * dd[:, None]
        delta = ((lin[:, :, None] * _STEPS + quad[:, :, None] * _STEPS ** 2)
                 / (1.0 + dd[:, None, None] * _STEPS ** 2))
        change = np.maximum(p[:, :, None] + delta, _P_FLOOR) - pf[:, :, None]
        gain = (big_n[:, :, None] * delta
                - n[:, :, None] * np.log1p(change / pf[:, :, None])).sum(axis=1)
        accept = gain <= -_ARMIJO * _STEPS * decrement[:, None]
        best = np.where(accept, gain, np.inf).argmin(axis=1)
        take = accept.any(axis=1) & ~small
        x = x + np.where(take, _STEPS[best], 0.0)[:, None] * d
        x /= np.sqrt((x * x).sum(axis=1, keepdims=True))
        steps += take
        # a pass without an Armijo step damps the next one harder
        damping = np.where(take | small, _DAMPING, damping * 100.0)

        saddle = np.flatnonzero(small & ~stop)
        if saddle.size:
            # a stationary point that fails the certificate: restart from
            # rho mixed toward the eigenvector of lambda_min(G)
            u = np.linalg.eigh(g_matrix[saddle].view(complex).reshape(-1, 4, 4))[1][:, :, :1]
            factor = np.concatenate([_to_matrix(x[saddle]), _MIX ** 0.5 * u], axis=2)
            (x[saddle], order[saddle], conj_kets[saddle], twice_kets[saddle],
             projectors[saddle]) = _start(_unpermuted(factor, order[saddle]))

        done = stop | (passes >= max_iter)
        if done.any():
            estimates[rows[done]] = _unpermuted(_to_matrix(x[done]), order[done])
            iterations[rows[done]] = steps[done]
            converged[rows[done]] = stop[done]
            keep = ~done
            (rows, x, order, conj_kets, twice_kets, projectors, steps, passes,
             damping, n, big_n) = (v[keep] for v in (
                 rows, x, order, conj_kets, twice_kets, projectors, steps, passes,
                 damping, n, big_n))
    return estimates, iterations, converged


def mle_fit(observed, totals, truths=None, max_iter=DEFAULT_MAX_ITER):
    """Maximum-likelihood fits of (P,16) observed counts and per-basis totals
    in basis order; row i depends on row i alone. Returns the (P,4,4)
    estimates, their log-likelihoods, each point's accepted Newton steps,
    and the fidelities against the (P,4,4) `truths` (None without them).

    A point converges when its Newton decrement is below 1e-13 * sum_b N_b
    and its Frank-Wolfe gap below 1e-6 * sum_b N_b; MleConvergenceError
    names the points that have not within max_iter Newton passes. ValueError
    names shapes other than (P,16), or the first point with a count that is
    not finite and >= 0 or a total that is not finite and > 0.
    """
    observed, totals = np.asarray(observed, dtype=float), np.asarray(totals, dtype=float)
    if observed.ndim != 2 or observed.shape[1] != 16 or totals.shape != observed.shape:
        raise ValueError(f"observed and totals must both be (P, 16), got "
                         f"{observed.shape} and {totals.shape}")
    for name, values, good, rule in (("observed counts", observed, observed >= 0, ">= 0"),
                                     ("totals", totals, totals > 0, "> 0")):
        bad = ~(good & np.isfinite(values))
        if bad.any():
            i, b = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"{name} must be finite and {rule}, got {values[i, b]} "
                             f"at point {i}, basis {BASIS_LABELS[b]}")
    scale = totals.sum(axis=1, keepdims=True)
    linear = ((observed / totals)[:, None, :] * _INVERSION).sum(axis=2).reshape(-1, 4, 4)
    start = _project((linear + linear.conj().transpose(0, 2, 1)) / 2.0)
    rho, steps, converged = _newton(observed / scale, totals / scale, start, max_iter)
    stuck = np.flatnonzero(~converged)
    if stuck.size:
        raise MleConvergenceError(
            f"no convergence within {max_iter} iterations at points {stuck.tolist()}",
            stuck.tolist())

    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2.0
    mus = totals * np.maximum(_probabilities(rho), _P_FLOOR)
    log_likelihood = np.sum(observed * np.log(mus) - mus, axis=1)
    return rho, log_likelihood, steps, None if truths is None else _fidelities(truths, rho)


def _fidelities(a, b):
    """Uhlmann fidelity of each pair of (P,4,4) stacks, clamped to [0, 1]:
    (sum of the singular values of A^H B)^2 for the rank_factor factors
    a = A A^H and b = B B^H. No matrix square root is taken, so a rank-1
    a = |psi><psi| gives <psi|b|psi> to rounding."""
    factor_a, factor_b = (rank_factor(np.asarray(m, dtype=complex), validate=False)
                          for m in (a, b))
    s = np.linalg.svd(factor_a.conj().transpose(0, 2, 1) @ factor_b, compute_uv=False)
    return np.clip(s.sum(axis=1) ** 2, 0.0, 1.0)


def fidelity(a, b):
    """Uhlmann fidelity of two states: the one-pair case of _fidelities."""
    return float(_fidelities([a], [b])[0])
