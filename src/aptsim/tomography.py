"""Measurement chain: Poisson counts in the 16 two-photon bases of James,
Kwiat, Munro & White (PRA 64, 052312, 2001), and the maximum-likelihood
estimate. Every state of the chain is a factor F, rho = F F^H: the truths
that draw_counts takes, and the estimates that mle_fit returns, the fit's
own factor T, which linalg.uhlmann and linalg.wootters take as they are,
and draw_counts checks by dynamics._unit_trace, as evolve_pairs does. One
formula, _probabilities, p_b = sum_j |<b|F_j>|^2, gives the expected counts,
the fit's probabilities and the reported log-likelihood.

The fit minimizes f(rho) = sum_b [N p_b - n_b log p_b], p_b = <b|rho|b>,
the negative Poisson log-likelihood up to a constant, over rho = T T^H with
T lower triangular and |T| = 1 (Burer & Monteiro, Math. Program. 95, 329,
2003), by damped Newton steps on that sphere with the exact Hessian and a
line search. It starts from projected linear inversion mixed with a little
I/4. A point stops once its Newton decrement is tiny and the Frank-Wolfe gap
<G, rho> - lambda_min(G), G = grad f, certifies the optimum; if the gap
fails there, a Frank-Wolfe step toward lambda_min(G)'s eigenvector lowers f
and Newton resumes from it. The pass in which every point left stops runs
no line search. Each point of a batch keeps its own factor, damping,
stopping test and step count, so its estimate does not depend on the batch:
its sums over the basis are broadcast sums or stacked matmuls with the batch
leading, one BLAS call per point, and never a 2-D GEMM whose rows are the
batch, whose summation order may change with the number of rows. A point
that stops leaves the loop.
"""

import numpy as np

from .dynamics import InvalidStateError, _check, _unit_trace
from .linalg import _read_only

BASIS_LABELS = ("HH", "HV", "VV", "VH", "RH", "RV", "DV", "DH",
                "DR", "DD", "RD", "HD", "VD", "VL", "HL", "RL")

_SINGLE_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "R": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
    "L": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
}

DEFAULT_TOTAL = 10000
MAX_TOTAL = 10 ** 18  # numpy draws Poisson counts up to a mean of about 9.2e18
MAX_PASSES = 100000  # Newton passes per point; mle_fit reads it at call time

# row b: the two-photon ket of BASIS_LABELS[b]
_KETS = _read_only(np.array([np.kron(_SINGLE_KETS[label[0]], _SINGLE_KETS[label[1]])
                              for label in BASIS_LABELS]))
_INVERSION = _read_only(np.linalg.inv(
    np.einsum("bi,bj->bij", _KETS.conj(), _KETS).reshape(16, 16)))

# Newton constants, in units of f / (16 N). A point stops when its Newton
# decrement (about twice f - min f) and its Frank-Wolfe gap are below the two
# tolerances. A pass keeps the step length that lowers f most among those
# passing Armijo's test; lengths over 1 help where rho loses rank.
_MIX = 1e-3
_TOL_DECREMENT = 1e-13
_TOL_GAP = 1e-6
_ARMIJO = 1e-4
_STEPS = _read_only(np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.25, 0.125, 0.0625]))
_DAMPING = 1e-12
_WEIGHT = 1.0 / 16.0  # N_b / sum_b N_b: one total N in every basis
# p_b is floored here before any logarithm or division, in the fit and in
# the reported log-likelihood
_P_FLOOR = 1e-14

# The fit's 16 real unknowns x are the entries of T.view(float) (row-major,
# interleaved re/im) at _X_INDEX: the lower triangle, real on the diagonal.
# The Hessian of <G, T T^H> in x is 2 (G (x) I), gathered from G.view(float)
# at _G_SOURCE and scaled by _G_SIGN.
_ROW, _COL, _PART = _read_only(np.array([(i, j, part) for i in range(4) for j in range(i + 1)
                                         for part in range(1 + (i > j))])).T
_X_INDEX = _read_only((4 * _ROW + _COL) * 2 + _PART)
_G_SOURCE = _read_only((4 * _ROW[:, None] + _ROW) * 2 + (_PART[:, None] != _PART))
_G_SIGN = _read_only(2.0 * (_COL[:, None] == _COL)
                     * np.where((_PART[:, None] == 0) & (_PART == 1), -1.0, 1.0))
# dp[k, b] = dp_b/dx_k is entry b * 32 + _X_INDEX[k] of the (16, 32) float
# table 2 K_bi Y_bj
_DP_SOURCE = _read_only(_X_INDEX[:, None] + 32 * np.arange(16))
_EYE = _read_only(np.eye(16))


class MleConvergenceError(ArithmeticError):
    """The fit hit its pass cap at the batch indices held in `points`."""

    def __init__(self, message, points=()):
        super().__init__(message)
        self.points = tuple(points)


def _probabilities(conj_kets, f):
    """The probabilities p_b = <b|F F^H|b> = sum_j |<b|F_j>|^2 of factors F,
    (..., 16) for conj_kets (..., 16, 4) and F (..., 4, r), and the products
    Y = conj(K) F, y[b, j] = <b|F_j>."""
    y = conj_kets @ f
    y_float = y.view(float)
    return (y_float * y_float).sum(axis=-1), y


def draw_counts(factors, total=DEFAULT_TOTAL, seed=0, noiseless=False):
    """(P,16) expected and observed counts, in basis order, of the states
    rho = F F^H of a (..., 4, r) stack of factors F (P = 1 for one (4, r)
    factor, and P the product of the leading axes for a stack). A factor
    must have finite entries and sum |F|^2 = Tr rho within TRACE_TOL of 1;
    InvalidStateError names the first that has not by its index in the
    flattened stack. Factor i draws observed ~ Poisson(expected) from a
    generator seeded with [seed, i], a stream of its own for each (seed, i)
    pair with 0 <= seed < 2**32 (numpy splits a larger seed into words that
    other pairs share), or round(expected) if noiseless."""
    if not 0 < total <= MAX_TOTAL:
        raise ValueError(f"total must be in (0, {MAX_TOTAL:.0e}], got {total}")
    if not 0 <= seed < 2 ** 32:
        raise ValueError(f"seed must be in [0, 2**32), got {seed}")
    f = np.asarray(factors, dtype=complex)
    if f.ndim < 2 or f.shape[-2] != 4:
        raise InvalidStateError(f"expected a (..., 4, r) factor, got shape {f.shape}")
    f = f.reshape(-1, 4, f.shape[-1])
    trace, ok = _unit_trace(f)
    _check(ok, lambda i: (f"trace is {float(trace[i])!r}, expected 1" if np.isfinite(f[i]).all()
                          else "non-finite entries"), "factor")
    expected = np.clip(_probabilities(_KETS.conj(), f)[0] * total, 0.0, total)
    if noiseless:
        return expected, np.rint(expected)
    # [seed, i] as two uint32 words: the stream of the list [seed, i], built faster
    draws = [np.random.default_rng(np.array([seed, i], dtype=np.uint32)).poisson(e)
             for i, e in enumerate(expected)]
    return expected, np.array(draws).reshape(expected.shape)


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


def _start(rho):
    """Unit coordinates of the Cholesky factor of (1 - _MIX) rho + _MIX I/4
    in diagonal-pivoting order, so the columns that vanish at a rank-deficient
    optimum come last; that order; and each point's kets with their entries
    in it, as conj(K), 2 K and the (P,16,32) float table of |b><b|."""
    m = (1.0 - _MIX) * rho + (_MIX / 4.0) * np.eye(4)
    rows, order = np.arange(len(m)), np.zeros((len(m), 4), dtype=int)
    schur, free = m, np.ones((len(m), 4), dtype=bool)
    for k in range(3):
        diag = np.where(free, np.real(np.diagonal(schur, axis1=1, axis2=2)), -np.inf)
        order[:, k] = pivot = diag.argmax(axis=1)
        free[rows, pivot] = False
        col = schur[rows, :, pivot] / np.sqrt(diag[rows, pivot])[:, None]
        schur = schur - col[:, :, None] * col.conj()[:, None, :]
    order[:, 3] = 6 - order[:, :3].sum(axis=1)  # the last pivot is the one left
    m = m[rows[:, None, None], order[:, :, None], order[:, None, :]]
    x = np.take(np.linalg.cholesky(m).view(float).reshape(-1, 32), _X_INDEX, axis=1)
    kets = np.ascontiguousarray(_KETS[:, order].transpose(1, 0, 2))
    outer = (kets[:, :, :, None] * kets.conj()[:, :, None, :]).view(float).reshape(-1, 16, 32)
    return (x / np.sqrt((x * x).sum(axis=1, keepdims=True)), order, kets.conj(),
            2.0 * kets[:, :, :, None], outer)


def _armijo(p, pf, delta, n, lengths, slope):
    """Armijo's test f(s) - f <= -_ARMIJO * length * slope at L lengths, for
    (P,16) probabilities p, floored pf and (P,16,L) changes delta of p: whether
    any length passes, and the index of the passing one that lowers f most."""
    change = np.maximum(p[:, :, None] + delta, _P_FLOOR) - pf[:, :, None]
    gain = (_WEIGHT * delta - n[:, :, None] * np.log1p(change / pf[:, :, None])).sum(axis=1)
    accept = gain <= -_ARMIJO * lengths * slope[:, None]
    return accept.any(axis=1), np.where(accept, gain, np.inf).argmin(axis=1)


def _frank_wolfe_step(x, g_matrix, gap, p, conj_kets, n):
    """Coordinates of (1 - s) rho + s u u^H for rho = T T^H at x and u the
    eigenvector of lambda_min(G): a Frank-Wolfe step, which lowers f by about
    s * gap (Journee, Bach, Absil & Sepulchre, SIAM J. Optim. 20, 2327, 2010).
    s is picked by _armijo from _STEPS times gap / f''(0), capped at 1; it
    is 0 if no length passes Armijo's test. The new T is the triangular
    factor of [sqrt(1 - s) T, sqrt(s) u] by LQ, in the same row order. No
    I/4 is mixed in, so f only falls and Newton cannot return to the point
    that failed."""
    u = np.linalg.eigh(g_matrix.view(complex).reshape(-1, 4, 4))[1][:, :, :1]
    dp = np.abs(conj_kets @ u) ** 2 - p[:, :, None]
    pf = np.maximum(p, _P_FLOOR)
    curvature = (n[:, :, None] * dp * dp / (pf * pf)[:, :, None]).sum(axis=1)[:, 0]
    length = np.divide(gap, curvature, out=np.ones_like(gap), where=curvature > 0.0)
    lengths = np.clip(length[:, None] * _STEPS, 0.0, 1.0)
    ok, best = _armijo(p, pf, lengths[:, None, :] * dp, n, lengths, gap)
    s = np.where(ok, lengths[np.arange(len(best)), best], 0.0)
    factor = np.concatenate([np.sqrt(1.0 - s)[:, None, None] * _to_matrix(x),
                             np.sqrt(s)[:, None, None] * u], axis=2)
    lower = np.linalg.qr(factor.conj().transpose(0, 2, 1), mode="r").conj().transpose(0, 2, 1)
    # column phases that make the diagonal real, which x requires
    lower = lower * np.exp(-1j * np.angle(np.diagonal(lower, axis1=1, axis2=2)))[:, None, :]
    x = np.take(np.ascontiguousarray(lower).view(float).reshape(-1, 32), _X_INDEX, axis=1)
    return x / np.sqrt((x * x).sum(axis=1, keepdims=True))


def _newton(n, rho):
    """Minimize f / (16 N), for (P,16) counts n / (16 N), from each row of the
    (P,4,4) start stack `rho`: the (P,4,4) factors T of the estimates T T^H,
    their rows in basis order, each row's accepted steps, and which rows
    stopped within MAX_PASSES passes. Stopped rows leave the loop, which ends
    at the pass in which every row left in it stops."""
    x, order, conj_kets, twice_kets, projectors = _start(rho)
    final = np.zeros_like(x)
    iterations = np.zeros(len(rho), dtype=int)
    passes = 0  # rows only leave the loop, so every row in it has made this many
    converged, rows = np.zeros(len(rho), dtype=bool), np.arange(len(rho))
    damping = np.full(len(rho), _DAMPING)
    while rows.size:
        p, y = _probabilities(conj_kets, _to_matrix(x))
        y_float = y.view(float)
        pf = np.maximum(p, _P_FLOOR)
        w = _WEIGHT - n / pf
        g_matrix = (w[:, None, :] @ projectors)[:, 0]  # G.view(float)
        lam_min = np.linalg.eigvalsh(g_matrix.view(complex).reshape(-1, 4, 4))[:, 0]
        gap = (w * p).sum(axis=1) - lam_min
        # dp[k, b] = dp_b/dx_k: 2 K_bi Y_bj at the coordinates of T
        dp = (twice_kets * y[:, :, None, :]).view(float).reshape(-1, 512).take(_DP_SOURCE, axis=1)
        grad = (dp @ w[:, :, None])[:, :, 0]
        jac = (np.sqrt(n) / pf)[:, None, :] * dp
        # sum_b (n_b / p_b^2) dp_b dp_b^T
        hess = jac @ jac.transpose(0, 2, 1) + np.take(g_matrix, _G_SOURCE, axis=1) * _G_SIGN
        # Newton step on the sphere |x| = 1, bordered by x. Its Hessian's
        # multiplier <G, rho> is replaced by lambda_min(G) <= <G, rho>, which
        # makes it positive definite on the tangent space and equal at the optimum.
        system = np.zeros((rows.size, 17, 17))
        system[:, :16, :16] = hess + _EYE * (damping - 2.0 * lam_min)[:, None, None]
        system[:, 16, :16] = system[:, :16, 16] = x
        rhs = np.concatenate([-grad, np.zeros((rows.size, 1))], axis=1)[:, :, None]
        d = np.linalg.solve(system, rhs)[:, :16, 0]
        decrement = -(grad * d).sum(axis=1)
        passes += 1
        small = decrement <= _TOL_DECREMENT
        stop = small & (gap <= _TOL_GAP)
        if stop.all():  # the last pass needs no line search
            final[rows] = x / np.sqrt((x * x).sum(axis=1, keepdims=True))
            converged[rows] = True
            break

        # p along x(s) = (x + s d) / |x + s d|: T is linear in x and x . d = 0,
        # so p(s) - p = (s lin + s^2 (|Y_d|^2 - p |d|^2)) / (1 + s^2 |d|^2)
        y_d = (conj_kets @ _to_matrix(d)).view(float)
        dd = (d * d).sum(axis=1)
        lin = 2.0 * (y_float * y_d).sum(axis=2)
        quad = (y_d * y_d).sum(axis=2) - p * dd[:, None]
        delta = ((lin[:, :, None] * _STEPS + quad[:, :, None] * _STEPS ** 2)
                 / (1.0 + dd[:, None, None] * _STEPS ** 2))
        ok, best = _armijo(p, pf, delta, n, _STEPS, decrement)
        take = ok & ~small
        x = x + np.where(take, _STEPS[best], 0.0)[:, None] * d
        x /= np.sqrt((x * x).sum(axis=1, keepdims=True))
        iterations[rows] += take
        # a pass without an Armijo step damps the next one harder
        damping = np.where(take | small, _DAMPING, damping * 100.0)

        saddle = np.flatnonzero(small & ~stop)
        if saddle.size:
            x[saddle] = _frank_wolfe_step(x[saddle], g_matrix[saddle], gap[saddle],
                                          p[saddle], conj_kets[saddle], n[saddle])

        done = stop | (passes >= MAX_PASSES)
        if done.any():
            final[rows[done]] = x[done]
            converged[rows[done]] = stop[done]
            keep = np.flatnonzero(~done)
            rows, x, conj_kets, twice_kets, projectors, damping, n = (
                v[keep] for v in (rows, x, conj_kets, twice_kets, projectors, damping, n))
    # T's rows from each point's pivot order back to the basis order
    return (_to_matrix(final)[np.arange(len(order))[:, None], np.argsort(order, axis=1)],
            iterations, converged)


def mle_fit(observed, total):
    """Maximum-likelihood fits of (P,16) observed counts in basis order, taken
    with one total in every basis; row i depends on row i alone. Returns the
    estimates as the fit's own (P,4,4) factors T, rho = T T^H (triangular in
    the point's pivot order, rows in basis order), their log-likelihoods and
    each point's accepted steps.

    A point converges when its Newton decrement is below 1e-13 * 16 total
    and its Frank-Wolfe gap below 1e-6 * 16 total; MleConvergenceError
    names the points that have not within MAX_PASSES Newton passes. ValueError
    names a shape other than (P,16), the first point with a count that is
    not finite and >= 0, or a total that is not one finite number > 0.
    """
    observed = np.asarray(observed, dtype=float)
    if observed.ndim != 2 or observed.shape[1] != 16:
        raise ValueError(f"observed must be (P, 16), got {observed.shape}")
    bad = ~((observed >= 0) & np.isfinite(observed))
    if bad.any():
        i, b = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"observed counts must be finite and >= 0, got {observed[i, b]} "
                         f"at point {i}, basis {BASIS_LABELS[b]}")
    if np.ndim(total) != 0:
        raise ValueError(f"total must be one number, got shape {np.shape(total)}")
    total = float(total)
    if not 0.0 < total < np.inf:
        raise ValueError(f"total must be finite and > 0, got {total}")
    linear = ((observed / total)[:, None, :] * _INVERSION).sum(axis=2).reshape(-1, 4, 4)
    start = _project((linear + linear.conj().transpose(0, 2, 1)) / 2.0)
    t, steps, converged = _newton(observed / (16.0 * total), start)
    stuck = np.flatnonzero(~converged)
    if stuck.size:
        raise MleConvergenceError(
            f"no convergence within {MAX_PASSES} iterations at points {stuck.tolist()}",
            stuck.tolist())

    mus = total * np.maximum(_probabilities(_KETS.conj(), t)[0], _P_FLOOR)
    log_likelihood = np.sum(observed * np.log(mus) - mus, axis=1)
    return t, log_likelihood, steps
