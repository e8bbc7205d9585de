import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aptsim.dynamics import (EvolutionSpec, InvalidStateError, bell_state,
                             rank_factor, run)
from aptsim.entanglement import (analytic_concurrence_identical,
                                 concurrence_minimum_identical,
                                 concurrence_period, ep_concurrence)
from aptsim.linalg import wootters
from aptsim.propagator import AptParams, Family

from oracles import maximally_mixed, wootters_mp
from trajkit import brute_concurrence, refine_minimum

RNG = np.random.default_rng(99)


def random_unitary():
    q, r = np.linalg.qr(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_mixed_state():
    m = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    rho = m @ m.conj().T + 0.2 * np.eye(4)
    return rho / np.trace(rho)


def random_pure_state():
    v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj()), v


class TestConcurrence:
    def test_bell_is_maximal(self):
        assert wootters(rank_factor(bell_state()))[0] == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_zero(self):
        assert wootters(rank_factor(maximally_mixed()))[0] == 0.0

    def test_product_state_is_zero(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert wootters(rank_factor(rho))[0] == pytest.approx(0.0, abs=1e-12)

    def test_random_product_states_are_zero(self):
        for _ in range(10):
            u = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            v = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            ket = np.kron(u / np.linalg.norm(u), v / np.linalg.norm(v))
            rho = np.outer(ket, ket.conj())
            assert wootters(rank_factor(rho))[0] < 1e-12

    def test_pure_state_matches_direct_formula(self):
        for _ in range(10):
            rho, v = random_pure_state()
            direct = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
            assert wootters(rank_factor(rho))[0] == pytest.approx(direct, abs=1e-12)

    def test_local_unitary_invariance(self):
        for _ in range(10):
            rho = random_mixed_state()
            base = wootters(rank_factor(rho))[0]
            u = np.kron(random_unitary(), random_unitary())
            rotated = u @ rho @ u.conj().T
            rotated = (rotated + rotated.conj().T) / 2.0
            assert abs(wootters(rank_factor(rotated))[0] - base) < 1e-10

    def test_spin_flip_eigenvalues_sorted_and_consistent(self):
        # the s^2 of wootters() are the eigenvalues of rho (sy x sy) rho* (sy x sy)
        rho = random_mixed_state()
        lams = wootters(rank_factor(rho))[1] ** 2
        assert lams.size == 4
        assert np.all(np.diff(lams) <= 0)
        assert np.all(lams >= 0)
        roots = np.sqrt(lams)
        expected = max(0.0, roots[0] - roots[1] - roots[2] - roots[3])
        assert wootters(rank_factor(rho))[0] == pytest.approx(min(expected, 1.0), abs=1e-12)

    def test_pure_spin_flip_spectrum(self):
        # rank 1: one eigenvalue; the other three come from the zero columns of F
        lams = wootters(rank_factor(bell_state()))[1] ** 2
        assert lams[0] == pytest.approx(1.0, abs=1e-10)
        assert lams.shape == (4,)
        assert np.all(lams[1:] == 0.0)

    def test_invalid_state_rejected(self):
        with pytest.raises(InvalidStateError):
            wootters(rank_factor(np.eye(4, dtype=complex)))[0]

    def test_werner_state_known_value(self):
        # p * Bell + (1-p) * I/4 has concurrence max(0, (3p - 1)/2)
        for p_mix in (0.2, 0.5, 0.9):
            rho = p_mix * bell_state() + (1.0 - p_mix) * maximally_mixed()
            expected = max(0.0, (3.0 * p_mix - 1.0) / 2.0)
            assert wootters(rank_factor(rho))[0] == pytest.approx(expected, abs=1e-10)


def _ket(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


class TestConcurrenceAccuracy:
    """wootters(rank_factor(rho)) against a 50-digit evaluation of Wootters'
    eigenvalues on rank-deficient states, where square roots of the near-zero
    eigenvalues of rho rho~ in double precision used to cost up to 2e-8."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(log_eps=st.floats(-14.0, -4.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_near_pure_states(self, log_eps, seed):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        psi, phi = _ket(rng), _ket(rng)
        eps = 10.0 ** log_eps
        rho = (1.0 - eps) * np.outer(psi, psi.conj()) + eps * np.outer(phi, phi.conj())
        rho = (rho + rho.conj().T) / 2.0
        assert abs(wootters(rank_factor(rho))[0] - wootters_mp(rho)) < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rank=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_rank_states(self, rank, seed):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = f @ f.conj().T
        rho = (rho + rho.conj().T) / (2.0 * np.real(np.trace(rho)))
        assert abs(wootters(rank_factor(rho))[0] - wootters_mp(rho)) < 1e-12


class TestBatchedConcurrence:
    def test_matches_concurrence_per_state(self):
        # one eigh and one SVD over a stack of ranks 1-4, near-pure states
        # among them, against the same formula one state at a time
        rng = np.random.default_rng(5)
        states = [bell_state(), maximally_mixed()]
        for rank in (1, 2, 3, 4, 1, 2):
            f = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            states.append(f @ f.conj().T / np.sum(np.abs(f) ** 2))
        for log_eps in (-14.0, -11.0, -6.0):
            psi, phi = _ket(rng), _ket(rng)
            eps = 10.0 ** log_eps
            states.append((1.0 - eps) * np.outer(psi, psi.conj()) + eps * np.outer(phi, phi.conj()))
        states = np.array([(rho + rho.conj().T) / 2.0 for rho in states])
        values = wootters(rank_factor(states))[0]
        assert values.shape == (len(states),)
        for rho, value in zip(states, values):
            assert abs(value - wootters(rank_factor(rho))[0]) <= 1e-15


class TestAnalyticIdentical:
    def test_time_zero_is_one(self):
        assert analytic_concurrence_identical(1.2, 0.0) == pytest.approx(1.0)

    def test_reported_minima(self):
        w = 1.2 ** 2 - 1.0
        t_min = (np.pi / 2.0) / np.sqrt(w)
        assert analytic_concurrence_identical(1.2, t_min) == pytest.approx(0.016527, abs=1e-6)
        w = 1.8 ** 2 - 1.0
        t_min = (np.pi / 2.0) / np.sqrt(w)
        assert analytic_concurrence_identical(1.8, t_min) == pytest.approx(0.16219, abs=1e-5)

    def test_matches_wootters_along_trajectory(self):
        for a in (1.2, 1.8):
            traj = run(EvolutionSpec(p1=AptParams(a=a), p2=AptParams(a=a),
                                     t_max=10.0, dt=0.05))
            analytic = np.array([analytic_concurrence_identical(a, t)
                                 for t in traj.times])
            assert np.max(np.abs(traj.concurrence - analytic)) < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            analytic_concurrence_identical(1.0, 1.0)


class TestPeriodAndMinimum:
    def test_period_values(self):
        assert concurrence_period(np.sqrt(2.0)) == pytest.approx(np.pi, abs=1e-12)
        assert concurrence_period(1.2) == pytest.approx(np.pi / np.sqrt(0.44), abs=1e-12)

    def test_matched_apt_pt_periods_equal(self):
        a_apt = 1.2
        a_pt = np.sqrt(2.0 - a_apt ** 2)  # equal |a^2 - 1|
        assert concurrence_period(a_apt, Family.APT) == pytest.approx(
            concurrence_period(a_pt, Family.PT), rel=1e-12)

    def test_period_domain_errors(self):
        with pytest.raises(ValueError):
            concurrence_period(0.9, Family.APT)
        with pytest.raises(ValueError):
            concurrence_period(1.2, Family.PT)

    def test_minimum_values(self):
        assert concurrence_minimum_identical(1.2) == pytest.approx(0.016527, abs=1e-6)
        assert concurrence_minimum_identical(1.8) == pytest.approx(0.16219, abs=1e-5)

    def test_minimum_hermitian_limit(self):
        assert concurrence_minimum_identical(1e6) > 1.0 - 1e-11

    def test_minimum_domain_error(self):
        with pytest.raises(ValueError):
            concurrence_minimum_identical(0.8)

    def test_minima_located_at_quarter_period(self):
        a = 1.2
        w = a * a - 1.0
        t_expected = (np.pi / 2.0) / np.sqrt(w)
        p = AptParams(a=a)
        t_found, value = refine_minimum(lambda t: brute_concurrence(p, p, t),
                                        t_expected - 0.4, t_expected + 0.4)
        assert abs(t_found - t_expected) < 1e-5
        assert value == pytest.approx(concurrence_minimum_identical(a), abs=1e-10)

    def test_near_ep_sudden_vanishing_proxy(self):
        a = 1.01
        assert concurrence_minimum_identical(a) < 4e-4


class TestClosedFormDomains:
    @pytest.mark.parametrize("func,args", [
        (analytic_concurrence_identical, (np.nan, 1.0)),
        (analytic_concurrence_identical, (np.inf, 1.0)),
        (analytic_concurrence_identical, (1.2, np.nan)),
        (analytic_concurrence_identical, (1.2, np.inf)),
        (analytic_concurrence_identical, (1e10, 1e300)),  # sqrt(w) t overflows
        (concurrence_minimum_identical, (np.nan,)),
        (concurrence_minimum_identical, (1e200,)),  # a^2 - 1 overflows
        (concurrence_period, (np.nan,)),
        (concurrence_period, (np.inf,)),
        (ep_concurrence, (np.nan,)),
        (ep_concurrence, (np.inf,)),
    ], ids=lambda v: v.__name__ if callable(v) else ",".join(map(str, v)))
    def test_non_finite_input_raises(self, func, args):
        with np.errstate(all="raise"), pytest.raises(ValueError):
            func(*args)

    @pytest.mark.parametrize("a", [-2.0, -1.5, -1.0 - 1e-9])
    def test_negative_a_raises(self, a):
        # w = (a - 1)(a + 1) is even in a, so a < -1 gives the w of -a > 1
        message = f"requires finite a > 1 with a^2 - 1 finite, got {a}"
        for form in (concurrence_period, concurrence_minimum_identical,
                     lambda a: analytic_concurrence_identical(a, 1.0)):
            with pytest.raises(ValueError) as err:
                form(a)
            assert str(err.value) == message
        with pytest.raises(ValueError, match=r"^PT period requires 0 < a < 1, got -0.5$"):
            concurrence_period(-0.5, Family.PT)

    @pytest.mark.parametrize("a", [1e100, 1e150])
    def test_huge_a_has_no_overflow(self, a):
        # w^2 overflows for these a; the value is within 1e-200 of 1
        with np.errstate(all="raise"):
            assert concurrence_minimum_identical(a) == 1.0
            assert analytic_concurrence_identical(a, 1e-100) == 1.0


def _closed_forms_mp(a, t=3):
    """50-digit period (APT for a > 1, PT for a < 1) and, for a > 1, the
    identical-evolution minimum and value at t, of the float a taken as exact."""
    import mpmath as mp

    with mp.workdps(50):
        a = mp.mpf(a)
        w = (a - 1) * (a + 1)
        period = float(mp.pi / mp.sqrt(abs(w)))
        if w < 0:
            return period, None, None
        value = 1 / (1 + 8 * mp.sin(mp.sqrt(w) * t) ** 2 / w
                     + 8 * mp.sin(mp.sqrt(w) * t) ** 4 / w ** 2)
        return period, float(1 / (1 + 8 / w + 8 / w ** 2)), float(value)


class TestExceptionalPointBand:
    # a^2 - 1 computed as a * a - 1 cancels next to a = 1; (a - 1)(a + 1) does not
    @pytest.mark.parametrize("offset", [1e-8, 1e-6, 1e-4, 0.01, 0.3])
    @pytest.mark.parametrize("side", [1, -1], ids=["apt", "pt"])
    def test_closed_forms_keep_their_digits(self, offset, side):
        a = 1.0 + side * offset
        period, minimum, value = _closed_forms_mp(a)
        if side < 0:
            assert concurrence_period(a, Family.PT) == pytest.approx(period, rel=1e-14, abs=0)
            return
        assert concurrence_period(a) == pytest.approx(period, rel=1e-14, abs=0)
        assert concurrence_minimum_identical(a) == pytest.approx(minimum, rel=1e-14, abs=0)
        assert analytic_concurrence_identical(a, 3.0) == pytest.approx(value, rel=1e-14, abs=0)


class TestEpConcurrence:
    def test_time_zero(self):
        assert ep_concurrence(0.0) == 1.0

    def test_one_over_seventeen(self):
        assert ep_concurrence(1.0) == pytest.approx(1.0 / 17.0, abs=1e-15)

    def test_matches_brute_force(self):
        p = AptParams(a=1.0)
        for t in (0.5, 1.0, 3.0, 10.0):
            assert abs(ep_concurrence(t) - brute_concurrence(p, p, t)) < 1e-10

    def test_decays_without_revival(self):
        values = [ep_concurrence(t) for t in np.arange(0.0, 20.0, 0.1)]
        assert np.all(np.diff(values) <= 0.0)
        assert values[-1] < 1e-5

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ep_concurrence(-0.1)
