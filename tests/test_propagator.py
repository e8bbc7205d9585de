import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aptsim.model import AptParams, Family, hamiltonian
from aptsim.propagator import propagator_terms, propagators

from oracles import expm_series, terms_mp, two_qubit

RNG = np.random.default_rng(7)


def eig_expm(h, t):
    """Independent oracle: exponential through numpy's eigendecomposition."""
    evals, evecs = np.linalg.eig(h)
    return evecs @ np.diag(np.exp(-1j * evals * t)) @ np.linalg.inv(evecs)


class TestCoefficients:
    """An APT propagator has the real form [[A - iB, C], [C, A + iB]]; each
    test reads (A, B, C) off the stack that propagators() returns."""

    def test_exceptional_point(self):
        u = propagators(AptParams(a=1.0), [2.0])[0]
        assert np.array_equal(u, [[1.0 - 2.0j, 2.0], [2.0, 1.0 + 2.0j]])

    def test_time_zero(self):
        for a in (0.5, 1.0, 1.7):
            assert np.array_equal(propagators(AptParams(a=a), [0.0])[0], np.eye(2))

    def test_unbroken_at_half_turn(self):
        u = propagators(AptParams(a=np.sqrt(2.0)), [np.pi])[0]
        assert np.max(np.abs(u + np.eye(2))) < 1e-12

    def test_quadratic_invariant(self):
        # det U = A^2 + B^2 - C^2 = 1 in every regime, since H is traceless
        times = np.arange(0.0, 6.0, 0.37)
        for a in (0.5, 0.8, 1.0, 1.01, 1.2, 2.0, 3.0):
            u = propagators(AptParams(a=a), times)
            assert np.all(u[:, 0, 1] == u[:, 1, 0])
            assert np.all(u[:, 0, 1].imag == 0.0)
            assert np.all(u[:, 0, 0] == u[:, 1, 1].conj())
            det = u[:, 0, 0].real ** 2 + u[:, 0, 0].imag ** 2 - u[:, 0, 1].real ** 2
            assert np.max(np.abs(det - 1.0)) < 1e-9

    def test_pt_rejected(self):
        # the real (A, B, C) form is APT-only: a PT propagator has a real
        # diagonal and an imaginary off-diagonal instead
        u = propagators(AptParams(a=1.2, family=Family.PT), [1.0])[0]
        assert u[0, 1].real == 0.0 and u[0, 1].imag != 0.0
        assert u[0, 0].imag == 0.0 and u[0, 0] != u[1, 1]


class TestClosedForm:
    def test_identity_at_time_zero(self):
        for a in (0.5, 1.0, 1.7):
            assert np.allclose(propagators(AptParams(a=a), [0.0])[0], np.eye(2), atol=1e-15)

    def test_matches_series_oracle(self):
        for a in (0.8, 1.0, 1.2):
            p = AptParams(a=a)
            h = hamiltonian(p)
            times = np.arange(0.0, 5.0, 0.25)
            for t, u in zip(times, propagators(p, times)):
                gap = np.max(np.abs(u - expm_series(h, float(t))))
                assert gap < 1e-10

    def test_near_ep_continuity(self):
        # the exact closed forms differ from the EP branch by ~44 * delta
        # over t <= 5, so the gap fades linearly as delta -> 0
        def worst_gap(delta):
            times = np.arange(0.0, 5.0001, 0.25)
            at_ep = propagators(AptParams(a=1.0), times)
            return max(float(np.max(np.abs(propagators(AptParams(a=a), times) - at_ep)))
                       for a in (1.0 - delta, 1.0 + delta))

        coarse, fine = worst_gap(1e-4), worst_gap(1e-5)
        assert fine < 1e-3
        assert coarse < 1e-2
        assert coarse / fine == pytest.approx(10.0, rel=0.1)

    def test_broken_regime_growth_scale(self):
        u = propagators(AptParams(a=0.8), [10.0])[0]
        assert u[0, 0].real == pytest.approx(np.cosh(6.0), rel=1e-12)
        assert abs(u[0, 0]) > np.cosh(6.0)

    def test_gamma_rescales_time(self):
        lhs = propagators(AptParams(a=1.3, gamma=2.5), [1.7])[0]
        rhs = propagators(AptParams(a=1.3), [2.5 * 1.7])[0]
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_pt_matches_eigendecomposition(self):
        for a in (0.6, 1.5):
            p = AptParams(a=a, family=Family.PT)
            h = hamiltonian(p)
            for t, u in zip((0.5, 2.0, 4.0), propagators(p, [0.5, 2.0, 4.0])):
                gap = np.max(np.abs(u - eig_expm(h, t)))
                assert gap < 1e-10

    @pytest.mark.parametrize("family", [Family.APT, Family.PT])
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    @pytest.mark.parametrize("delta", [0.9999e-9, -0.9999e-9])
    def test_inside_ep_band(self, family, gamma, delta):
        # the series oracle itself carries ~1e-9 absolute error on entries of
        # size ~gamma * t here, so the gap is measured relative to |U|
        p = AptParams(a=1.0 + delta, gamma=gamma, family=family)
        series = expm_series(hamiltonian(p), 70.0)
        gap = np.max(np.abs(propagators(p, [70.0])[0] - series))
        assert gap / np.max(np.abs(series)) < 1e-10

    def test_inside_ep_band_vs_exact_exponential(self):
        mp = pytest.importorskip("mpmath")
        for family in (Family.APT, Family.PT):
            for a in (1.0 + 0.9999e-9, 1.0 - 0.9999e-9):
                p = AptParams(a=a, gamma=2.5, family=family)
                u = propagators(p, [70.0])[0]
                with mp.workdps(40):
                    a_, g = mp.mpf(a), mp.mpf(2.5)
                    if family is Family.APT:
                        h = g * mp.matrix([[a_, 1j], [1j, -a_]])
                    else:
                        h = g * mp.matrix([[-1j * a_, 1], [1, 1j * a_]])
                    exact = mp.expm(-1j * h * 70)
                    gap = max(abs(complex(exact[i, j]) - u[i, j])
                              for i in range(2) for j in range(2))
                assert gap < 1e-12

    def test_symmetric_off_diagonal(self):
        for a in (0.8, 1.0, 1.2):
            u = propagators(AptParams(a=a), [1.3])[0]
            assert u[0, 1] == u[1, 0]


def _terms_mp(p, t, dps=40):
    """(c, ts) at one time from a 40-digit cos/sin or cosh/sinh of the exact
    k of the float inputs."""
    import mpmath as mp
    with mp.workdps(dps):
        return tuple(float(x) for x in terms_mp(p, t))


# broken, unbroken (mirrored for PT), the EP band |a - 1| <= 1e-9, and a = 1
_TERM_A = st.one_of(st.floats(0.3, 1.0 - 1e-9), st.floats(1.0 + 1e-9, 2.5),
                    st.floats(-1e-9, 1e-9).map(lambda d: 1.0 + d), st.just(1.0))


class TestPropagatorTerms:
    def test_real_arithmetic(self):
        for family in Family:
            for a in (0.8, 1.0, 1.2):
                c, ts = propagator_terms(AptParams(a=a, family=family), [0.0, 0.5, 3.0])
                assert c.dtype == ts.dtype == np.float64
                assert c[0] == 1.0 and ts[0] == 0.0

    def test_exceptional_point_is_exact(self):
        times = np.array([-3.0, 0.0, 0.25, 70.0])
        for family in Family:
            c, ts = propagator_terms(AptParams(a=1.0, family=family), times)
            assert np.array_equal(c, np.ones(4)) and np.array_equal(ts, times)

    def test_no_overflow_of_k_t_squared(self):
        # k = 1e300: k t^2 overflows at t = 1e5, while |c| <= 1 and |ts| <= 1/w
        c, ts = propagator_terms(AptParams(a=1e150), [0.0, 2.0, 1e5])
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(ts))
        assert c[0] == 1.0 and ts[0] == 0.0
        assert np.all(np.abs(c) <= 1.0) and np.all(np.abs(ts) <= 1e-150)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(a=_TERM_A, gamma=st.floats(0.5, 2.5), family=st.sampled_from(Family),
           t=st.floats(-70.0, 70.0))
    def test_matches_exact_functions(self, a, gamma, family, t):
        # negative t checks that c is even and ts odd in t
        p = AptParams(a=a, gamma=gamma, family=family)
        c, ts = propagator_terms(p, [t])
        ref_c, ref_ts = _terms_mp(p, t)
        scale = max(1.0, abs(ref_c), abs(ref_ts))
        assert abs(c[0] - ref_c) <= 1e-13 * scale
        assert abs(ts[0] - ref_ts) <= 1e-13 * scale


class TestTwoQubit:
    def test_identity_at_time_zero(self):
        u = two_qubit(AptParams(a=1.2), AptParams(a=0.8), 0.0)
        assert np.allclose(u, np.eye(4), atol=1e-15)

    def test_tensor_structure(self):
        p1, p2 = AptParams(a=1.2), AptParams(a=0.8)
        u = two_qubit(p1, p2, 1.4)
        expected = np.kron(propagators(p1, [1.4])[0], propagators(p2, [1.4])[0])
        assert np.array_equal(u, expected)

    def test_unit_modulus_determinant(self):
        for _ in range(10):
            p1 = AptParams(a=float(RNG.uniform(0.3, 2.5)))
            p2 = AptParams(a=float(RNG.uniform(0.3, 2.5)))
            t = float(RNG.uniform(0.0, 6.0))
            det = np.linalg.det(two_qubit(p1, p2, t))
            assert abs(det) == pytest.approx(1.0, rel=1e-8)
