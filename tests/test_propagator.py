import numpy as np
import pytest

from aptsim.linalg import kron
from aptsim.model import AptParams, Family, Regime, hamiltonian
from aptsim.propagator import closed_form, coefficient_arrays, coefficients

from oracles import expm_series, two_qubit

RNG = np.random.default_rng(7)


def eig_expm(h, t):
    """Independent oracle: exponential through numpy's eigendecomposition."""
    evals, evecs = np.linalg.eig(h)
    return evecs @ np.diag(np.exp(-1j * evals * t)) @ np.linalg.inv(evecs)


class TestCoefficients:
    def test_exceptional_point(self):
        co = coefficients(AptParams(a=1.0), 2.0)
        assert (co.A, co.B, co.C) == (1.0, 2.0, 2.0)
        assert co.regime is Regime.EXCEPTIONAL_POINT

    def test_time_zero(self):
        for a in (0.5, 1.0, 1.7):
            co = coefficients(AptParams(a=a), 0.0)
            assert (co.A, co.B, co.C) == (1.0, 0.0, 0.0)

    def test_unbroken_at_half_turn(self):
        co = coefficients(AptParams(a=np.sqrt(2.0)), np.pi)
        assert co.A == pytest.approx(-1.0, abs=1e-12)
        assert co.B == pytest.approx(0.0, abs=1e-12)
        assert co.C == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_invariant(self):
        for a in (0.5, 0.8, 1.0, 1.01, 1.2, 2.0, 3.0):
            for t in np.arange(0.0, 6.0, 0.37):
                co = coefficients(AptParams(a=a), float(t))
                assert co.A ** 2 + co.B ** 2 - co.C ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_arrays_match_scalars(self):
        times = np.arange(0.0, 5.0, 0.31)
        for a in (0.7, 1.0, 1.4):
            p = AptParams(a=a)
            arr_a, arr_b, arr_c = coefficient_arrays(p, times)
            for i, t in enumerate(times):
                co = coefficients(p, float(t))
                assert arr_a[i] == pytest.approx(co.A, abs=1e-15)
                assert arr_b[i] == pytest.approx(co.B, abs=1e-15)
                assert arr_c[i] == pytest.approx(co.C, abs=1e-15)

    def test_pt_rejected(self):
        with pytest.raises(ValueError):
            coefficients(AptParams(a=1.2, family=Family.PT), 1.0)


class TestClosedForm:
    def test_identity_at_time_zero(self):
        for a in (0.5, 1.0, 1.7):
            assert np.allclose(closed_form(AptParams(a=a), 0.0), np.eye(2), atol=1e-15)

    def test_matches_series_oracle(self):
        for a in (0.8, 1.0, 1.2):
            p = AptParams(a=a)
            h = hamiltonian(p)
            for t in np.arange(0.0, 5.0, 0.25):
                gap = np.max(np.abs(closed_form(p, float(t)) - expm_series(h, float(t))))
                assert gap < 1e-10

    def test_near_ep_continuity(self):
        # the exact closed forms differ from the EP branch by ~44 * delta
        # over t <= 5, so the gap fades linearly as delta -> 0
        def worst_gap(delta):
            worst = 0.0
            for t in np.arange(0.0, 5.0001, 0.25):
                at_ep = closed_form(AptParams(a=1.0), float(t))
                for a in (1.0 - delta, 1.0 + delta):
                    gap = np.max(np.abs(closed_form(AptParams(a=a), float(t)) - at_ep))
                    worst = max(worst, float(gap))
            return worst

        coarse, fine = worst_gap(1e-4), worst_gap(1e-5)
        assert fine < 1e-3
        assert coarse < 1e-2
        assert coarse / fine == pytest.approx(10.0, rel=0.1)

    def test_broken_regime_growth_scale(self):
        co = coefficients(AptParams(a=0.8), 10.0)
        assert co.A == pytest.approx(np.cosh(6.0), rel=1e-12)
        u = closed_form(AptParams(a=0.8), 10.0)
        assert abs(u[0, 0]) > np.cosh(6.0)

    def test_gamma_rescales_time(self):
        lhs = closed_form(AptParams(a=1.3, gamma=2.5), 1.7)
        rhs = closed_form(AptParams(a=1.3), 2.5 * 1.7)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_pt_matches_eigendecomposition(self):
        for a in (0.6, 1.5):
            p = AptParams(a=a, family=Family.PT)
            h = hamiltonian(p)
            for t in (0.5, 2.0, 4.0):
                gap = np.max(np.abs(closed_form(p, t) - eig_expm(h, t)))
                assert gap < 1e-10

    @pytest.mark.parametrize("family", [Family.APT, Family.PT])
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    @pytest.mark.parametrize("delta", [0.9999e-9, -0.9999e-9])
    def test_inside_ep_band(self, family, gamma, delta):
        # the series oracle itself carries ~1e-9 absolute error on entries of
        # size ~gamma * t here, so the gap is measured relative to |U|
        p = AptParams(a=1.0 + delta, gamma=gamma, family=family)
        series = expm_series(hamiltonian(p), 70.0)
        gap = np.max(np.abs(closed_form(p, 70.0) - series))
        assert gap / np.max(np.abs(series)) < 1e-10

    def test_inside_ep_band_vs_exact_exponential(self):
        mp = pytest.importorskip("mpmath")
        for family in (Family.APT, Family.PT):
            for a in (1.0 + 0.9999e-9, 1.0 - 0.9999e-9):
                p = AptParams(a=a, gamma=2.5, family=family)
                with mp.workdps(40):
                    a_, g = mp.mpf(a), mp.mpf(2.5)
                    if family is Family.APT:
                        h = g * mp.matrix([[a_, 1j], [1j, -a_]])
                    else:
                        h = g * mp.matrix([[-1j * a_, 1], [1, 1j * a_]])
                    exact = mp.expm(-1j * h * 70)
                    gap = max(abs(complex(exact[i, j]) - closed_form(p, 70.0)[i, j])
                              for i in range(2) for j in range(2))
                assert gap < 1e-12

    def test_symmetric_off_diagonal(self):
        for a in (0.8, 1.0, 1.2):
            u = closed_form(AptParams(a=a), 1.3)
            assert u[0, 1] == u[1, 0]


class TestTwoQubit:
    def test_identity_at_time_zero(self):
        u = two_qubit(AptParams(a=1.2), AptParams(a=0.8), 0.0)
        assert np.allclose(u, np.eye(4), atol=1e-15)

    def test_tensor_structure(self):
        p1, p2 = AptParams(a=1.2), AptParams(a=0.8)
        u = two_qubit(p1, p2, 1.4)
        expected = kron(closed_form(p1, 1.4), closed_form(p2, 1.4))
        assert np.array_equal(u, expected)

    def test_unit_modulus_determinant(self):
        for _ in range(10):
            p1 = AptParams(a=float(RNG.uniform(0.3, 2.5)))
            p2 = AptParams(a=float(RNG.uniform(0.3, 2.5)))
            t = float(RNG.uniform(0.0, 6.0))
            det = np.linalg.det(two_qubit(p1, p2, t))
            assert abs(det) == pytest.approx(1.0, rel=1e-8)
