from dataclasses import replace

import numpy as np
import pytest

from aptsim.propagator import (IDENTITY, AptParams, Family, Regime, classify, hamiltonian,
                               propagators)

from oracles import eig2

RNG = np.random.default_rng(42)


class TestHamiltonian:
    def test_apt_at_unity(self):
        h = hamiltonian(AptParams(a=1.0))
        assert np.array_equal(h, np.array([[1.0, 1.0j], [1.0j, -1.0]]))

    def test_apt_is_i_times_pt(self):
        for _ in range(10):
            a, gamma = RNG.uniform(0.2, 3.0), RNG.uniform(0.5, 2.0)
            h_apt = hamiltonian(AptParams(a=a, gamma=gamma))
            h_pt = hamiltonian(AptParams(a=a, gamma=gamma, family=Family.PT))
            assert np.max(np.abs(h_apt - 1j * h_pt)) < 1e-15

    def test_traceless(self):
        for family in Family:
            for _ in range(5):
                h = hamiltonian(AptParams(a=RNG.uniform(0.2, 3.0),
                                          gamma=RNG.uniform(0.5, 2.0),
                                          family=family))
                assert abs(np.trace(h)) < 1e-15

    def test_propagator_determinant_has_unit_modulus(self):
        # traceless generator, so |det exp(-iHt)| = 1 in every regime
        for family in Family:
            for a in (0.5, 0.9, 1.0, 1.3, 2.2):
                u = propagators(AptParams(a=a, family=family), [4.0])[0]
                assert abs(np.linalg.det(u)) == pytest.approx(1.0, abs=1e-9)


class TestClassify:
    def test_apt_examples(self):
        assert classify(AptParams(a=0.8)) is Regime.BROKEN
        assert classify(AptParams(a=1.0)) is Regime.EXCEPTIONAL_POINT
        assert classify(AptParams(a=1.2)) is Regime.UNBROKEN

    def test_pt_is_mirrored(self):
        assert classify(AptParams(a=0.8, family=Family.PT)) is Regime.UNBROKEN
        assert classify(AptParams(a=1.0, family=Family.PT)) is Regime.EXCEPTIONAL_POINT
        assert classify(AptParams(a=1.2, family=Family.PT)) is Regime.BROKEN

    def test_band_edges(self):
        assert classify(AptParams(a=1.0 + 5e-10)) is Regime.EXCEPTIONAL_POINT
        assert classify(AptParams(a=1.0 - 5e-10)) is Regime.EXCEPTIONAL_POINT
        assert classify(AptParams(a=1.0 + 2e-9)) is Regime.UNBROKEN
        assert classify(AptParams(a=1.0 - 2e-9)) is Regime.BROKEN

    def test_frozen_qubit_is_unbroken(self):
        # H = 0 is diagonalizable with a real spectrum, although a = 1
        for family in Family:
            assert classify(replace(IDENTITY, family=family)) is Regime.UNBROKEN

    def test_apt_eigenvalues_match_regime(self):
        for a in (0.3, 0.8, 0.999, 1.0, 1.001, 1.2, 2.5):
            p = AptParams(a=a)
            hi, lo = eig2(hamiltonian(p))
            regime = classify(p)
            if regime is Regime.UNBROKEN:
                assert abs(hi.imag) < 1e-12 and abs(lo.imag) < 1e-12
                assert hi.real > 0.0
            elif regime is Regime.BROKEN:
                assert abs(hi.real) < 1e-12 and abs(lo.real) < 1e-12
                assert hi.imag > 0.0
            else:
                assert abs(hi) < 1e-6 and abs(lo) < 1e-6

    def test_gamma_scales_eigenvalues(self):
        hi, _ = eig2(hamiltonian(AptParams(a=2.0, gamma=3.0)))
        assert hi == pytest.approx(3.0 * np.sqrt(3.0), abs=1e-12)


class TestParamsValidation:
    def test_nonpositive_a_rejected(self):
        with pytest.raises(ValueError):
            AptParams(a=0.0)
        with pytest.raises(ValueError):
            AptParams(a=-1.2)

    @pytest.mark.parametrize("gamma", [-1.0, -1e-300, -np.inf, np.inf, np.nan])
    def test_negative_or_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="^gamma must be finite and >= 0"):
            AptParams(a=1.2, gamma=gamma)

    def test_zero_gamma_is_a_frozen_qubit(self):
        # H = 0 exactly, so the propagator is the identity at every t
        assert AptParams(a=1.2, gamma=0.0).gamma == 0.0
        for t in (0.0, 1.0, 1e300):
            assert np.array_equal(propagators(IDENTITY, [t])[0], np.eye(2))

    @pytest.mark.parametrize("field,kwargs", [
        ("a", {"a": np.inf}), ("a", {"a": np.nan}),
        ("gamma", {"a": 1.2, "gamma": np.inf}), ("gamma", {"a": 1.2, "gamma": np.nan})])
    def test_non_finite_rejected_by_name(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            AptParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"a": 1e300}, {"a": 1.2, "gamma": 1e200},
                                        {"a": 1e160}])
    def test_overflowing_k_rejected(self, kwargs):
        with pytest.raises(ValueError, match=r"overflow k = gamma\^2"):
            AptParams(**kwargs)

    def test_finite_k_accepted(self):
        # k is formed as in the propagator, gamma * gamma * (a - 1) * (a + 1)
        for p in (AptParams(a=1e150), AptParams(a=1e160, gamma=1e-10)):
            assert np.array_equal(propagators(p, [0.0])[0], np.eye(2))
