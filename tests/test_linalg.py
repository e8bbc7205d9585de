import numpy as np
import pytest

from aptsim.linalg import SIGMA_X, SIGMA_Z

from oracles import eig2, expm_series

RNG = np.random.default_rng(20250810)


def random_2x2(scale=1.0):
    m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    return scale * m / np.linalg.norm(m, 2)


class TestExpmSeries:
    def test_time_zero_is_identity(self):
        assert np.array_equal(expm_series(random_2x2(3.0), 0.0), np.eye(2, dtype=complex))

    def test_sigma_z_at_pi(self):
        assert np.allclose(expm_series(SIGMA_Z, np.pi), -np.eye(2), atol=1e-14)

    def test_two_level_closed_form(self):
        # independent oracle: H^2 = (a^2 - 1) I closes the series over {I, H}
        a = 1.2
        h = 1j * SIGMA_X + a * SIGMA_Z
        w = np.sqrt(a * a - 1.0)
        for t in (0.3, 1.0, 2.7):
            oracle = np.cos(w * t) * np.eye(2) - 1j * np.sin(w * t) / w * h
            assert np.max(np.abs(expm_series(h, t) - oracle)) < 1e-12

    def test_semigroup_property(self):
        for _ in range(10):
            m = random_2x2()
            s, t = RNG.uniform(-5, 5, size=2)
            lhs = expm_series(m, s) @ expm_series(m, t)
            rhs = expm_series(m, s + t)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_determinant_identity(self):
        for _ in range(10):
            m = random_2x2()
            t = RNG.uniform(0, 3)
            det = np.linalg.det(expm_series(m, t))
            expected = np.exp(-1j * np.trace(m) * t)
            assert abs(det - expected) < 1e-10

    def test_traceless_gives_unit_determinant(self):
        for _ in range(10):
            m = random_2x2()
            m = m - np.trace(m) / 2.0 * np.eye(2)
            det = np.linalg.det(expm_series(m, RNG.uniform(0, 3)))
            assert abs(det - 1.0) < 1e-10

    def test_rejects_large_time(self):
        with pytest.raises(ValueError):
            expm_series(SIGMA_Z, 100.5)

    def test_overflow_guard(self):
        # exp(-i * (10i sz) * t) = exp(10 sz t) blows past any float bound
        with pytest.raises(OverflowError):
            expm_series(10j * SIGMA_Z, 40.0)

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            expm_series(bad, 1.0)


class TestEig2:
    def test_exceptional_point_is_doubly_zero(self):
        assert eig2(1j * SIGMA_X + SIGMA_Z) == (0j, 0j)

    def test_broken_regime_imaginary_pair(self):
        hi, lo = eig2(1j * SIGMA_X + 0.8 * SIGMA_Z)
        assert hi == pytest.approx(0.6j, abs=1e-12)
        assert lo == pytest.approx(-0.6j, abs=1e-12)

    def test_unbroken_regime_real_pair(self):
        hi, lo = eig2(1j * SIGMA_X + 2.0 * SIGMA_Z)
        assert hi == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert lo == pytest.approx(-np.sqrt(3.0), abs=1e-12)

    def test_matches_numpy_on_random_matrices(self):
        for _ in range(25):
            m = random_2x2(2.0)
            ours = eig2(m)
            ref = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag),
                         reverse=True)
            assert abs(ours[0] - ref[0]) < 1e-10
            assert abs(ours[1] - ref[1]) < 1e-10
