import numpy as np
import pytest

from aptsim import optics
from aptsim.model import AptParams, Family
from aptsim.optics import (BeamPaths, DecompositionError, DecompositionParams,
                           bd_circuit, decompose, decompose_grid, hwp, loss_matrix,
                           qwp, reconstruct)
from aptsim.propagator import closed_form

RNG = np.random.default_rng(11)

ROOT2 = np.sqrt(2.0)


class TestWavePlates:
    def test_hwp_22_5(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / ROOT2
        assert np.allclose(hwp(22.5), expected, atol=1e-15)

    def test_hwp_67_5(self):
        expected = np.array([[-1.0, 1.0], [1.0, 1.0]]) / ROOT2
        assert np.allclose(hwp(67.5), expected, atol=1e-15)

    def test_hwp_pair_identity(self):
        expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) / ROOT2
        assert np.allclose(hwp(0.0) @ hwp(22.5), expected, atol=1e-15)

    def test_sandwich_is_diagonal_up_to_global_phase(self):
        # QWP(45) HWP(th) QWP(45) = -i * diag(-e^{-2i th}, e^{2i th})
        for theta in (0.0, 13.0, 45.0, 56.25, 120.0):
            got = qwp(45.0) @ hwp(theta) @ qwp(45.0)
            rad = np.deg2rad(theta)
            diag = np.diag([-np.exp(-2j * rad), np.exp(2j * rad)])
            assert np.max(np.abs(got - (-1j) * diag)) < 1e-14

    def test_hwp_hermitian_unitary_det_minus_one(self):
        for _ in range(10):
            m = hwp(float(RNG.uniform(0.0, 180.0)))
            assert np.allclose(m, m.conj().T, atol=1e-14)
            assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-14)
            assert np.linalg.det(m) == pytest.approx(-1.0, abs=1e-12)

    def test_qwp_unitary(self):
        for _ in range(10):
            m = qwp(float(RNG.uniform(0.0, 180.0)))
            assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-14)

    def test_angles_taken_modulo_180(self):
        # the angle is reduced before any trigonometry, so equal settings
        # give equal bits, and an array of angles is a stack of the scalar calls
        assert np.array_equal(hwp(190.0), hwp(10.0))
        assert np.array_equal(qwp(-45.0), qwp(135.0))
        angles = np.array([[-45.0, 0.0, 22.5], [135.0, 190.0, 359.0]])
        for plate in (hwp, qwp):
            stack = plate(angles)
            assert stack.shape == (2, 3, 2, 2)
            for index in np.ndindex(angles.shape):
                assert np.array_equal(stack[index], plate(float(angles[index])))


class TestDecompose:
    def test_time_zero_is_identity(self):
        d = decompose(AptParams(a=1.2), 0.0)
        assert d.lambda1 == pytest.approx(1.0, abs=1e-12)
        assert d.lambda2 == pytest.approx(1.0, abs=1e-12)
        assert d.c == pytest.approx(1.0, abs=1e-12)
        assert d.xi1_deg == pytest.approx(45.0, abs=1e-9)
        assert d.xi2_deg == pytest.approx(45.0, abs=1e-9)
        assert np.allclose(reconstruct(d), np.eye(2), atol=1e-12)

    def test_exceptional_point_example(self):
        d = decompose(AptParams(a=1.0), 1.0)
        assert d.lambda1 == pytest.approx(ROOT2 - 1.0, abs=1e-12)
        assert d.lambda2 == pytest.approx(ROOT2 + 1.0, abs=1e-12)
        # arg(A + iB) = pi/4, shifted by the 45-degree phase compensation
        assert d.theta1_deg == pytest.approx((45.0 + 180.0) / 4.0, abs=1e-9)
        assert d.theta2_deg == pytest.approx(d.theta1_deg, abs=1e-9)

    def test_quarter_period_lambdas(self):
        a = 1.5
        w = np.sqrt(a * a - 1.0)
        d = decompose(AptParams(a=a), (np.pi / 2.0) / w)
        assert d.lambda1 == pytest.approx((a - 1.0) / w, abs=1e-9)
        assert d.lambda2 == pytest.approx((a + 1.0) / w, abs=1e-9)

    def test_roundtrip_across_regimes(self):
        times = (0.1, 0.5, 1.0, 2.0, 5.0)
        for a in (0.8, 1.0, 1.2, 1.8):
            p = AptParams(a=a)
            for t, d in zip(times, decompose_grid(p, times)):
                err = np.max(np.abs(d.c * reconstruct(d) - closed_form(p, t)))
                assert err < 1e-9, f"a={a} t={t}: {err}"

    def test_roundtrip_negative_off_diagonal(self):
        # w t past pi makes C < 0; the branch search must still close
        p = AptParams(a=1.2)
        for t in (6.0, 8.5):
            d = decompose(p, t)
            err = np.max(np.abs(d.c * reconstruct(d) - closed_form(p, t)))
            assert err < 1e-9

    def test_scale_positive_and_maximal(self):
        for a, t in ((0.8, 2.0), (1.2, 1.0), (1.8, 4.0)):
            d = decompose(AptParams(a=a), t)
            assert d.c > 0.0
            assert d.c == pytest.approx(max(d.lambda1, d.lambda2), abs=1e-15)

    def test_loss_angle_invariants(self):
        for a, t in ((0.8, 1.0), (1.2, 2.5), (1.0, 0.7)):
            d = decompose(AptParams(a=a), t)
            s1 = np.sin(2.0 * np.deg2rad(d.xi1_deg))
            s2 = np.sin(2.0 * np.deg2rad(d.xi2_deg))
            assert s1 == pytest.approx(d.lambda1 / d.c, abs=1e-12)
            assert s2 == pytest.approx(d.lambda2 / d.c, abs=1e-12)
            assert 0.0 <= s1 <= 1.0 and 0.0 <= s2 <= 1.0

    def test_pt_rejected(self):
        with pytest.raises(ValueError):
            decompose(AptParams(a=1.2, family=Family.PT), 1.0)
        with pytest.raises(ValueError):
            decompose_grid(AptParams(a=1.2, family=Family.PT), [0.5, 1.0])

    @pytest.mark.parametrize("a", [0.5, 0.8, 1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.2, 1.8, 2.5])
    def test_grid_equals_one_point(self, a):
        p = AptParams(a=a)
        times = np.arange(401) * 0.05  # t up to 20
        singles = []
        for t in times.tolist():
            try:
                singles.append(decompose(p, t))
            except DecompositionError:
                # if a point fails, the grid must stop at the same point
                # and name it
                with pytest.raises(DecompositionError, match=f"^t={t:g}: "):
                    decompose_grid(p, times)
                break
        assert len(singles) > 280
        assert decompose_grid(p, times[:len(singles)]) == singles

    def test_failing_point_names_its_t(self, monkeypatch):
        monkeypatch.setattr(optics, "_ROUNDTRIP_TOL", 0.0)
        with pytest.raises(DecompositionError,
                           match=r"^t=0\.5: no branch reproduced the propagator"):
            decompose_grid(AptParams(a=1.2), [0.5, 1.0])
        with pytest.raises(DecompositionError, match=r"^t=1: no branch"):
            decompose(AptParams(a=1.2), 1.0)

    def test_overflowing_point_names_its_t(self):
        with pytest.raises(DecompositionError, match=r"^t=1000: .*best error inf"):
            decompose_grid(AptParams(a=0.5), [0.0, 1000.0])


class TestBeamDisplacerCircuit:
    def test_h_input(self):
        out = bd_circuit(np.array([1.0, 0.0]), 30.0, 20.0)
        assert np.allclose(out.path2,
                           [0.0, np.sin(np.deg2rad(40.0))], atol=1e-14)
        assert out.lost_path3_h == pytest.approx(np.cos(np.deg2rad(40.0)), abs=1e-14)
        assert out.lost_path1_v == 0.0

    def test_v_input(self):
        out = bd_circuit(np.array([0.0, 1.0]), 30.0, 20.0)
        assert np.allclose(out.path2,
                           [np.sin(np.deg2rad(60.0)), 0.0], atol=1e-14)
        assert out.lost_path1_v == pytest.approx(-np.cos(np.deg2rad(60.0)), abs=1e-14)
        assert out.lost_path3_h == 0.0

    def test_matches_loss_matrix(self):
        for _ in range(20):
            state = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            xi1, xi2 = RNG.uniform(0.0, 45.0, size=2)
            out = bd_circuit(state, float(xi1), float(xi2))
            expected = loss_matrix(float(xi1), float(xi2)) @ state
            assert np.max(np.abs(out.path2 - expected)) < 1e-12

    def test_full_swap_at_45(self):
        state = np.array([0.6, 0.8j])
        out = bd_circuit(state, 45.0, 45.0)
        assert out.survival_probability == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(out.path2, [0.8j, 0.6], atol=1e-14)

    def test_survival_bounded_and_lossy_off_45(self):
        state = np.array([1.0, 1.0]) / ROOT2
        for xi1, xi2 in ((10.0, 45.0), (45.0, 30.0), (5.0, 5.0)):
            out = bd_circuit(state, xi1, xi2)
            assert out.survival_probability < 1.0
        for _ in range(10):
            state = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            state = state / np.linalg.norm(state)
            xi1, xi2 = RNG.uniform(0.0, 45.0, size=2)
            out = bd_circuit(state, float(xi1), float(xi2))
            assert out.survival_probability <= 1.0 + 1e-12

    def test_result_type(self):
        out = bd_circuit(np.array([1.0, 0.0]), 10.0, 20.0)
        assert isinstance(out, BeamPaths)
