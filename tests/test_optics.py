import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aptsim import optics
from aptsim.dynamics import time_grid
from aptsim.model import AptParams, Family
from aptsim.optics import (BeamPaths, DecompositionError, DecompositionParams,
                           bd_circuit, decompose_grid, hwp, loss_matrix, qwp,
                           reconstruct)
from aptsim.propagator import propagators

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
        d = decompose_grid(AptParams(a=1.2), [0.0])
        assert d.lambda1[0] == pytest.approx(1.0, abs=1e-12)
        assert d.lambda2[0] == pytest.approx(1.0, abs=1e-12)
        assert d.c[0] == pytest.approx(1.0, abs=1e-12)
        assert d.xi1_deg[0] == pytest.approx(45.0, abs=1e-9)
        assert d.xi2_deg[0] == pytest.approx(45.0, abs=1e-9)
        assert np.allclose(reconstruct(d)[0], np.eye(2), atol=1e-12)

    def test_exceptional_point_example(self):
        d = decompose_grid(AptParams(a=1.0), [1.0])
        assert d.lambda1[0] == pytest.approx(ROOT2 - 1.0, abs=1e-12)
        assert d.lambda2[0] == pytest.approx(ROOT2 + 1.0, abs=1e-12)
        # arg(A + iB) = pi/4, shifted by the 45-degree phase compensation
        assert d.theta_deg[0] == pytest.approx((45.0 + 180.0) / 4.0, abs=1e-9)

    def test_quarter_period_lambdas(self):
        a = 1.5
        w = np.sqrt(a * a - 1.0)
        d = decompose_grid(AptParams(a=a), [(np.pi / 2.0) / w])
        assert d.lambda1[0] == pytest.approx((a - 1.0) / w, abs=1e-9)
        assert d.lambda2[0] == pytest.approx((a + 1.0) / w, abs=1e-9)

    def test_roundtrip_across_regimes(self):
        times = (0.1, 0.5, 1.0, 2.0, 5.0)
        for a in (0.8, 1.0, 1.2, 1.8):
            p = AptParams(a=a)
            d = decompose_grid(p, times)
            for t, c, plates, u in zip(times, d.c, reconstruct(d), propagators(p, times)):
                err = np.max(np.abs(c * plates - u))
                assert err < 1e-9, f"a={a} t={t}: {err}"

    def test_roundtrip_negative_off_diagonal(self):
        # w t past pi makes C < 0; the branch search must still close
        p = AptParams(a=1.2)
        d = decompose_grid(p, [6.0, 8.5])
        err = np.max(np.abs(d.c[:, None, None] * reconstruct(d) - propagators(p, [6.0, 8.5])))
        assert err < 1e-9

    def test_scale_positive_and_maximal(self):
        for a, t in ((0.8, 2.0), (1.2, 1.0), (1.8, 4.0)):
            d = decompose_grid(AptParams(a=a), [t])
            assert d.c[0] > 0.0
            assert d.c[0] == pytest.approx(max(d.lambda1[0], d.lambda2[0]), abs=1e-15)

    def test_loss_angle_invariants(self):
        for a, t in ((0.8, 1.0), (1.2, 2.5), (1.0, 0.7)):
            d = decompose_grid(AptParams(a=a), [t])
            s1 = np.sin(2.0 * np.deg2rad(d.xi1_deg[0]))
            s2 = np.sin(2.0 * np.deg2rad(d.xi2_deg[0]))
            assert s1 == pytest.approx(d.lambda1[0] / d.c[0], abs=1e-12)
            assert s2 == pytest.approx(d.lambda2[0] / d.c[0], abs=1e-12)
            assert 0.0 <= s1 <= 1.0 and 0.0 <= s2 <= 1.0

    def test_pt_rejected(self):
        with pytest.raises(ValueError):
            decompose_grid(AptParams(a=1.2, family=Family.PT), [0.5, 1.0])

    @pytest.mark.parametrize("a, t_max, dt, first_failing", [
        *(pytest.param(a, 20.0, 0.05, None, id=str(a))
          for a in (0.5, 0.8, 1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.2, 1.8, 2.5)),
        # in the broken regime U grows like cosh(sqrt(1 - a^2) t), until the
        # plates no longer reproduce it to _ROUNDTRIP_TOL of max |U|
        pytest.param(0.5, 1000.0, 2.5, 820.0, id="0.5-to-t1000"),
        pytest.param(0.3, 1000.0, 2.5, 745.0, id="0.3-to-t1000"),
    ])
    def test_grid_stops_at_first_failing_point(self, a, t_max, dt, first_failing):
        p = AptParams(a=a)
        times = time_grid(t_max, dt)
        passing = 0
        for t in times.tolist():
            try:
                decompose_grid(p, [t])
            except DecompositionError:
                break
            passing += 1
        if first_failing is None:
            assert passing == times.size
        else:
            # the grid stops at the first point that fails alone and names it
            assert times[passing] == first_failing
            with pytest.raises(DecompositionError, match=f"^t={first_failing:g}: "):
                decompose_grid(p, times)
        assert passing > 280
        grid = decompose_grid(p, times[:passing])
        for field in dataclasses.fields(grid):
            column = getattr(grid, field.name)
            assert column.shape == (passing,)
            assert column.dtype == float, field.name

    def test_failing_point_names_its_t(self, monkeypatch):
        monkeypatch.setattr(optics, "_ROUNDTRIP_TOL", 0.0)
        with pytest.raises(DecompositionError,
                           match=r"^t=0\.5: no branch reproduced the propagator"):
            decompose_grid(AptParams(a=1.2), [0.5, 1.0])
        with pytest.raises(DecompositionError, match=r"^t=1: no branch"):
            decompose_grid(AptParams(a=1.2), [1.0])

    def test_overflowing_point_names_its_t(self):
        with pytest.raises(DecompositionError, match=r"^t=1000: .*best error inf"):
            decompose_grid(AptParams(a=0.5), [0.0, 1000.0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(theta=st.floats(-360.0, 360.0), xi1=st.floats(0.0, 45.0),
           xi2=st.floats(0.0, 45.0))
    def test_other_branches_repeat_or_negate_off_diagonal(self, theta, xi1, xi2):
        # why decompose_grid() needs one angle theta for both strings: the
        # branch shift (theta, theta) + k (45, -45) gives the k = 0 product
        # for k = 2, and for k = +-1 that product with its off-diagonal
        # negated, which the loss angles already fix through the sign of C
        def strings(theta1, theta2):
            first = optics._FIRST_HEAD @ hwp(theta1) @ optics._QWP45
            second = optics._QWP45 @ hwp(theta2) @ optics._QWP45 @ optics._HWP67_5
            return second @ loss_matrix(xi1, xi2) @ first

        base = reconstruct(DecompositionParams(theta, xi1, xi2, 1.0, np.nan, np.nan))
        assert np.array_equal(strings(theta, theta), base)
        flip = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.max(np.abs(strings(theta + 90.0, theta - 90.0) - base)) < 1e-14
        for sign in (1.0, -1.0):
            k1 = strings(theta + sign * 45.0, theta - sign * 45.0)
            assert np.max(np.abs(k1 - flip * base)) < 1e-14

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.one_of(st.floats(0.05, 5.0, exclude_min=True),
                       st.sampled_from((1.0, 1.0 - 1e-9, 1.0 + 1e-9))),
           gamma=st.floats(0.2, 5.0), reach=st.floats(0.0, 1.0),
           size=st.integers(1, 60))
    def test_one_branch_round_trips_at_any_gamma(self, a, gamma, reach, size):
        p = AptParams(a=a, gamma=gamma)
        times = np.linspace(0.0, reach * 20.0 / gamma, size)
        target = propagators(p, times)
        d = decompose_grid(p, times)
        for c, plates, u in zip(d.c, reconstruct(d), target):
            err = np.max(np.abs(c * plates - u))
            assert err <= optics._ROUNDTRIP_TOL * np.max(np.abs(u))


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
