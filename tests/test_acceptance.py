"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured numbers once its assertions hold."""

import numpy as np
import pytest

from aptsim import cli
from aptsim.dynamics import EvolutionSpec, evolve_pairs, run
from aptsim.entanglement import (analytic_concurrence_identical, concurrence,
                                 concurrence_minimum_identical,
                                 concurrence_period, ep_concurrence)
from aptsim.model import IDENTITY, AptParams, Family, hamiltonian
from aptsim.optics import bd_circuit, decompose_grid, loss_matrix, reconstruct
from aptsim.propagator import propagators
from aptsim.tomography import draw_counts, fidelity, mle_fit

from oracles import expm_series
from trajkit import (brute_concurrence, measured_period, refine_maximum,
                     refine_minimum, refined_peak_times, scan_best_period)


def trajectory(a1, a2, t_max, dt=0.01):
    p2 = IDENTITY if a2 is None else AptParams(a=a2)
    return run(EvolutionSpec(p1=AptParams(a=a1), p2=p2, t_max=t_max, dt=dt))


def test_criterion_01_concurrence_minima_and_peaks():
    details = []
    for a, expected_min in ((1.2, 0.01653), (1.8, 0.16219)):
        traj = trajectory(a, a, 14.0)
        observed_min = float(traj.concurrence.min())
        assert abs(observed_min - expected_min) < 5e-4
        p = AptParams(a=a)
        first_peak = refined_peak_times(traj.times, traj.concurrence)[0]
        _, peak_value = refine_maximum(lambda t: brute_concurrence(p, p, t),
                                       first_peak - 0.2, first_peak + 0.2)
        assert peak_value > 1.0 - 1e-9
        details.append(f"a={a}: min={observed_min:.5f}, peak={peak_value:.12f}")
    print(f"[acceptance] criterion 1: PASS ({'; '.join(details)})")


def test_criterion_02_period_matches_formula_and_decreases():
    measured = {}
    for a in (1.1, 1.2, 1.5, 1.8, 2.5):
        traj = trajectory(a, a, 15.0)
        measured[a] = measured_period(traj.times, traj.concurrence)
    for a in (1.2, 1.8):
        expected = concurrence_period(a)
        assert abs(measured[a] - expected) / expected < 5e-3
    ordered = [measured[a] for a in (1.1, 1.2, 1.5, 1.8, 2.5)]
    assert all(x > y for x, y in zip(ordered, ordered[1:]))
    print(f"[acceptance] criterion 2: PASS (T(1.2)={measured[1.2]:.4f} vs "
          f"{concurrence_period(1.2):.4f}, T(1.8)={measured[1.8]:.4f} vs "
          f"{concurrence_period(1.8):.4f}, monotone over 5 values)")


def test_criterion_03_closed_form_vs_series_oracle():
    worst = 0.0
    for a in (0.5, 0.8, 1.0, 1.01, 1.2, 1.8, 2.0):
        p = AptParams(a=a)
        h = hamiltonian(p)
        times = np.arange(0.0, 10.0 + 1e-9, 0.1)
        for t, u in zip(times, propagators(p, times)):
            gap = float(np.max(np.abs(u - expm_series(h, float(t)))))
            worst = max(worst, gap)
    assert worst < 1e-10
    print(f"[acceptance] criterion 3: PASS (max elementwise gap {worst:.3e})")


def test_criterion_04_inverse_norm_identity():
    cases = [(1.2, 1.2), (1.8, 1.8), (1.01, 1.01), (1.0, 1.0),
             (0.8, 0.8), (1.2, 1.3), (0.8, 2.0), (1.2, None)]
    worst = 0.0
    for a1, a2 in cases:
        traj = trajectory(a1, a2, 10.0)
        gap = float(np.max(np.abs(traj.concurrence - 1.0 / traj.unnormalized_norm)))
        worst = max(worst, gap)
    assert worst < 1e-10
    print(f"[acceptance] criterion 4: PASS (max |C - 1/norm| = {worst:.3e} "
          f"over {len(cases)} trajectories)")


def test_criterion_05_decomposition_roundtrip_and_bd_circuit():
    worst = 0.0
    for a in (0.8, 1.0, 1.2, 1.8):
        p = AptParams(a=a)
        times = [0.1, 0.5, 1.0, 2.0, 5.0]
        d = decompose_grid(p, times)
        recon = d.c[:, None, None] * reconstruct(d)
        worst = max(worst, float(np.max(np.abs(recon - propagators(p, times)))))
    assert worst < 1e-9

    basis = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    worst_bd = 0.0
    for xi1, xi2 in ((45.0, 45.0), (10.0, 30.0), (0.0, 45.0), (27.5, 12.0)):
        for state in basis:
            out = bd_circuit(state, xi1, xi2)
            expected = loss_matrix(xi1, xi2) @ state
            worst_bd = max(worst_bd, float(np.max(np.abs(out.path2 - expected))))
    assert worst_bd < 1e-12
    print(f"[acceptance] criterion 5: PASS (roundtrip {worst:.3e}, "
          f"bd-circuit {worst_bd:.3e})")


def test_criterion_06_near_ep_vanishing_and_revival():
    traj = trajectory(1.01, 1.01, 70.0)
    minimum = float(traj.concurrence.min())
    assert minimum < 4e-4
    after = traj.concurrence[np.argmin(traj.concurrence):]
    revival = float(after.max())
    assert revival > 0.999
    print(f"[acceptance] criterion 6: PASS (min={minimum:.2e}, "
          f"revival={revival:.6f})")


def test_criterion_07_broken_regime_decay_and_delayed_vanishing():
    first_passage = []
    for a2 in (0.8, 1.0, 2.0):
        traj = trajectory(0.8, a2, 10.0)
        below = np.nonzero(traj.concurrence < 0.01)[0]
        assert below.size > 0
        first_passage.append(float(traj.times[below[0]]))
    assert first_passage[0] < first_passage[1] < first_passage[2]

    p = AptParams(a=0.8)
    tail = brute_concurrence(p, p, 10.0)
    assert tail < 1e-3
    print(f"[acceptance] criterion 7: PASS (t* = {first_passage}, "
          f"C(10)={tail:.2e})")


def test_criterion_08_ep_polynomial_decay():
    traj = trajectory(1.0, 1.0, 10.0)
    reference = np.array([ep_concurrence(t) for t in traj.times])
    gap = float(np.max(np.abs(traj.concurrence - reference)))
    assert gap < 1e-10

    p = AptParams(a=1.0)
    at_one = brute_concurrence(p, p, 1.0)
    assert abs(at_one - 1.0 / 17.0) < 1e-12
    print(f"[acceptance] criterion 8: PASS (curve gap {gap:.3e}, "
          f"|C(1) - 1/17| = {abs(at_one - 1 / 17):.3e})")


def test_criterion_09_nonperiodicity_witness():
    base_times = np.arange(0.0, 14.0 + 1e-9, 0.01)

    p1, p2 = AptParams(a=1.2), AptParams(a=1.3)
    _, defect = scan_best_period(
        lambda ts: evolve_pairs([(p1, p2)], ts)[0][0], base_times, 0.5, 40.0)
    assert defect >= 1e-6

    periodic = {}
    for a in (1.2, 1.8):
        p = AptParams(a=a)
        best_t, best_defect = scan_best_period(
            lambda ts: evolve_pairs([(p, p)], ts)[0][0], base_times, 0.5, 40.0)
        assert best_defect < 1e-6
        fundamental = concurrence_period(a)
        cycles = best_t / fundamental
        assert abs(cycles - round(cycles)) < 1e-2
        periodic[a] = (best_t, best_defect)
    print(f"[acceptance] criterion 9: PASS (nonperiodic defect {defect:.3e}; "
          f"periodic 1.2 -> T={periodic[1.2][0]:.4f} defect {periodic[1.2][1]:.1e}, "
          f"1.8 -> T={periodic[1.8][0]:.4f} defect {periodic[1.8][1]:.1e})")


def test_criterion_10_matched_apt_pt_periods():
    a_apt = 1.2
    a_pt = float(np.sqrt(2.0 - a_apt ** 2))  # equal |a^2 - 1|
    apt_traj = trajectory(a_apt, a_apt, 15.0)
    pt_param = AptParams(a=a_pt, family=Family.PT)
    pt_traj = run(EvolutionSpec(p1=pt_param, p2=pt_param, t_max=15.0, dt=0.01))

    t_apt = measured_period(apt_traj.times, apt_traj.concurrence)
    t_pt = measured_period(pt_traj.times, pt_traj.concurrence)
    assert abs(t_apt - t_pt) / t_apt < 5e-3
    assert abs(t_apt - concurrence_period(a_apt, Family.APT)) / t_apt < 5e-3
    assert abs(t_pt - concurrence_period(a_pt, Family.PT)) / t_pt < 5e-3
    print(f"[acceptance] criterion 10: PASS (APT {t_apt:.4f} vs PT {t_pt:.4f}, "
          f"formula {concurrence_period(a_apt):.4f})")


def test_criterion_11_single_qubit_evolution():
    p = AptParams(a=1.2)
    w = 1.2 ** 2 - 1.0
    expected_min = w / (w + 2.0)
    quarter = concurrence_period(1.2) / 2.0
    _, brute_min = refine_minimum(lambda t: brute_concurrence(p, IDENTITY, t),
                                  quarter - 0.5, quarter + 0.5)
    assert abs(brute_min - expected_min) < 1e-6

    base_times = np.arange(0.0, 14.0 + 1e-9, 0.01)
    best_t, defect = scan_best_period(
        lambda ts: evolve_pairs([(p, IDENTITY)], ts)[0][0], base_times, 0.5, 40.0)
    assert defect < 1e-6
    print(f"[acceptance] criterion 11: PASS (min {brute_min:.6f} vs "
          f"{expected_min:.6f}, periodic defect {defect:.1e} at T={best_t:.4f})")


def test_criterion_12_tomography_loop():
    p = AptParams(a=1.2)
    truths = evolve_pairs([(p, p)], 0.5 * np.arange(10), keep_states=True)[2][0]
    observed = draw_counts(truths, total=10000, seed=100, noiseless=True)[1]
    rho_hat = mle_fit(observed, 10000)[0]
    worst_fid = float(fidelity(truths, rho_hat).min())
    worst_gap = max(abs(concurrence(r) - concurrence(truth))
                    for r, truth in zip(rho_hat, truths))
    assert worst_fid > 0.999
    assert worst_gap < 5e-3

    # 100 draws of one state, from seeds 3000-3099
    truths = np.repeat(evolve_pairs([(p, p)], [1.0], keep_states=True)[2][0], 100, axis=0)
    observed = draw_counts(truths, total=10000, seed=3000)[1]
    fids = fidelity(truths, mle_fit(observed, 10000)[0])
    passing = int(np.sum(fids > 0.98))
    assert passing >= 95
    print(f"[acceptance] criterion 12: PASS (noiseless min fid {worst_fid:.6f}, "
          f"max concurrence gap {worst_gap:.2e}; noisy {passing}/100 above 0.98)")


def test_criterion_13_cli_determinism(tmp_path):
    pairs = []
    for tag in ("one", "two"):
        fig_dir = tmp_path / f"fig_{tag}"
        assert cli.main(["figure", "--figure", "2a", "--out", str(fig_dir),
                         "--t-max", "3"]) == 0
        tomo = tmp_path / f"tomo_{tag}.json"
        assert cli.main(["tomography", "--t-max", "1", "--dt", "0.5",
                         "--seed", "11", "--total", "3000",
                         "--out", str(tomo)]) == 0
        pairs.append((fig_dir, tomo))

    (dir1, tomo1), (dir2, tomo2) = pairs
    for name in ("fig2a_1.2_1.2.csv", "fig2a_1.8_1.8.csv"):
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()
    assert tomo1.read_bytes() == tomo2.read_bytes()
    print("[acceptance] criterion 13: PASS (figure and tomography outputs "
          "byte-identical across reruns)")
