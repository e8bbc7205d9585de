import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aptsim
from aptsim import tomography
from aptsim.dynamics import (InvalidStateError, bell_state, evolve_pairs, maximally_mixed,
                             time_grid, validate_density_matrix)
from aptsim.entanglement import concurrence
from aptsim.model import AptParams
from aptsim.tomography import (BASIS_LABELS, MleConvergenceError,
                               basis_set, draw_counts, fidelity, mle_fit)


class TestBasisSet:
    def test_labels_and_order(self):
        bases = basis_set()
        assert [b.label for b in bases] == list(BASIS_LABELS)
        assert len(bases) == 16

    def test_first_basis_is_hh(self):
        b = basis_set()[0]
        assert b.label == "HH"
        assert np.allclose(b.ket, [1, 0, 0, 0], atol=1e-15)

    def test_dd_ket(self):
        dd = next(b for b in basis_set() if b.label == "DD")
        assert np.allclose(dd.ket, np.full(4, 0.5), atol=1e-15)

    def test_all_unit_norm(self):
        for b in basis_set():
            assert np.vdot(b.ket, b.ket) == pytest.approx(1.0, abs=1e-14)

    def test_settings_table(self):
        by_label = {b.label: b for b in basis_set()}
        assert by_label["HH"].settings == ((0.0, 0.0), (0.0, 0.0))
        assert by_label["DR"].settings == ((45.0, 22.5), (0.0, 22.5))
        assert by_label["VL"].settings == ((0.0, 45.0), (45.0, 0.0))

    def test_rl_ket(self):
        rl = next(b for b in basis_set() if b.label == "RL")
        expected = np.kron([1.0, -1.0j], [1.0, 1.0j]) / 2.0
        assert np.allclose(rl.ket, expected, atol=1e-15)


class TestDrawCounts:
    def test_eigenstate_projection(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |HH><HH|
        expected = dict(zip(BASIS_LABELS, draw_counts(rho[None], total=5000, seed=3)[0][0]))
        assert expected["HH"] == pytest.approx(5000.0, abs=1e-9)
        assert expected["VV"] == pytest.approx(0.0, abs=1e-9)

    def test_bell_expected_counts(self):
        expected = dict(zip(BASIS_LABELS,
                            draw_counts(bell_state()[None], total=10000, seed=3)[0][0]))
        assert expected["HH"] == pytest.approx(0.0, abs=1e-9)
        assert expected["HV"] == pytest.approx(5000.0, abs=1e-9)
        assert expected["VH"] == pytest.approx(5000.0, abs=1e-9)
        assert expected["DD"] == pytest.approx(5000.0, abs=1e-9)

    def test_expected_within_range(self):
        rho = evolve_pairs([(AptParams(a=1.2), AptParams(a=1.3))], [2.0], keep_states=True)[2][0, 0]
        for e in draw_counts(rho[None], total=1234, seed=0)[0][0]:
            assert 0.0 <= e <= 1234.0

    def test_seeded_determinism(self):
        a = draw_counts(bell_state()[None], total=10000, seed=77)[1]
        b = draw_counts(bell_state()[None], total=10000, seed=77)[1]
        c = draw_counts(bell_state()[None], total=10000, seed=78)[1]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noiseless_mode(self):
        expected, observed = draw_counts(bell_state()[None], total=999, seed=0, noiseless=True)
        for e, o in zip(expected[0], observed[0]):
            assert o == round(e)

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            draw_counts(bell_state()[None], total=0)


class TestMleFit:
    def test_noiseless_bell(self):
        observed = draw_counts(bell_state()[None], total=10000, seed=0, noiseless=True)[1]
        rho_hat = mle_fit(observed, np.full(observed.shape, 10000))[0]
        fids = fidelity(bell_state()[None], rho_hat)
        assert fids[0] > 0.999
        assert concurrence(rho_hat[0]) > 0.998

    def test_noiseless_maximally_mixed(self):
        observed = draw_counts(maximally_mixed()[None], total=10000, seed=0, noiseless=True)[1]
        fids = fidelity(maximally_mixed()[None],
                        mle_fit(observed, np.full(observed.shape, 10000))[0])
        assert fids[0] > 0.999

    def test_output_always_physical(self):
        rho = evolve_pairs([(AptParams(a=1.2), AptParams(a=1.3))], [1.0], keep_states=True)[2][0, 0]
        observed = draw_counts(rho[None], total=500, seed=5)[1]
        result = mle_fit(observed, np.full(observed.shape, 500))
        rho_hat, _, iterations = result
        validate_density_matrix(rho_hat[0])
        assert len(result) == 3  # estimates, log-likelihoods, steps: no scores
        assert iterations[0] > 0

    def test_log_likelihood_is_poisson(self):
        observed = draw_counts(bell_state()[None], total=1000, seed=9)[1]
        totals = np.full(observed.shape, 1000)
        rho_hat, log_likelihood, _ = mle_fit(observed, totals)
        mus = np.array([n_b * max(float(np.real(np.vdot(b.ket, rho_hat[0] @ b.ket))), 1e-14)
                        for n_b, b in zip(totals[0], basis_set())])
        expected_ll = float(np.sum(observed[0] * np.log(mus) - mus))
        assert log_likelihood[0] == pytest.approx(expected_ll, abs=1e-6)

    def test_fidelity_improves_with_counts(self):
        rho = evolve_pairs([(AptParams(a=1.2), AptParams(a=1.2))], [1.0], keep_states=True)[2][0, 0]
        medians = []
        for total in (1000, 10000, 1000000):
            fids = []
            for seed in range(15):
                observed = draw_counts(rho[None], total=total, seed=500 + seed)[1]
                rho_hat = mle_fit(observed, np.full(observed.shape, total))[0]
                fids.append(fidelity(rho[None], rho_hat)[0])
            medians.append(float(np.median(fids)))
        assert medians[0] <= medians[1] <= medians[2]

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(tomography, "MAX_PASSES", 2)
        observed = draw_counts(bell_state()[None], total=10000, seed=1)[1]
        with pytest.raises(MleConvergenceError):
            mle_fit(observed, np.full(observed.shape, 10000))


class TestMleFitInput:
    """Malformed counts raise ValueError naming the first bad point."""

    @pytest.mark.parametrize("observed_shape,totals_shape", [
        ((1, 15), (1, 15)), ((16,), (16,)), ((1, 1, 16), (1, 1, 16)), ((1, 16), (2, 16))])
    def test_shape(self, observed_shape, totals_shape):
        message = (f"observed and totals must both be (P, 16), "
                   f"got {observed_shape} and {totals_shape}")
        with pytest.raises(ValueError, match=re.escape(message)):
            mle_fit(np.ones(observed_shape), np.ones(totals_shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_observed_not_finite_or_negative(self, value):
        observed, totals = np.full((3, 16), 10.0), np.full((3, 16), 100.0)
        observed[1, 4] = observed[2, 0] = value
        message = f"observed counts must be finite and >= 0, got {value} at point 1, basis RH"
        with pytest.raises(ValueError, match=re.escape(message)):
            mle_fit(observed, totals)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -5.0])
    def test_totals_not_finite_or_positive(self, value):
        observed, totals = np.full((3, 16), 10.0), np.full((3, 16), 100.0)
        totals[2, 15] = totals[1, 7] = value
        message = f"totals must be finite and > 0, got {value} at point 1, basis DH"
        with pytest.raises(ValueError, match=re.escape(message)):
            mle_fit(observed, totals)


def _frank_wolfe_gap(rho, observed, totals):
    """<G, rho> - lambda_min(G) for G the gradient of
    f = sum_b [N_b p_b - n_b log p_b] at rho, for one point's 16 observed
    counts n_b and totals N_b. f is convex, so the gap bounds
    f(rho) - min f over density matrices, and it is 0 only at the
    maximum-likelihood state."""
    kets = np.array([b.ket for b in basis_set()])
    p = np.real(np.einsum("bi,ij,bj->b", kets.conj(), rho, kets))
    w = totals - np.divide(observed, p, out=np.zeros(16), where=observed != 0)
    g = np.einsum("b,bi,bj->ij", w, kets, kets.conj())
    return float(np.real(np.vdot(g, rho))) - float(np.linalg.eigvalsh(g)[0])


def _random_state(rank, seed):
    f = np.random.default_rng(seed).normal(size=(4, rank, 2)).view(complex)[..., 0]
    rho = f @ f.conj().T
    return (rho + rho.conj().T) / (2.0 * np.real(np.trace(rho)))


class TestMleOptimality:
    # The fit stops only once its Newton decrement is below 1e-13 * sum_b N_b
    # and its own Frank-Wolfe gap below 1e-6 * sum_b N_b. Over 1,500 random
    # draws of state, seed and total (1e2 to 1e6 per basis) the gap at the
    # estimate was at most 9.6e-8 * sum_b N_b, and at most 1.2e-7 * sum_b N_b
    # over 1,000 near-pure draws.
    GAP_PER_COUNT = 1e-5

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rank=st.integers(1, 4), state_seed=st.integers(0, 2 ** 32 - 1),
           count_seed=st.integers(0, 2 ** 31 - 1), log_total=st.floats(2.0, 6.0))
    def test_frank_wolfe_gap_at_estimate(self, rank, state_seed, count_seed, log_total):
        total = int(10 ** log_total)
        observed = draw_counts(_random_state(rank, state_seed)[None], total=total,
                               seed=count_seed)[1]
        totals = np.full(observed.shape, total)
        rho_hat = mle_fit(observed, totals)[0]
        gap = _frank_wolfe_gap(rho_hat[0], observed[0], totals[0])
        assert gap < self.GAP_PER_COUNT * totals.sum()

    def test_batch_matches_one_at_a_time(self):
        p = AptParams(a=1.2)
        observed = np.concatenate([
            draw_counts(evolve_pairs([(p, p)], [0.5 * i], keep_states=True)[2][0], total=10000,
                        seed=40 + i, noiseless=i % 3 == 2)[1] for i in range(10)])
        totals = np.full(observed.shape, 10000)
        rho, _, iterations = mle_fit(observed, totals)
        rho_reversed, _, iterations_reversed = mle_fit(observed[::-1], totals)
        for i in range(10):
            rho_alone, _, iterations_alone = mle_fit(observed[i:i + 1], totals[i:i + 1])
            for rho_other, iterations_other in ((rho[i], iterations[i]),
                                                (rho_reversed[9 - i], iterations_reversed[9 - i])):
                assert fidelity(rho_alone[0], rho_other) >= 1.0 - 1e-9
                assert iterations_other == iterations_alone[0]

    def test_batched_fidelities_match_one_at_a_time(self):
        p = AptParams(a=0.8)
        truths = evolve_pairs([(p, p)], 0.5 * np.arange(10), keep_states=True)[2][0]
        observed = np.concatenate([draw_counts(rho[None], total=2000, seed=60 + i,
                                               noiseless=i == 4)[1]
                                   for i, rho in enumerate(truths)])
        totals = np.full(observed.shape, 2000)
        rho_hat = mle_fit(observed, totals)[0]
        fids = fidelity(truths, rho_hat)  # two (P,4,4) stacks: a (P,) array
        assert fids.shape == (10,)
        for i in range(10):
            alone = fidelity(truths[i:i + 1], mle_fit(observed[i:i + 1], totals[i:i + 1])[0])
            assert fids[i] == alone[0]
            single = fidelity(truths[i], rho_hat[i])  # two states: a float
            assert type(single) is float and fids[i] == single

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(log_eps=st.floats(-6.0, -3.0), rank=st.integers(1, 4),
           state_seed=st.integers(0, 2 ** 32 - 1), noise_seed=st.integers(0, 2 ** 32 - 1),
           count_seed=st.integers(0, 2 ** 31 - 1), log_total=st.floats(2.0, 4.0))
    def test_frank_wolfe_gap_near_pure(self, log_eps, rank, state_seed, noise_seed,
                                       count_seed, log_total):
        # (1 - eps) |psi><psi| + eps sigma: estimates with a tiny eigenvalue
        # and bases of a few counts, where the problem is worst conditioned
        eps = 10.0 ** log_eps
        rho = (1.0 - eps) * _random_state(1, state_seed) + eps * _random_state(rank, noise_seed)
        total = int(10 ** log_total)
        observed = draw_counts(rho[None], total=total, seed=count_seed)[1]
        totals = np.full(observed.shape, total)
        rho_hat = mle_fit(observed, totals)[0]
        gap = _frank_wolfe_gap(rho_hat[0], observed[0], totals[0])
        assert gap < self.GAP_PER_COUNT * totals.sum()

    def test_tail_point_converges(self):
        # t = 2.5 of `tomography --seed 10` at its defaults: bases of 1-6
        # counts next to thousands make a near-pure, badly conditioned fit
        p = AptParams(a=1.2)
        times = time_grid(4.5, 0.5)
        assert times[5] == 2.5
        states = evolve_pairs([(p, p)], times, keep_states=True)[2][0]
        observed = draw_counts(states[5][None], total=10000, seed=15)[1]
        totals = np.full(observed.shape, 10000)
        rho_hat, _, iterations = mle_fit(observed, totals)
        assert iterations[0] <= 40
        gap = _frank_wolfe_gap(rho_hat[0], observed[0], totals[0])
        assert gap < self.GAP_PER_COUNT * totals.sum()

    def test_slowest_point_of_default_runs(self):
        # `tomography --seed s` at its defaults for s = 0-29; a run's slowest
        # point sets its cost. The mean of the largest `iterations` is 11.8.
        p = AptParams(a=1.2)
        states = evolve_pairs([(p, p)], time_grid(4.5, 0.5), keep_states=True)[2][0]
        totals = np.full((len(states), 16), 10000)
        worst = [mle_fit(draw_counts(states, total=10000, seed=s)[1], totals)[2].max()
                 for s in range(30)]
        assert np.mean(worst) <= 30

    def test_batch_is_bit_for_bit_independent(self):
        p = AptParams(a=1.2)
        states = evolve_pairs([(p, p)], time_grid(4.5, 0.5), keep_states=True)[2][0]
        observed = np.concatenate([draw_counts(states, total=10000, seed=10,
                                               noiseless=noiseless)[1]
                                   for noiseless in (False, True)])
        totals = np.full(observed.shape, 10000)
        batch = mle_fit(observed, totals)
        odd_first = mle_fit(np.concatenate([observed[1::2], observed[::2]]), totals)
        for i in range(len(observed)):
            alone = mle_fit(observed[i:i + 1], totals[i:i + 1])
            j = i // 2 + (0 if i % 2 else len(observed) // 2)
            for result, k in ((batch, i), (odd_first, j)):
                assert np.array_equal(result[0][k], alone[0][0])
                assert result[1][k] == alone[1][0]
                assert result[2][k] == alone[2][0]

    def test_batch_size_sweep(self):
        # 20 CLI-default points, noisy and noiseless, fitted in consecutive
        # batches of each size against each point fitted alone
        p = AptParams(a=1.2)
        states = evolve_pairs([(p, p)], time_grid(4.5, 0.5), keep_states=True)[2][0]
        observed = np.concatenate([draw_counts(states, 10000, 30, noiseless)[1]
                                   for noiseless in (False, True)])
        totals = np.full(observed.shape, 10000)
        alone = [mle_fit(observed[i:i + 1], totals[i:i + 1]) for i in range(20)]
        for size in (1, 2, 7, 10, 20):
            for start in range(0, 20, size):
                rho, log_likelihood, iterations = mle_fit(
                    observed[start:start + size], totals[start:start + size])
                for j in range(len(rho)):
                    rho_1, ll_1, iterations_1 = alone[start + j]
                    assert np.array_equal(rho[j], rho_1[0])
                    assert log_likelihood[j] == ll_1[0]
                    assert iterations[j] == iterations_1[0]

    def test_failed_certificate_restarts(self, monkeypatch):
        # with no Frank-Wolfe gap accepted, every stationary point counts as
        # a saddle and takes a Frank-Wolfe step, until the pass cap
        steps = []
        real_step = tomography._frank_wolfe_step
        monkeypatch.setattr(tomography, "_TOL_GAP", -1.0)
        monkeypatch.setattr(tomography, "MAX_PASSES", 60)
        monkeypatch.setattr(tomography, "_frank_wolfe_step",
                            lambda x, *rest: steps.append(len(x)) or real_step(x, *rest))
        observed = draw_counts(bell_state()[None], total=10000, seed=1)[1]
        with pytest.raises(MleConvergenceError):
            mle_fit(observed, np.full(observed.shape, 10000))
        assert len(steps) > 2

    def test_failed_certificate_point_converges(self, monkeypatch):
        # t = 1508.5 of `tomography --seed 3016 --t-max 1508.5 --dt 1508.5`
        # (seed 3017, a pure truth): Newton stops where the gap is 1.7e-6,
        # and a restart mixed with I/4 led back to that point until the pass
        # cap. One Frank-Wolfe step leaves it; the fit takes 8 passes.
        monkeypatch.setattr(tomography, "MAX_PASSES", 20)
        observed = np.array([[2436, 2538, 2588, 2522, 0, 1, 2475, 2502,
                              0, 2477, 0, 2412, 2403, 4920, 5041, 0]])
        totals = np.full(observed.shape, 10000)
        alone = mle_fit(observed, totals)
        validate_density_matrix(alone[0][0])
        gap = _frank_wolfe_gap(alone[0][0], observed[0], totals[0])
        assert gap < self.GAP_PER_COUNT * totals.sum()
        # the Frank-Wolfe step keeps the point's fit independent of its batch
        p = AptParams(a=1.2)
        states = evolve_pairs([(p, p)], time_grid(4.5, 0.5), keep_states=True)[2][0]
        batch = np.concatenate([draw_counts(states, total=10000, seed=3)[1], observed])
        result = mle_fit(batch, np.full(batch.shape, 10000))
        for fitted, one in zip(result, alone):
            assert np.array_equal(fitted[-1], one[0])

    def test_batch_error_names_stalled_points(self, monkeypatch):
        # two Bell states drawn with seeds 1 and 2
        monkeypatch.setattr(tomography, "MAX_PASSES", 2)
        observed = draw_counts(np.array([bell_state()] * 2), total=10000, seed=1)[1]
        with pytest.raises(MleConvergenceError) as err:
            mle_fit(observed, np.full(observed.shape, 10000))
        assert err.value.points == (0, 1)


def test_import_leaves_scipy_out():
    code = "import sys, aptsim, aptsim.cli; print('scipy' in sys.modules)"
    src = str(Path(aptsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


class TestFidelity:
    def test_self_fidelity(self):
        # both factors come from eigh, cut at rank_factor's threshold, and no
        # square root of a noise eigenvalue is taken: a rank-1 state is 1 to
        # a few eps
        rho = evolve_pairs([(AptParams(a=1.2), AptParams(a=1.3))], [1.0], keep_states=True)[2][0, 0]
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        hh = np.zeros((4, 4), dtype=complex)
        hh[0, 0] = 1.0
        vv = np.zeros((4, 4), dtype=complex)
        vv[3, 3] = 1.0
        assert fidelity(hh, vv) == pytest.approx(0.0, abs=1e-12)

    def test_bell_vs_maximally_mixed(self):
        assert fidelity(bell_state(), maximally_mixed()) == pytest.approx(0.25, abs=1e-14)

    def test_symmetry(self):
        a = evolve_pairs([(AptParams(a=1.2), AptParams(a=1.3))], [0.7], keep_states=True)[2][0, 0]
        b = maximally_mixed()
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-14)

    def test_non_state_raises_naming_its_index(self):
        # both stacks are validated, as rank_factor validates every input
        states = np.array([bell_state(), 2.0 * maximally_mixed(), maximally_mixed()])
        good = np.array([bell_state()] * 3)
        for a, b in ((states, good), (good, states)):
            with pytest.raises(InvalidStateError, match=r"^state 1: trace is \(2\+0j\)"):
                fidelity(a, b)
        # two 4x4 states are factored as (1,4,4) stacks
        with pytest.raises(InvalidStateError, match=r"^state 0: trace is \(2\+0j\)"):
            fidelity(bell_state(), 2.0 * maximally_mixed())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rank=st.integers(1, 4), log_eps=st.floats(-16.0, 0.0),
           ket_seed=st.integers(0, 2 ** 32 - 1), state_seed=st.integers(0, 2 ** 32 - 1))
    def test_rank_one_truth_is_overlap(self, rank, log_eps, ket_seed, state_seed):
        # F(|psi><psi|, rho) = <psi|rho|psi>, here against 50 digits, for rho
        # near psi (eps -> 0) and far from it
        mp = pytest.importorskip("mpmath")
        psi = np.random.default_rng(ket_seed).normal(size=(4, 2)).view(complex)[:, 0]
        psi = psi / np.linalg.norm(psi)
        truth = np.outer(psi, psi.conj())
        eps = 10.0 ** log_eps
        rho = (1.0 - eps) * truth + eps * _random_state(rank, state_seed)
        rho = (rho + rho.conj().T) / 2.0
        with mp.workdps(50):
            ket = mp.matrix([mp.mpc(complex(x)) for x in psi])
            r = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in rho])
            exact = float(mp.re((ket.H * r * ket)[0]))
        assert abs(fidelity(truth, rho) - exact) < 1e-13
