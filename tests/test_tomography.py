import os
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aptsim
from aptsim import tomography
from aptsim.dynamics import InvalidStateError, bell_state, evolve_pairs, rank_factor, time_grid
from aptsim.linalg import uhlmann, wootters
from aptsim.optics import hwp, qwp
from aptsim.propagator import AptParams
from aptsim.tomography import (BASIS_LABELS, MleConvergenceError, draw_counts,
                               mle_fit)

from oracles import maximally_mixed
from trajkit import evolved_states, fitted_states, truth_factors

# (QWP, HWP) setting angles, degrees, that project one photon onto each
# single-photon state of the 16 bases of James, Kwiat, Munro & White
# (PRA 64, 052312, 2001)
SETTINGS = {
    "H": (0.0, 0.0),
    "V": (0.0, 45.0),
    "D": (45.0, 22.5),
    "R": (0.0, 22.5),
    "L": (45.0, 0.0),
}
BELL = rank_factor(bell_state())[None]  # the factor of one Bell state
Basis = namedtuple("Basis", "label ket settings")  # settings: ((qwp1, hwp1), (qwp2, hwp2))
# each basis in BASIS_LABELS order, with the ket that the fit projects onto
BASES = [Basis(label, ket, (SETTINGS[label[0]], SETTINGS[label[1]]))
         for label, ket in zip(BASIS_LABELS, tomography._KETS)]


class TestBasisSet:
    def test_labels_and_order(self):
        assert [b.label for b in BASES] == list(BASIS_LABELS)
        assert len(BASES) == 16

    def test_first_basis_is_hh(self):
        b = BASES[0]
        assert b.label == "HH"
        assert np.allclose(b.ket, [1, 0, 0, 0], atol=1e-15)

    def test_dd_ket(self):
        dd = next(b for b in BASES if b.label == "DD")
        assert np.allclose(dd.ket, np.full(4, 0.5), atol=1e-15)

    def test_all_unit_norm(self):
        for b in BASES:
            assert np.vdot(b.ket, b.ket) == pytest.approx(1.0, abs=1e-14)

    def test_settings_table(self):
        by_label = {b.label: b for b in BASES}
        assert by_label["HH"].settings == ((0.0, 0.0), (0.0, 0.0))
        assert by_label["DR"].settings == ((45.0, 22.5), (0.0, 22.5))
        assert by_label["VL"].settings == ((0.0, 45.0), (45.0, 0.0))

    def test_settings_realize_kets(self):
        # light passes the QWP, then the HWP, then a PBS that transmits H, so
        # photon k is projected onto (HWP QWP)^H |H> at its (qwp, hwp) angles
        horizontal = np.array([1.0, 0.0])
        for b in BASES:
            analyzed = [(hwp(h) @ qwp(q)).conj().T @ horizontal for q, h in b.settings]
            overlap = np.vdot(np.kron(*analyzed), b.ket)
            assert abs(overlap) == pytest.approx(1.0, abs=1e-12), b.label

    def test_rl_ket(self):
        rl = next(b for b in BASES if b.label == "RL")
        expected = np.kron([1.0, -1.0j], [1.0, 1.0j]) / 2.0
        assert np.allclose(rl.ket, expected, atol=1e-15)


class TestDrawCounts:
    def test_eigenstate_projection(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |HH><HH|
        expected = dict(zip(BASIS_LABELS,
                            draw_counts(rank_factor(rho)[None], total=5000, seed=3)[0][0]))
        assert expected["HH"] == pytest.approx(5000.0, abs=1e-9)
        assert expected["VV"] == pytest.approx(0.0, abs=1e-9)

    def test_bell_expected_counts(self):
        expected = dict(zip(BASIS_LABELS, draw_counts(BELL, total=10000, seed=3)[0][0]))
        assert expected["HH"] == pytest.approx(0.0, abs=1e-9)
        assert expected["HV"] == pytest.approx(5000.0, abs=1e-9)
        assert expected["VH"] == pytest.approx(5000.0, abs=1e-9)
        assert expected["DD"] == pytest.approx(5000.0, abs=1e-9)

    def test_expected_within_range(self):
        truth = truth_factors([(AptParams(a=1.2), AptParams(a=1.3))], [2.0])[0]
        for e in draw_counts(truth, total=1234, seed=0)[0][0]:
            assert 0.0 <= e <= 1234.0

    def test_seeded_determinism(self):
        a = draw_counts(BELL, total=10000, seed=77)[1]
        b = draw_counts(BELL, total=10000, seed=77)[1]
        c = draw_counts(BELL, total=10000, seed=78)[1]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_next_seed_shares_no_stream(self):
        # point 1 of seed 0 and point 0 of seed 1 draw from generators of
        # their own, not both from one seeded with 1
        shifted = draw_counts(np.concatenate([BELL, BELL]), total=10000, seed=0)[1][1]
        assert not np.array_equal(shifted, draw_counts(BELL, total=10000, seed=1)[1][0])

    def test_seed_fits_one_word(self):
        # numpy splits a seed >= 2**32 into 32-bit words: [2**32, 0] would
        # draw point 1 of seed 0's stream
        assert draw_counts(BELL, total=10000, seed=2 ** 32 - 1)[1].shape == (1, 16)
        for seed in (-1, 2 ** 32, 2 ** 64):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*32\)"):
                draw_counts(BELL, total=10000, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 31, 2 ** 32 - 1])
    def test_streams_are_the_documented_ones(self, seed):
        # point i draws from default_rng([seed, i]), as README states
        truths = truth_factors([(AptParams(a=1.2), AptParams(a=1.3))], time_grid(4.5, 0.5))[0]
        expected, observed = draw_counts(truths, total=10000, seed=seed)
        for i, e in enumerate(expected):
            assert np.array_equal(observed[i], np.random.default_rng([seed, i]).poisson(e))

    def test_noiseless_mode(self):
        expected, observed = draw_counts(BELL, total=999, seed=0, noiseless=True)
        for e, o in zip(expected[0], observed[0]):
            assert o == round(e)

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            draw_counts(BELL, total=0)

    @pytest.mark.parametrize("bad,message", [
        ({1: np.nan}, "factor 1: non-finite entries"),
        ({1: np.inf}, "factor 1: non-finite entries"),
        ({1: 1.0}, "factor 1: trace is 1.5, expected 1"),
        (None, "expected a (..., 4, r) factor, got shape (3, 3, 1)"),
        ({0: 1.0, 1: np.nan}, "factor 0: trace is 1.5, expected 1")],
        ids=["nan", "inf", "trace", "shape", "trace-then-nan"])
    def test_names_the_first_bad_factor(self, bad, message):
        # factor 2 is bad too: the first bad one is named, whatever its fault;
        # bad sets entry 1 of the factors it names
        ket = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        factors = np.repeat(ket[None, :, None], 3, axis=0)
        if bad is None:
            factors = factors[:, :3]
        else:
            for i, value in bad.items():
                factors[i, 1, 0] = value
            factors[2] *= 2.0
        with pytest.raises(InvalidStateError, match="^" + re.escape(message) + "$"):
            draw_counts(factors, total=10000, seed=0)

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_expected_is_the_state_probability(self, rank):
        # the expected counts over the total are <b|F F^H|b>, to rounding
        f = np.random.default_rng(rank).normal(size=(5, 4, rank, 2)).view(complex)[..., 0]
        f /= np.sqrt((np.abs(f) ** 2).sum(axis=(1, 2)))[:, None, None]
        kets = tomography._KETS
        rho = f @ f.conj().swapaxes(-1, -2)
        p = np.real(np.einsum("bi,pij,bj->pb", kets.conj(), rho, kets))
        assert np.max(np.abs(draw_counts(f, total=1, seed=0)[0] - p)) <= 1e-15


class TestMleFit:
    def test_noiseless_bell(self):
        observed = draw_counts(BELL, total=10000, seed=0, noiseless=True)[1]
        t_hat = mle_fit(observed, 10000)[0]
        fids = uhlmann(rank_factor(bell_state()[None]), t_hat)
        assert fids[0] > 0.999
        assert wootters(t_hat[0])[0] > 0.998

    def test_noiseless_maximally_mixed(self):
        observed = draw_counts(rank_factor(maximally_mixed())[None], total=10000, seed=0,
                               noiseless=True)[1]
        fids = uhlmann(rank_factor(maximally_mixed()[None]), mle_fit(observed, 10000)[0])
        assert fids[0] > 0.999

    def test_output_always_physical(self):
        truth = truth_factors([(AptParams(a=1.2), AptParams(a=1.3))], [1.0])[0]
        observed = draw_counts(truth, total=500, seed=5)[1]
        result = mle_fit(observed, 500)
        t_hat, _, iterations = result
        rank_factor(fitted_states(t_hat[0]))
        assert len(result) == 3  # estimates, log-likelihoods, steps: no scores
        assert iterations[0] > 0

    def test_log_likelihood_is_poisson(self):
        observed = draw_counts(BELL, total=1000, seed=9)[1]
        t_hat, log_likelihood, _ = mle_fit(observed, 1000)
        rho_hat = fitted_states(t_hat)
        mus = np.array([1000 * max(float(np.real(np.vdot(ket, rho_hat[0] @ ket))), 1e-14)
                        for ket in tomography._KETS])
        expected_ll = float(np.sum(observed[0] * np.log(mus) - mus))
        assert log_likelihood[0] == pytest.approx(expected_ll, abs=1e-6)

    def test_fidelity_improves_with_counts(self):
        truth = truth_factors([(AptParams(a=1.2), AptParams(a=1.2))], [1.0])[0]
        medians = []
        for total in (1000, 10000, 1000000):
            fids = []
            for seed in range(15):
                observed = draw_counts(truth, total=total, seed=500 + seed)[1]
                t_hat = mle_fit(observed, total)[0]
                fids.append(uhlmann(truth, t_hat)[0])
            medians.append(float(np.median(fids)))
        assert medians[0] <= medians[1] <= medians[2]

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(tomography, "MAX_PASSES", 2)
        observed = draw_counts(BELL, total=10000, seed=1)[1]
        with pytest.raises(MleConvergenceError):
            mle_fit(observed, 10000)


class TestMleFitInput:
    """Malformed input raises ValueError; a bad count names its point and basis."""

    @pytest.mark.parametrize("observed_shape", [(1, 15), (16,), (1, 1, 16)])
    def test_shape(self, observed_shape):
        message = f"observed must be (P, 16), got {observed_shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            mle_fit(np.ones(observed_shape), 100)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_observed_not_finite_or_negative(self, value):
        observed = np.full((3, 16), 10.0)
        observed[1, 4] = observed[2, 0] = value
        message = f"observed counts must be finite and >= 0, got {value} at point 1, basis RH"
        with pytest.raises(ValueError, match=re.escape(message)):
            mle_fit(observed, 100)

    @pytest.mark.parametrize("value,message", [
        (np.nan, "total must be finite and > 0, got nan"),
        (np.inf, "total must be finite and > 0, got inf"),
        (0, "total must be finite and > 0, got 0.0"),
        (-5, "total must be finite and > 0, got -5.0"),
        (np.full((3, 16), 100.0), "total must be one number, got shape (3, 16)")],
        ids=["nan", "inf", "0", "-5", "per-basis"])
    def test_total_not_one_finite_positive_number(self, value, message):
        # one total serves every basis of every point; a (P, 16) array of
        # per-basis totals is refused
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            mle_fit(np.full((3, 16), 10.0), value)


@pytest.mark.parametrize("call,shapes", [
    (lambda: evolve_pairs([], [0.0, 1.0]), [(0, 2), (0, 2), (0, 2, 4, 1)]),
    (lambda: evolve_pairs([], [0.0, 1.0], rank_factor(maximally_mixed())),
     [(0, 2), (0, 2), (0, 2, 4, 4)]),
    (lambda: [rank_factor(np.zeros((0, 4, 4)))], [(0, 4, 4)]),
    (lambda: draw_counts(np.zeros((0, 4, 4))), [(0, 16), (0, 16)]),
    (lambda: mle_fit(draw_counts(np.zeros((0, 4, 4)))[1], tomography.DEFAULT_TOTAL),
     [(0, 4, 4), (0,), (0,)])],
    ids=["evolve_pairs", "evolve_pairs-states", "rank_factor", "draw_counts",
         "draw_counts-mle_fit"])
def test_empty_stack_has_documented_shapes(call, shapes):
    # P = 0 pairs, states or points: each result has its stated shape, with
    # P = 0; the Bell state's factor has rank 1, a full-rank state's 4
    assert [x.shape for x in call()] == shapes


def _frank_wolfe_gap(factor, observed, total):
    """<G, rho> - lambda_min(G) for G the gradient of
    f = sum_b [N p_b - n_b log p_b] at rho = T T^H, the state of mle_fit's
    factor T, for one point's 16 observed
    counts n_b and the total N of each basis. f is convex, so the gap bounds
    f(rho) - min f over density matrices, and it is 0 only at the
    maximum-likelihood state."""
    kets = tomography._KETS
    rho = fitted_states(factor)
    p = np.real(np.einsum("bi,ij,bj->b", kets.conj(), rho, kets))
    w = total - np.divide(observed, p, out=np.zeros(16), where=observed != 0)
    g = np.einsum("b,bi,bj->ij", w, kets, kets.conj())
    return float(np.real(np.vdot(g, rho))) - float(np.linalg.eigvalsh(g)[0])


def _random_state(rank, seed):
    f = np.random.default_rng(seed).normal(size=(4, rank, 2)).view(complex)[..., 0]
    rho = f @ f.conj().T
    return (rho + rho.conj().T) / (2.0 * np.real(np.trace(rho)))


class TestMleOptimality:
    # The fit stops only once its Newton decrement is below 1e-13 * 16 N
    # and its own Frank-Wolfe gap below 1e-6 * 16 N. Over 1,500 random
    # draws of state, seed and total N (1e2 to 1e6 per basis) the gap at the
    # estimate was at most 9.6e-8 * 16 N, and at most 1.2e-7 * 16 N
    # over 1,000 near-pure draws.
    GAP_PER_COUNT = 1e-5

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rank=st.integers(1, 4), state_seed=st.integers(0, 2 ** 32 - 1),
           count_seed=st.integers(0, 2 ** 31 - 1), log_total=st.floats(2.0, 6.0))
    def test_frank_wolfe_gap_at_estimate(self, rank, state_seed, count_seed, log_total):
        total = int(10 ** log_total)
        observed = draw_counts(rank_factor(_random_state(rank, state_seed))[None], total=total,
                               seed=count_seed)[1]
        t_hat = mle_fit(observed, total)[0]
        gap = _frank_wolfe_gap(t_hat[0], observed[0], total)
        assert gap < self.GAP_PER_COUNT * 16 * total

    def test_batch_matches_one_at_a_time(self):
        p = AptParams(a=1.2)
        observed = np.concatenate([
            draw_counts(truth_factors([(p, p)], [0.5 * i])[0], total=10000,
                        seed=40 + i, noiseless=i % 3 == 2)[1] for i in range(10)])
        t, _, iterations = mle_fit(observed, 10000)
        t_reversed, _, iterations_reversed = mle_fit(observed[::-1], 10000)
        for i in range(10):
            t_alone, _, iterations_alone = mle_fit(observed[i:i + 1], 10000)
            for t_other, iterations_other in ((t[i], iterations[i]),
                                              (t_reversed[9 - i], iterations_reversed[9 - i])):
                assert uhlmann(t_alone[0], t_other) >= 1.0 - 1e-9
                assert iterations_other == iterations_alone[0]

    def test_batched_fidelities_match_one_at_a_time(self):
        p = AptParams(a=0.8)
        truths = truth_factors([(p, p)], 0.5 * np.arange(10))[0]
        observed = np.concatenate([draw_counts(truth[None], total=2000, seed=60 + i,
                                               noiseless=i == 4)[1]
                                   for i, truth in enumerate(truths)])
        t_hat = mle_fit(observed, 2000)[0]
        fids = uhlmann(truths, t_hat)  # two stacks: a (P,) array
        assert fids.shape == (10,)
        for i in range(10):
            alone = uhlmann(truths[i:i + 1], mle_fit(observed[i:i + 1], 2000)[0])
            assert fids[i] == alone[0]
            single = uhlmann(truths[i], t_hat[i])  # one value
            assert single.shape == () and fids[i] == single

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
        observed = draw_counts(rank_factor(rho)[None], total=total, seed=count_seed)[1]
        t_hat = mle_fit(observed, total)[0]
        gap = _frank_wolfe_gap(t_hat[0], observed[0], total)
        assert gap < self.GAP_PER_COUNT * 16 * total

    def test_tail_point_converges(self):
        # t = 2.5 of `tomography --seed 10` at its defaults, when point i drew
        # from a generator seeded with seed + i: bases of 1-6 counts next to
        # thousands make a near-pure, badly conditioned fit
        observed = np.array([[2486, 2519, 2468, 2575, 6, 5, 2457, 2422,
                              1, 2351, 1, 2341, 2327, 4930, 4964, 5]])
        t_hat, _, iterations = mle_fit(observed, 10000)
        assert iterations[0] <= 40
        gap = _frank_wolfe_gap(t_hat[0], observed[0], 10000)
        assert gap < self.GAP_PER_COUNT * 16 * 10000

    def test_slowest_point_of_default_runs(self):
        # `tomography --seed s` at its defaults for s = 0-29; a run's slowest
        # point sets its cost. The mean of the largest `iterations` is 10.7.
        p = AptParams(a=1.2)
        states = truth_factors([(p, p)], time_grid(4.5, 0.5))[0]
        worst = [mle_fit(draw_counts(states, total=10000, seed=s)[1], 10000)[2].max()
                 for s in range(30)]
        assert np.mean(worst) <= 30

    def test_batch_is_bit_for_bit_independent(self):
        p = AptParams(a=1.2)
        states = truth_factors([(p, p)], time_grid(4.5, 0.5))[0]
        observed = np.concatenate([draw_counts(states, total=10000, seed=10,
                                               noiseless=noiseless)[1]
                                   for noiseless in (False, True)])
        batch = mle_fit(observed, 10000)
        odd_first = mle_fit(np.concatenate([observed[1::2], observed[::2]]), 10000)
        for i in range(len(observed)):
            alone = mle_fit(observed[i:i + 1], 10000)
            j = i // 2 + (0 if i % 2 else len(observed) // 2)
            for result, k in ((batch, i), (odd_first, j)):
                assert np.array_equal(result[0][k], alone[0][0])
                assert result[1][k] == alone[1][0]
                assert result[2][k] == alone[2][0]

    def test_batch_size_sweep(self):
        # 20 CLI-default points, noisy and noiseless, fitted in consecutive
        # batches of each size against each point fitted alone
        p = AptParams(a=1.2)
        states = truth_factors([(p, p)], time_grid(4.5, 0.5))[0]
        observed = np.concatenate([draw_counts(states, 10000, 30, noiseless)[1]
                                   for noiseless in (False, True)])
        alone = [mle_fit(observed[i:i + 1], 10000) for i in range(20)]
        for size in (1, 2, 7, 10, 20):
            for start in range(0, 20, size):
                rho, log_likelihood, iterations = mle_fit(observed[start:start + size], 10000)
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
        observed = draw_counts(BELL, total=10000, seed=1)[1]
        with pytest.raises(MleConvergenceError):
            mle_fit(observed, 10000)
        assert len(steps) > 2

    def test_failed_certificate_point_converges(self, monkeypatch):
        # t = 1508.5 of `tomography --seed 3016 --t-max 1508.5 --dt 1508.5`,
        # when point i drew from a generator seeded with seed + i (seed 3017,
        # a pure truth): Newton stops where the gap is 1.7e-6,
        # and a restart mixed with I/4 led back to that point until the pass
        # cap. One Frank-Wolfe step leaves it; the fit takes 8 passes.
        monkeypatch.setattr(tomography, "MAX_PASSES", 20)
        observed = np.array([[2436, 2538, 2588, 2522, 0, 1, 2475, 2502,
                              0, 2477, 0, 2412, 2403, 4920, 5041, 0]])
        alone = mle_fit(observed, 10000)
        rank_factor(fitted_states(alone[0][0]))
        gap = _frank_wolfe_gap(alone[0][0], observed[0], 10000)
        assert gap < self.GAP_PER_COUNT * 16 * 10000
        # the Frank-Wolfe step keeps the point's fit independent of its batch
        p = AptParams(a=1.2)
        states = truth_factors([(p, p)], time_grid(4.5, 0.5))[0]
        batch = np.concatenate([draw_counts(states, total=10000, seed=3)[1], observed])
        result = mle_fit(batch, 10000)
        for fitted, one in zip(result, alone):
            assert np.array_equal(fitted[-1], one[0])

    def test_batch_error_names_stalled_points(self, monkeypatch):
        # two Bell states drawn with seed 1
        monkeypatch.setattr(tomography, "MAX_PASSES", 2)
        observed = draw_counts(np.concatenate([BELL] * 2), total=10000, seed=1)[1]
        with pytest.raises(MleConvergenceError) as err:
            mle_fit(observed, 10000)
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
        rho = evolved_states([(AptParams(a=1.2), AptParams(a=1.3))], [1.0])[0, 0]
        assert uhlmann(rank_factor(rho), rank_factor(rho)) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        hh = np.zeros((4, 4), dtype=complex)
        hh[0, 0] = 1.0
        vv = np.zeros((4, 4), dtype=complex)
        vv[3, 3] = 1.0
        assert uhlmann(rank_factor(hh), rank_factor(vv)) == pytest.approx(0.0, abs=1e-12)

    def test_bell_vs_maximally_mixed(self):
        assert uhlmann(rank_factor(bell_state()), rank_factor(maximally_mixed())) == pytest.approx(
            0.25, abs=1e-14)

    def test_symmetry(self):
        a = evolved_states([(AptParams(a=1.2), AptParams(a=1.3))], [0.7])[0, 0]
        b = maximally_mixed()
        factor_a, factor_b = rank_factor(a), rank_factor(b)
        assert uhlmann(factor_a, factor_b) == pytest.approx(uhlmann(factor_b, factor_a), abs=1e-14)

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
        assert abs(uhlmann(rank_factor(truth), rank_factor(rho)) - exact) < 1e-13
