import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from aptsim import dynamics
from aptsim.dynamics import (MAX_SAMPLES, DegenerateNormError,
                             TRACE_TOL, EvolutionSpec, InvalidStateError, bell_state,
                             evolve_pairs, rank_factor, run, time_grid)
from aptsim.propagator import IDENTITY, AptParams, Family, propagators
from aptsim.tomography import draw_counts

from oracles import bell_mp, evolve_mp, maximally_mixed, norm_mp
from trajkit import evolved_states


class TestStatesAndValidation:
    def test_bell_ket_components(self):
        # bell_state() is |v><v| for the ket v = (|01> + |10>) / sqrt(2)
        v = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert np.array_equal(bell_state(), np.outer(v, v))
        assert np.trace(bell_state()) == pytest.approx(1.0)

    def test_bell_state_valid(self):
        rank_factor(bell_state())
        rank_factor(maximally_mixed())

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidStateError):
            rank_factor(np.eye(2) / 2)

    def test_rejects_non_hermitian(self):
        rho = maximally_mixed()
        rho[0, 1] = 0.1
        with pytest.raises(InvalidStateError):
            rank_factor(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError):
            rank_factor(np.eye(4, dtype=complex) / 2)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.75, 0.5, 0.0, -0.25]).astype(complex)
        with pytest.raises(InvalidStateError):
            rank_factor(rho)

    def test_rejects_nan(self):
        rho = maximally_mixed()
        rho[2, 2] = np.nan
        with pytest.raises(InvalidStateError):
            rank_factor(rho)

    # one bad state per check, in the order the checks run, with its message
    BAD_STATES = [
        (np.diag([0.25, 0.25, np.nan, 0.25]).astype(complex),
         "density matrix has non-finite entries"),
        (maximally_mixed() + 0.1 * np.eye(4, k=1), "not Hermitian: max deviation 1.000e-01"),
        (np.eye(4, dtype=complex) / 2, "trace is (2+0j), expected 1"),
        (np.diag([0.75, 0.5, 0.0, -0.25]).astype(complex), "negative eigenvalue -2.500e-01"),
    ]

    @pytest.mark.parametrize("rho,message", BAD_STATES)
    def test_one_state_messages(self, rho, message):
        with pytest.raises(InvalidStateError) as err:
            rank_factor(rho)
        assert str(err.value) == message

    @pytest.mark.parametrize("rho,message", BAD_STATES)
    def test_stack_names_the_bad_state(self, rho, message):
        stack = np.array([bell_state(), maximally_mixed(), rho, bell_state()])
        with pytest.raises(InvalidStateError) as err:
            rank_factor(stack)
        assert str(err.value) == f"state 2: {message}"

    def test_stack_factor_matches_one_at_a_time(self):
        p1, p2 = AptParams(a=1.2), AptParams(a=0.8)
        evolved = evolved_states([(p1, p2)], [0.0, 0.7, 3.1])[0]
        stack = np.concatenate([maximally_mixed()[None], evolved])
        factors = rank_factor(stack)
        for i, rho in enumerate(stack):
            assert np.array_equal(factors[i], rank_factor(rho))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(states=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 2 ** 32 - 1)),
                           min_size=1, max_size=5),
           nested=st.booleans())
    def test_one_shape_for_a_state_and_a_stack(self, states, nested):
        # each state plus an anti-Hermitian part below 4e-13, within HERM_TOL,
        # which the factor leaves out; nested stacks are (1, n, 4, 4)
        stack = []
        for rank, seed in states:
            rho = _random_state(rank, seed)
            a = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, (4, 4)) * (1.0 - np.eye(4))
            stack.append(rho + 1e-13j * (a + a.T))
        stack = np.array(stack)[None] if nested else np.array(stack)
        factors = rank_factor(stack)
        assert factors.shape == stack.shape
        for (rank, _), rho, factor in zip(states, stack.reshape(-1, 4, 4),
                                          factors.reshape(-1, 4, 4)):
            one = rank_factor(rho)
            assert one.shape == (4, 4)
            assert np.array_equal(factor, one)
            hermitian = (rho + rho.conj().T) / 2.0
            assert np.max(np.abs(one @ one.conj().T - hermitian)) <= 1e-12
            assert np.count_nonzero(~one.any(axis=0)) == 4 - rank

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rank=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           negative=st.one_of(st.floats(-1e-10, 0.0), st.floats(-2e-12, 0.0)),
           trace=st.floats(-9e-13, 9e-13))
    def test_every_kernel_takes_what_rank_factor_returns(self, rank, seed, negative, trace):
        # a state of the given rank whose last eigenvalue moves to `negative`
        # (rank 4 loses one), its trace off by `trace` and its Hermiticity by
        # at most 4e-13, both within tolerance: the factor drops `negative`,
        # and rank_factor refuses the state exactly when that factor's trace
        # 1 + trace - negative leaves TRACE_TOL
        rng = np.random.default_rng(seed)
        v = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        w = np.zeros(4)
        w[:rank] = rng.uniform(0.1, 1.0, rank)
        w[3] = 0.0
        kept = 1.0 + trace - negative
        w *= kept / w.sum()
        w[3] = negative
        a = rng.uniform(-1.0, 1.0, (4, 4)) * (1.0 - np.eye(4))
        rho = (v * w) @ v.conj().T + 1e-13j * (a + a.T)
        try:
            factor = rank_factor(rho)
        except InvalidStateError as err:
            assert str(err).startswith("negative eigenvalue -"), str(err)
            assert abs(kept - 1.0) > TRACE_TOL - 1e-14
            return
        assert abs(kept - 1.0) < TRACE_TOL + 1e-14
        p = AptParams(a=1.2)
        evolve_pairs([(p, p)], [0.0, 1.0], factor)
        draw_counts(factor, total=10000, seed=0)

    def test_negative_eigenvalue_is_named_where_the_matrix_enters(self):
        # the factor, without the eigenvalue, sums to 1 + 5e-11: no kernel
        # takes it, so neither rank_factor nor run() does
        rho = np.diag([0.5 + 5e-11, 0.5, 0.0, -5e-11]).astype(complex)
        p = AptParams(a=1.2)
        for enter in (lambda: rank_factor(rho),
                      lambda: run(EvolutionSpec(p1=p, p2=p, t_max=1.0, initial=rho))):
            with pytest.raises(InvalidStateError, match=r"^negative eigenvalue -5\.000e-11$"):
                enter()

    def test_trace_rounded_past_the_bound_is_named(self):
        # the trace 1 + 9.999e-13 is within TRACE_TOL, but sqrt(w)^2 sums
        # past it: with no negative eigenvalue, the factor's trace is named
        rho = np.diag([0.2, 0.34, 0.28, 0.18000000000099983]).astype(complex)
        assert abs(np.trace(rho) - 1.0) <= TRACE_TOL
        with pytest.raises(InvalidStateError,
                           match=r"^trace is \(1\.000000000001\+0j\), expected 1$"):
            rank_factor(rho)


class TestEvolvedStates:
    def test_time_zero_returns_initial(self):
        p = AptParams(a=1.2)
        for rho0 in (bell_state(), maximally_mixed()):
            rho = evolved_states([(p, p)], [0.0], rank_factor(rho0))[0, 0]
            assert np.allclose(rho, rho0, atol=1e-15)

    def test_bell_recovered_after_full_period(self):
        p = AptParams(a=1.2)
        period = np.pi / np.sqrt(1.2 ** 2 - 1.0)
        rho = evolved_states([(p, p)], [period])[0, 0]
        overlap = float(np.real(np.trace(bell_state() @ rho)))
        assert overlap > 1.0 - 1e-9

    def test_output_satisfies_invariants(self):
        for a1, a2, t in ((1.2, 1.3, 3.0), (0.8, 0.8, 10.0), (1.0, 2.0, 5.0)):
            rho = evolved_states([(AptParams(a=a1), AptParams(a=a2))], [t])[0, 0]
            rank_factor(rho)

    def test_identity_marker_applies_u_tensor_identity(self):
        p = AptParams(a=1.2)
        got = evolved_states([(p, IDENTITY)], [1.0])[0, 0]
        u = np.kron(propagators(p, [1.0])[0], np.eye(2, dtype=complex))
        m = u @ bell_state() @ u.conj().T
        expected = (m + m.conj().T) / (2.0 * np.real(np.trace(m)))
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_overflow_raises(self):
        with pytest.raises(OverflowError, match="t=400"):
            evolve_pairs([(AptParams(a=0.5), AptParams(a=0.5))], [400.0])

    def test_degenerate_norm_raises_with_time(self, monkeypatch):
        monkeypatch.setattr(dynamics, "NORM_FLOOR", 10.0)
        p = AptParams(a=1.2)
        with pytest.raises(DegenerateNormError) as err:
            evolve_pairs([(p, p)], [0.5])
        assert err.value.t == 0.5

    def test_evolved_factors(self):
        # the factor is a view of the kernel's product, not a copy, and
        # F F^H / N is a state at every t
        p = AptParams(a=1.2)
        times = time_grid(0.5, 0.25)
        _, norms, factors = evolve_pairs([(p, p)], times)
        assert factors.shape == (1, times.size, 4, 1) and not factors.flags.owndata
        states = evolved_states([(p, p)], times)[0]
        assert len(states) == times.size
        for rho in states:
            rank_factor(rho)


class TestRun:
    def test_grid_includes_both_ends(self):
        spec = EvolutionSpec(p1=AptParams(a=1.2), p2=AptParams(a=1.2),
                             t_max=1.0, dt=0.25)
        assert np.allclose(run(spec).times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_zero_t_max_single_sample(self):
        spec = EvolutionSpec(p1=AptParams(a=1.2), p2=AptParams(a=1.2), t_max=0.0)
        traj = run(spec)
        assert traj.times.tolist() == [0.0]
        assert traj.concurrence[0] == pytest.approx(1.0, abs=1e-12)

    def test_lengths_and_bounds(self):
        spec = EvolutionSpec(p1=AptParams(a=1.2), p2=AptParams(a=1.3),
                             t_max=6.0, dt=0.02)
        traj = run(spec)
        n = traj.times.size
        assert traj.concurrence.size == n and traj.unnormalized_norm.size == n
        assert np.all(traj.concurrence >= 0.0)
        assert np.all(traj.concurrence <= 1.0 + 1e-9)
        assert np.all(traj.unnormalized_norm > 0.0)

    def test_inverse_norm_identity(self):
        cases = [
            (AptParams(a=1.2), AptParams(a=1.3)),
            (AptParams(a=0.8), AptParams(a=2.0)),
            (AptParams(a=1.2), IDENTITY),
            (AptParams(a=0.7, family=Family.PT), AptParams(a=0.7, family=Family.PT)),
        ]
        for p1, p2 in cases:
            traj = run(EvolutionSpec(p1=p1, p2=p2, t_max=8.0, dt=0.05))
            gap = np.max(np.abs(traj.concurrence - 1.0 / traj.unnormalized_norm))
            assert gap < 1e-10

    def test_broken_regime_matches_cancellation_free_law(self):
        # identical evolution at a < 1: C = w^2 / (w^2 + 8|w| S + 8 S^2) with
        # w = a^2 - 1 and S = sinh^2(sqrt(-w) t); C falls to ~1e-15 by t = 14
        traj = run(EvolutionSpec(p1=AptParams(a=0.8), p2=AptParams(a=0.8), t_max=14.0))
        w = 0.8 ** 2 - 1.0
        s = np.sinh(np.sqrt(-w) * traj.times) ** 2
        exact = w * w / (w * w + 8.0 * abs(w) * s + 8.0 * s * s)
        assert np.max(np.abs(traj.concurrence / exact - 1.0)) < 1e-9

    def test_identity_evolution_minimum(self):
        traj = run(EvolutionSpec(p1=AptParams(a=1.2), p2=IDENTITY, t_max=14.0))
        w = 1.2 ** 2 - 1.0
        assert abs(traj.concurrence.min() - w / (w + 2.0)) < 1e-6

    def test_huge_k_unbroken_stays_finite(self):
        # k = 1e300 overflows k t^2 for t > 1.4e4, but U is nearly unitary
        # (its sigma_x part is 1e-150), so N(t) = 1 and C(t) = 1 to rounding
        p = AptParams(a=1e150)
        traj = run(EvolutionSpec(p1=p, p2=p, t_max=1e5, dt=2.5e4))
        assert traj.times[-1] == 1e5
        assert np.max(np.abs(traj.unnormalized_norm - 1.0)) < 1e-12
        assert np.max(np.abs(traj.concurrence - 1.0)) < 1e-12

    def test_mixed_initial_state_supported(self):
        spec = EvolutionSpec(p1=AptParams(a=1.2), p2=AptParams(a=1.2),
                             t_max=1.0, dt=0.5, initial=maximally_mixed())
        traj = run(spec)
        assert traj.concurrence[0] == pytest.approx(0.0, abs=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EvolutionSpec(p1=AptParams(a=1.2), p2=AptParams(a=1.2),
                          t_max=1.0, dt=0.0)
        with pytest.raises(ValueError):
            EvolutionSpec(p1=AptParams(a=1.2), p2=AptParams(a=1.2), t_max=-1.0)
        for field, grid in (("t_max", dict(t_max=np.inf)),
                            ("t_max", dict(t_max=np.nan)),
                            ("dt", dict(t_max=1.0, dt=np.inf)),
                            ("dt", dict(t_max=1.0, dt=np.nan))):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                EvolutionSpec(p1=AptParams(a=1.2), p2=AptParams(a=1.2), **grid)
        # grids too large to allocate are rejected from their float sample count
        for grid in (dict(t_max=14.0, dt=1e-12), dict(t_max=14.0, dt=1e-320),
                     dict(t_max=float(MAX_SAMPLES), dt=1.0)):
            with pytest.raises(ValueError, match="^dt = .* more than"):
                EvolutionSpec(p1=AptParams(a=1.2), p2=AptParams(a=1.2), **grid)
        largest = EvolutionSpec(p1=AptParams(a=1.2), p2=AptParams(a=1.2),
                                t_max=float(MAX_SAMPLES - 1), dt=1.0)
        # figures 2b and 3b have the most samples, 7001
        assert time_grid(largest.t_max, largest.dt).size == MAX_SAMPLES > 7001

    @pytest.mark.parametrize("t_max, dt, message", [
        (np.nan, 0.01, "t_max must be finite, got nan"),
        (np.inf, 0.01, "t_max must be finite, got inf"),
        (1.0, np.nan, "dt must be finite, got nan"),
        (1.0, -np.inf, "dt must be finite, got -inf"),
        (1.0, 0.0, "dt must be > 0, got 0.0"),
        (1.0, -0.5, "dt must be > 0, got -0.5"),
        (-1.0, 0.01, "t_max must be >= 0, got -1.0"),
        (14.0, 1e-12, "dt = 1e-12 gives 1.4e+13 samples up to t_max = 14.0, "
                      f"more than {MAX_SAMPLES}"),
        (float(MAX_SAMPLES), 1.0, f"dt = 1.0 gives 1e+06 samples up to "
                                  f"t_max = {float(MAX_SAMPLES)}, more than {MAX_SAMPLES}"),
    ])
    def test_time_grid_validation(self, t_max, dt, message):
        # time_grid and the spec share one validator and its messages
        for make in (time_grid,
                     lambda t_max, dt: EvolutionSpec(p1=AptParams(a=1.2), p2=IDENTITY,
                                                     t_max=t_max, dt=dt)):
            with pytest.raises(ValueError) as err:
                make(t_max, dt)
            assert str(err.value) == message

    def test_invalid_initial_rejected(self):
        spec = EvolutionSpec(p1=AptParams(a=1.2), p2=AptParams(a=1.2),
                             t_max=1.0, initial=np.eye(4, dtype=complex))
        with pytest.raises(InvalidStateError):
            run(spec)


class TestFastBellCurve:
    def test_matches_brute_force(self):
        times = np.arange(0.0, 10.0, 0.05)
        cases = [
            (AptParams(a=1.2), AptParams(a=1.3)),
            (AptParams(a=0.8), AptParams(a=2.0)),
            (AptParams(a=1.0), AptParams(a=1.0)),
            (AptParams(a=1.2), IDENTITY),
        ]
        for p1, p2 in cases:
            conc, norms, _ = evolve_pairs([(p1, p2)], times)
            # every fourth sample against its 40-digit value
            for t, c, n in zip(times[::4].tolist(), conc[0, ::4], norms[0, ::4]):
                exact_c, exact_n = (float(x) for x in bell_mp(p1, p2, t))
                assert abs(c - exact_c) < 1e-13
                assert abs(n - exact_n) < 1e-12 * exact_n


# the EP band |a - 1| <= 1e-9 is drawn on purpose: it is where a regime
# branch would be least accurate
_A_VALUES = st.one_of(st.floats(0.3, 3.0),
                      st.floats(-1e-9, 1e-9).map(lambda d: 1.0 + d))
_QUBITS = st.builds(AptParams, a=_A_VALUES, gamma=st.floats(0.5, 2.5),
                    family=st.sampled_from(Family))


def _growth_rate(p):
    return p.gamma * np.sqrt(abs(p.a ** 2 - 1.0))


def _random_state(rank, seed):
    """A two-qubit state of the given rank from a seeded Gaussian factor."""
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho0 = f @ f.conj().T
    return (rho0 + rho0.conj().T) / (2.0 * np.real(np.trace(rho0)))


# Against 40-digit values, 1,800 samples of these pools (t <= 60) had a worst
# error of 1.9e-14 relative in N and 1.6e-15 absolute in C, at every rank;
# the 39 cases below, 2.3e-15 absolute on an entry of rho(t) = U rho0 U^H / N
REFEREE_NORM_REL = 1e-12
REFEREE_CONC_ABS = 1e-13
REFEREE_STATE_ABS = 1e-12


# cos(0.4)|01> + e^{0.9i} sin(0.4)|10>: entangled, but not a Bell state
_KET = np.array([0.0, np.cos(0.4), np.sin(0.4) * np.exp(0.9j), 0.0])
# initial states by name; None is evolve_pairs' default, the Bell state
_REFEREE_STATES = {
    "bell": None,
    "werner": 0.6 * bell_state() + 0.4 * maximally_mixed(),
    "ket": np.outer(_KET, _KET.conj()),
}
# an APT qubit and a PT qubit of each regime
_REFEREE_PAIRS = {
    "broken": (AptParams(a=0.8), AptParams(a=1.4, family=Family.PT)),
    "ep": (AptParams(a=1.0), AptParams(a=1.0, family=Family.PT)),
    "unbroken": (AptParams(a=1.2), AptParams(a=0.6, family=Family.PT)),
}


class TestMixedStateReferee:
    # no shrinking: each example runs 40-digit evolutions, so a shrink of a
    # failure would take minutes
    @settings(max_examples=40, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(p1=st.one_of(_QUBITS, st.just(IDENTITY)), p2=st.one_of(_QUBITS, st.just(IDENTITY)),
           t_max=st.floats(0.0, 60.0), rank=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_40_digit_evolution(self, p1, p2, t_max, rank, seed):
        # the broken regime up to a growth of e^40 in |U|
        t_max = min(t_max, 40.0 / max(_growth_rate(p1), _growth_rate(p2), 1e-3))
        rho0 = _random_state(rank, seed)
        times = time_grid(t_max, max(t_max / 3.0, 1e-3))
        conc, norms, _ = evolve_pairs([(p1, p2)], times, rank_factor(rho0))
        states = evolved_states([(p1, p2)], times, rank_factor(rho0))
        # the 40-digit oracle at the last three samples, up to t_max, where
        # a broken qubit's |U| is largest: each takes about 15 ms
        ref_c, ref_n, ref_rho = evolve_mp(rho0, p1, p2, times[-3:])
        assert np.all(np.abs(norms[0, -3:] - ref_n) <= REFEREE_NORM_REL * ref_n)
        assert np.all(np.abs(conc[0, -3:] - ref_c) <= REFEREE_CONC_ABS)
        assert np.all(np.abs(states[0, -3:] - ref_rho) <= REFEREE_STATE_ABS)
        rank_factor(states[0])

    @pytest.mark.parametrize("regime", list(_REFEREE_PAIRS))
    @pytest.mark.parametrize("state", list(_REFEREE_STATES))
    def test_kept_states_match_40_digit_evolution(self, state, regime):
        rho0, pair = _REFEREE_STATES[state], _REFEREE_PAIRS[regime]
        times = np.array([0.0, 1.3, 7.1, 20.0])
        states = evolved_states([pair], times, None if rho0 is None else rank_factor(rho0))
        ref_rho = evolve_mp(bell_state() if rho0 is None else rho0, *pair, times)[2]
        assert np.all(np.abs(states[0] - ref_rho) <= REFEREE_STATE_ABS)


def _werner_factor(p):
    """The (4, 5) factor [sqrt(p) |bell>, sqrt((1 - p) / 4) I] of the Werner
    state p |bell><bell| + (1 - p) I / 4, as the mixed_states benchmark
    builds it."""
    bell = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return np.hstack([np.sqrt(p) * bell[:, None], np.sqrt((1.0 - p) / 4.0) * np.eye(4)])


# initial states as factors F, rho0 = F F^H, by name
_FACTORS = {"ket": _KET[:, None], "werner-0.34": _werner_factor(0.34),
            "werner-0.9": _werner_factor(0.9)}
_BROKEN, _UNBROKEN = AptParams(a=0.8), AptParams(a=1.2)
# the broken regime, the EP band 1 +- 1e-9, the unbroken regime, its PT
# partner at the same a, and a qubit that does not evolve
_NORM_PAIRS = [(_BROKEN, _BROKEN), (AptParams(a=1.0 - 1e-9), AptParams(a=1.0 + 1e-9)),
               (_UNBROKEN, AptParams(a=1.2, family=Family.PT)), (_BROKEN, IDENTITY),
               (IDENTITY, _UNBROKEN)]


class TestFactorInitial:
    @pytest.mark.parametrize("state", list(_FACTORS))
    def test_norm_matches_40_digits_at_every_sample(self, state):
        # N(t) = sum_k |U1 F_k U2^T|^2 needs no eigensolver at 40 digits, so
        # every sample is checked, up to a growth of e^40 in a broken |U|
        # and up to t = 100 where no qubit grows that fast
        factor = _FACTORS[state]
        for pair in _NORM_PAIRS:
            t_max = 40.0 / max(0.4, *(_growth_rate(p) for p in pair))
            times = time_grid(t_max, t_max / 100.0)
            norms = evolve_pairs([pair], times, factor)[1][0]
            ref = norm_mp(factor, *pair, times)
            assert np.all(np.abs(norms - ref) <= REFEREE_NORM_REL * ref), pair

    @pytest.mark.parametrize("regime", list(_REFEREE_PAIRS))
    @pytest.mark.parametrize("state", list(_FACTORS))
    def test_factor_agrees_with_rank_factor_of_its_state(self, state, regime):
        # F and rank_factor(F F^H) are two factors of one rho0: they agree
        # within the referee's bounds, though not bit for bit
        factor, pair = _FACTORS[state], _REFEREE_PAIRS[regime]
        other = rank_factor(factor @ factor.conj().T)
        times = time_grid(20.0, 0.25)
        (conc, norms, _), (ref_c, ref_n, _) = (evolve_pairs([pair], times, f)
                                               for f in (factor, other))
        assert np.all(np.abs(norms - ref_n) <= REFEREE_NORM_REL * ref_n)
        assert np.all(np.abs(conc - ref_c) <= REFEREE_CONC_ABS)
        states, ref_states = (evolved_states([pair], times, f) for f in (factor, other))
        assert np.all(np.abs(states - ref_states) <= REFEREE_STATE_ABS)

    def test_mixed_matrix_names_rank_factor(self):
        p = AptParams(a=1.2)
        for rho in (maximally_mixed(), _werner_factor(0.34) @ _werner_factor(0.34).conj().T):
            with pytest.raises(InvalidStateError, match=r"pass rank_factor\(rho\)"):
                evolve_pairs([(p, p)], [0.0, 1.0], rho)

    def test_pure_matrix_is_its_own_factor(self):
        # rho rho^H = rho for a pure rho, so it evolves as its ket does
        p1, p2 = AptParams(a=1.2), AptParams(a=0.8)
        times = time_grid(10.0, 0.1)
        ket = _FACTORS["ket"]
        got, ref = (evolve_pairs([(p1, p2)], times, f) for f in (ket @ ket.conj().T, ket))
        assert np.all(np.abs(got[1] - ref[1]) <= REFEREE_NORM_REL * ref[1])
        assert np.all(np.abs(got[0] - ref[0]) <= REFEREE_CONC_ABS)

    def test_evolve_pairs_and_draw_counts_agree_at_the_bound(self):
        # sum |F|^2 of this seeded (4, 5) factor is 1 + 1e-12 to rounding,
        # where two summation orders can fall on either side of TRACE_TOL
        rng = np.random.default_rng(16)
        f = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        f *= np.sqrt((1.0 + TRACE_TOL) / (f.real ** 2 + f.imag ** 2).sum())
        assert abs((f.real ** 2 + f.imag ** 2).sum() - 1.0 - TRACE_TOL) <= 1e-15
        p = AptParams(a=1.2)
        accepted = []
        for kernel in (lambda: evolve_pairs([(p, p)], [0.0, 1.0], f),
                       lambda: draw_counts(f, total=10000, seed=0)):
            try:
                kernel()
                accepted.append(True)
            except InvalidStateError:
                accepted.append(False)
        assert accepted[0] == accepted[1]

    @pytest.mark.parametrize("factor", [
        _KET, _KET[None, :, None], _KET[:3, None],
        np.where(np.arange(4)[:, None] == 1, np.nan, _KET[:, None]),
        np.where(np.arange(4)[:, None] == 1, np.inf, _KET[:, None]),
        _KET[:, None] * np.sqrt(1.0 + 2.0 * TRACE_TOL)],
        ids=["1-d", "stack", "3-rows", "nan", "inf", "trace"])
    def test_rejects_what_is_not_a_factor(self, factor):
        p = AptParams(a=1.2)
        with pytest.raises(InvalidStateError, match="^expected a \\(4, r\\) factor"):
            evolve_pairs([(p, p)], [0.0, 1.0], factor)
        # within TRACE_TOL, the same factor is taken
        evolve_pairs([(p, p)], [0.0, 1.0], _KET[:, None] * np.sqrt(1.0 + 0.5 * TRACE_TOL))


# a in the broken regime, at the exceptional point, one EP-band width either
# side of it, and in the unbroken regime
_STACK_A = st.one_of(st.floats(0.3, 0.99), st.just(1.0), st.sampled_from((1.0 - 1e-9, 1.0 + 1e-9)),
                     st.floats(1.01, 3.0))
_STACK_QUBITS = st.builds(AptParams, a=_STACK_A, gamma=st.floats(0.5, 2.5),
                          family=st.sampled_from(Family))


class TestStackedEvolution:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(qubits=st.lists(_STACK_QUBITS, min_size=1, max_size=3), data=st.data(),
           t_max=st.floats(0.0, 20.0), rank=st.one_of(st.none(), st.integers(1, 4)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_equals_runs_bit_for_bit(self, qubits, data, t_max, rank, seed):
        # pairs drawn from a small pool, so that qubits repeat within and
        # across pairs; rank None is the default Bell state
        index = st.integers(0, len(qubits) - 1)
        pairs = data.draw(st.lists(
            st.tuples(index.map(qubits.__getitem__),
                      st.one_of(index.map(qubits.__getitem__), st.just(IDENTITY))),
            min_size=1, max_size=5))
        t_max = min(t_max, 40.0 / max(1e-3, *(_growth_rate(p) for pair in pairs for p in pair)))
        initial = None
        if rank is not None:
            initial = _random_state(rank, seed)
        specs = [EvolutionSpec(p1=p1, p2=p2, t_max=t_max, dt=max(t_max / 50.0, 1e-3),
                               initial=initial) for p1, p2 in pairs]
        times = time_grid(specs[0].t_max, specs[0].dt)
        # run() factors its matrix as rank_factor does, with the same bits
        factor = None if initial is None else rank_factor(initial)
        conc, norms, factors = evolve_pairs(pairs, times, factor)
        assert conc.shape == norms.shape == (len(pairs), times.size)
        assert factors.shape[:3] == (len(pairs), times.size, 4)
        for i, spec in enumerate(specs):
            traj = run(spec)
            assert np.array_equal(conc[i], traj.concurrence)
            assert np.array_equal(norms[i], traj.unnormalized_norm)
            # each pair's states do not depend on the rest of the stack
            one = evolve_pairs([pairs[i]], times, factor)[2]
            assert np.array_equal(factors[i], one[0])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(_QUBITS, st.one_of(_QUBITS, st.just(IDENTITY))),
                          min_size=1, max_size=3),
           t_max=st.floats(0.01, 20.0), steps=st.integers(1, 3000),
           rank=st.one_of(st.none(), st.integers(1, 4)), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_split_grid_equals_whole_bit_for_bit(self, pairs, t_max, steps, rank, seed, data):
        # the CLI evolves a curve longer than its block in pieces of the
        # grid: any cut must give the whole grid's values, also one that
        # leaves a piece of one sample; rank None is the default Bell state
        t_max = min(t_max, 40.0 / max(1e-3, *(_growth_rate(p) for pair in pairs for p in pair)))
        initial = None if rank is None else rank_factor(_random_state(rank, seed))
        times = time_grid(t_max, t_max / steps)
        cut = data.draw(st.one_of(st.sampled_from((1, times.size - 1)),
                                  st.integers(1, times.size - 1)))
        whole = evolve_pairs(pairs, times, initial)
        parts = [evolve_pairs(pairs, piece, initial) for piece in (times[:cut], times[cut:])]
        for i, name in enumerate(("conc", "norms", "factors")):
            assert np.array_equal(np.concatenate([part[i] for part in parts], axis=1),
                                  whole[i]), name

    # the cuts that leave a one-sample piece, drawn by no example generator:
    # hypothesis's examples above change with the tests that ran before it
    @pytest.mark.parametrize("rank", [None, 4])
    @pytest.mark.parametrize("pair", [(AptParams(a=0.5), AptParams(a=0.8, family=Family.PT)),
                                      (AptParams(a=1.2), AptParams(a=1.8, gamma=0.7)),
                                      (AptParams(a=1.0), IDENTITY)],
                             ids=["broken", "unbroken", "identity"])
    def test_one_sample_pieces_equal_whole_bit_for_bit(self, pair, rank):
        rho0 = None if rank is None else _random_state(rank, 11)
        initial = None if rank is None else rank_factor(rho0)
        times = time_grid(5.0, 0.05)
        whole = evolve_pairs([pair], times, initial)
        for cut in (1, times.size - 1):
            parts = [evolve_pairs([pair], piece, initial) for piece in (times[:cut], times[cut:])]
            for i, name in enumerate(("conc", "norms", "factors")):
                assert np.array_equal(np.concatenate([part[i] for part in parts], axis=1),
                                      whole[i]), (cut, name)
        # every sample of run's grid, evolved as a grid of its own
        traj = run(EvolutionSpec(p1=pair[0], p2=pair[1], t_max=5.0, dt=0.05, initial=rho0))
        for j, t in enumerate(times):
            conc, norms, _ = evolve_pairs([pair], times[j:j + 1], initial)
            assert conc[0, 0] == traj.concurrence[j] and norms[0, 0] == traj.unnormalized_norm[j], t

    def test_failure_names_first_failing_pair(self):
        # a = 0.3 overflows at a smaller t than a = 0.5, but the a = 0.5 pair
        # comes first, so its first bad t is the one named
        pairs = [(AptParams(a=1.2), AptParams(a=1.2)), (AptParams(a=0.5), AptParams(a=0.5)),
                 (AptParams(a=0.3), AptParams(a=0.3))]
        times = time_grid(400.0, 0.01)  # EvolutionSpec's default dt
        messages = []
        for p1, p2 in pairs[1:]:
            with pytest.raises(OverflowError) as err:
                run(EvolutionSpec(p1=p1, p2=p2, t_max=400.0))
            messages.append(str(err.value))
        assert messages[0] != messages[1]
        with pytest.raises(OverflowError) as err:
            evolve_pairs(pairs, times)
        assert str(err.value) == messages[0]

    def test_bell_factor_constant(self):
        expected = rank_factor(bell_state())
        assert dynamics._BELL_FACTOR.dtype == expected.dtype
        assert np.array_equal(dynamics._BELL_FACTOR, expected)

    def test_bell_default_equals_explicit_bell_state(self):
        # the default's factor and C(rho0) are constants: the same bits as
        # factoring and measuring bell_state() on every call
        pairs = [(AptParams(a=1.2), AptParams(a=1.3)), (AptParams(a=0.8), IDENTITY),
                 (AptParams(a=1.0), AptParams(a=0.6, family=Family.PT))]
        times = time_grid(10.0, 0.01)
        default = evolve_pairs(pairs, times)
        explicit = evolve_pairs(pairs, times, initial=rank_factor(bell_state()))
        for name, x, y in zip(("concurrence", "norm", "factor"), default, explicit):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
