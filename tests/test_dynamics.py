import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from aptsim import dynamics
from aptsim.dynamics import (MAX_SAMPLES, DegenerateNormError,
                             EvolutionSpec, InvalidStateError, bell_ket, bell_state,
                             evolve_pairs, maximally_mixed, rank_factor, run, time_grid,
                             validate_density_matrix)
from aptsim.entanglement import concurrence
from aptsim.model import IDENTITY, AptParams, Family, hamiltonian
from aptsim.propagator import propagators

from oracles import evolve_mp, expm_series


class TestStatesAndValidation:
    def test_bell_ket_components(self):
        v = bell_ket()
        assert v[0] == 0 and v[3] == 0
        assert v[1] == pytest.approx(1 / np.sqrt(2))
        assert np.vdot(v, v) == pytest.approx(1.0)

    def test_bell_state_valid(self):
        validate_density_matrix(bell_state())
        validate_density_matrix(maximally_mixed())

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.eye(2) / 2)

    def test_rejects_non_hermitian(self):
        rho = maximally_mixed()
        rho[0, 1] = 0.1
        with pytest.raises(InvalidStateError):
            validate_density_matrix(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.eye(4, dtype=complex) / 2)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.75, 0.5, 0.0, -0.25]).astype(complex)
        with pytest.raises(InvalidStateError):
            validate_density_matrix(rho)

    def test_rejects_nan(self):
        rho = maximally_mixed()
        rho[2, 2] = np.nan
        with pytest.raises(InvalidStateError):
            validate_density_matrix(rho)

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
            validate_density_matrix(rho)
        assert str(err.value) == message

    @pytest.mark.parametrize("rho,message", BAD_STATES)
    def test_stack_names_the_bad_state(self, rho, message):
        stack = np.array([bell_state(), maximally_mixed(), rho, bell_state()])
        with pytest.raises(InvalidStateError) as err:
            validate_density_matrix(stack)
        assert str(err.value) == f"state 2: {message}"

    def test_stack_eigh_matches_one_at_a_time(self):
        p1, p2 = AptParams(a=1.2), AptParams(a=0.8)
        evolved = evolve_pairs([(p1, p2)], [0.0, 0.7, 3.1], keep_states=True)[2][0]
        stack = np.concatenate([maximally_mixed()[None], evolved])
        w, v = validate_density_matrix(stack)
        for i, rho in enumerate(stack):
            w_i, v_i = validate_density_matrix(rho)
            assert np.array_equal(w[i], w_i) and np.array_equal(v[i], v_i)


class TestEvolvedStates:
    def test_time_zero_returns_initial(self):
        p = AptParams(a=1.2)
        for rho0 in (bell_state(), maximally_mixed()):
            rho = evolve_pairs([(p, p)], [0.0], rho0, keep_states=True)[2][0, 0]
            assert np.allclose(rho, rho0, atol=1e-15)

    def test_bell_recovered_after_full_period(self):
        p = AptParams(a=1.2)
        period = np.pi / np.sqrt(1.2 ** 2 - 1.0)
        rho = evolve_pairs([(p, p)], [period], keep_states=True)[2][0, 0]
        overlap = float(np.real(np.vdot(bell_ket(), rho @ bell_ket())))
        assert overlap > 1.0 - 1e-9

    def test_output_satisfies_invariants(self):
        for a1, a2, t in ((1.2, 1.3, 3.0), (0.8, 0.8, 10.0), (1.0, 2.0, 5.0)):
            rho = evolve_pairs([(AptParams(a=a1), AptParams(a=a2))], [t],
                               keep_states=True)[2][0, 0]
            validate_density_matrix(rho)

    def test_identity_marker_applies_u_tensor_identity(self):
        p = AptParams(a=1.2)
        got = evolve_pairs([(p, IDENTITY)], [1.0], keep_states=True)[2][0, 0]
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

    def test_keep_states(self):
        p = AptParams(a=1.2)
        times = time_grid(0.5, 0.25)
        states = evolve_pairs([(p, p)], times, keep_states=True)[2][0]
        assert len(states) == times.size
        for rho in states:
            validate_density_matrix(rho)


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
            fast = evolve_pairs([(p1, p2)], times)[0][0]
            traj = run(EvolutionSpec(p1=p1, p2=p2, t_max=9.95, dt=0.05))
            assert fast.size == traj.concurrence.size
            assert np.max(np.abs(fast - traj.concurrence)) < 1e-10


def _reference_sample(rho0, p1, p2, t):
    """(concurrence, norm) at one time through the 4x4 route: series
    exponentials, np.kron, the sandwich, and the Wootters concurrence."""
    u = np.kron(expm_series(hamiltonian(p1), t), expm_series(hamiltonian(p2), t))
    m = u @ rho0 @ u.conj().T
    norm = float(np.real(np.trace(m)))
    return concurrence((m + m.conj().T) / (2.0 * norm)), norm


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


class TestRunProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p1=_QUBITS, p2=st.one_of(_QUBITS, st.just(IDENTITY)),
           t_max=st.floats(0.0, 30.0), rank=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_sample_reference(self, p1, p2, t_max, rank, seed):
        # keep |U| below ~e^40 so the reference's norm stays finite
        t_max = min(t_max, 40.0 / max(_growth_rate(p1), _growth_rate(p2), 1e-3))
        rho0 = _random_state(rank, seed)
        times = time_grid(t_max, max(t_max / 4.0, 1e-3))
        conc, norms, states = evolve_pairs([(p1, p2)], times, rho0, keep_states=True)
        conc_tol = 1e-10 if rank == 1 else 1e-6
        for t, c, n, rho in zip(times, conc[0], norms[0], states[0]):
            ref_c, ref_n = _reference_sample(rho0, p1, p2, float(t))
            assert n == pytest.approx(ref_n, rel=1e-9)
            assert abs(c - ref_c) < conc_tol
            validate_density_matrix(rho)


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
    @settings(max_examples=30, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(p1=st.one_of(_QUBITS, st.just(IDENTITY)), p2=st.one_of(_QUBITS, st.just(IDENTITY)),
           t_max=st.floats(0.0, 60.0), rank=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_40_digit_evolution(self, p1, p2, t_max, rank, seed):
        # the broken regime up to a growth of e^40 in |U|
        t_max = min(t_max, 40.0 / max(_growth_rate(p1), _growth_rate(p2), 1e-3))
        rho0 = _random_state(rank, seed)
        times = t_max * np.array([1.0 / 3.0, 2.0 / 3.0, 1.0])
        conc, norms, states = evolve_pairs([(p1, p2)], times, rho0, keep_states=True)
        ref_c, ref_n, ref_rho = evolve_mp(rho0, p1, p2, times)
        assert np.all(np.abs(norms[0] - ref_n) <= REFEREE_NORM_REL * ref_n)
        assert np.all(np.abs(conc[0] - ref_c) <= REFEREE_CONC_ABS)
        assert np.all(np.abs(states[0] - ref_rho) <= REFEREE_STATE_ABS)

    @pytest.mark.parametrize("regime", list(_REFEREE_PAIRS))
    @pytest.mark.parametrize("state", list(_REFEREE_STATES))
    def test_kept_states_match_40_digit_evolution(self, state, regime):
        rho0, pair = _REFEREE_STATES[state], _REFEREE_PAIRS[regime]
        times = np.array([0.0, 1.3, 7.1, 20.0])
        states = evolve_pairs([pair], times, rho0, keep_states=True)[2]
        ref_rho = evolve_mp(bell_state() if rho0 is None else rho0, *pair, times)[2]
        assert np.all(np.abs(states[0] - ref_rho) <= REFEREE_STATE_ABS)


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
        conc, norms, states = evolve_pairs(pairs, times, initial, keep_states=True)
        assert conc.shape == norms.shape == (len(pairs), times.size)
        assert states.shape == (len(pairs), times.size, 4, 4)
        for i, spec in enumerate(specs):
            traj = run(spec)
            assert np.array_equal(conc[i], traj.concurrence)
            assert np.array_equal(norms[i], traj.unnormalized_norm)
            # each pair's states do not depend on the rest of the stack
            one = evolve_pairs([pairs[i]], times, initial, keep_states=True)[2]
            assert np.array_equal(states[i], one[0])

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
