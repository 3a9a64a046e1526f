"""Capacity process tests: statistics, determinism, validation, and the
samplers' bit-equality with the per-step oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.capacity import (
    ConstantCapacity,
    LognormalAR1Capacity,
    MarkovModulatedCapacity,
)
from tests.capacity_oracle import ar1_sample, dynamic_range, markov_sample, mean_capacity


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConstant:
    def test_sample_is_constant(self):
        t = ConstantCapacity(500.0).sample(100.0, rng())
        assert t.n_pieces == 1
        assert t.value_at(50.0) == 500.0

    def test_mean(self):
        assert mean_capacity(ConstantCapacity(500.0)) == 500.0

    def test_zero_allowed(self):
        assert ConstantCapacity(0.0).sample(1.0, rng()).value_at(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantCapacity(-1.0)


class TestMarkovModulated:
    def make(self, **kw):
        defaults = dict(
            base=1000.0,
            multipliers=(1.0, 0.5, 2.0),
            stationary=(0.6, 0.2, 0.2),
            mean_holding=(100.0, 50.0, 50.0),
        )
        defaults.update(kw)
        return MarkovModulatedCapacity(**defaults)

    def test_covers_duration(self):
        t = self.make().sample(1000.0, rng())
        assert t.times[-1] >= 1000.0

    def test_values_are_base_times_multipliers(self):
        proc = self.make()
        t = proc.sample(5000.0, rng())
        allowed = {1000.0, 500.0, 2000.0}
        assert set(np.unique(t.values)).issubset(allowed)

    def test_deterministic_given_rng(self):
        a = self.make().sample(500.0, rng(7))
        b = self.make().sample(500.0, rng(7))
        assert a == b

    def test_long_run_mean_capacity(self):
        proc = self.make()
        t = proc.sample(500_000.0, rng(1))
        measured = t.integrate(0.0, 500_000.0) / 500_000.0
        assert measured == pytest.approx(mean_capacity(proc), rel=0.08)

    def test_state_occupancy_matches_stationary(self):
        proc = self.make()
        t = proc.sample(500_000.0, rng(2))
        # Time spent at multiplier 1.0 should be near 60%.
        durations = np.diff(np.append(t.times, t.times[-1] + 1.0))
        frac = durations[t.values == 1000.0].sum() / durations.sum()
        assert frac == pytest.approx(0.6, abs=0.07)

    def test_dynamic_range(self):
        assert dynamic_range(self.make()) == pytest.approx(4.0)

    def test_stationary_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            self.make(stationary=(0.5, 0.2, 0.2))

    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            MarkovModulatedCapacity(
                base=1.0, multipliers=(1.0,), stationary=(1.0,), mean_holding=(10.0,)
            )

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            self.make(mean_holding=(10.0, 20.0))

    def test_non_positive_holding_rejected(self):
        with pytest.raises(ValueError):
            self.make(mean_holding=(10.0, 0.0, 10.0))


class TestLognormalAR1:
    def test_mean_is_base(self):
        proc = LognormalAR1Capacity(base=2000.0, sigma=0.3, phi=0.8, step=10.0)
        t = proc.sample(200_000.0, rng(3))
        measured = t.integrate(0.0, 200_000.0) / 200_000.0
        assert measured == pytest.approx(2000.0, rel=0.1)

    def test_zero_sigma_is_constant(self):
        proc = LognormalAR1Capacity(base=100.0, sigma=0.0, phi=0.5, step=5.0)
        t = proc.sample(100.0, rng())
        assert np.allclose(t.values, 100.0)

    def test_step_controls_pieces(self):
        proc = LognormalAR1Capacity(base=1.0, step=10.0)
        t = proc.sample(100.0, rng())
        assert t.n_pieces == pytest.approx(12, abs=1)

    def test_autocorrelation_positive(self):
        proc = LognormalAR1Capacity(base=1.0, sigma=0.5, phi=0.95, step=1.0)
        t = proc.sample(20_000.0, rng(5))
        logs = np.log(t.values)
        x = logs - logs.mean()
        r1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert r1 > 0.8

    def test_all_values_positive(self):
        proc = LognormalAR1Capacity(base=5.0, sigma=1.0, phi=0.9, step=1.0)
        t = proc.sample(1000.0, rng(6))
        assert np.all(t.values > 0.0)

    def test_invalid_phi(self):
        with pytest.raises(ValueError):
            LognormalAR1Capacity(base=1.0, phi=1.5)


class ScriptedGenerator(np.random.Generator):
    """A generator whose next scalar ``random()`` draws come from a script.

    ``Generator.choice`` draws its uniform through ``self.random``, so a
    scripted value reaches the oracle and the sampler alike.  Scripting a
    value that sits exactly on a CDF step is how the tests tell a right
    bisection from a left one: a seeded stream almost never lands there.
    """

    def __init__(self, seed, script):
        super().__init__(np.random.PCG64(seed))
        self.script = list(script)

    def random(self, size=None, dtype=np.float64, out=None):
        if self.script and size in (None, ()):
            return self.script.pop(0)
        return super().random(size, dtype, out)


def cdf_steps(stationary):
    """0.0 and every step below 1.0 of the start and jump CDFs."""
    pi = np.asarray(stationary, dtype=np.float64)
    steps = {0.0}
    for state in range(-1, pi.size):
        weights = pi.copy()
        if state >= 0:
            weights[state] = 0.0
            if not weights.sum() > 0.0:
                continue
            weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        steps.update(c for c in cdf.tolist() if c < 1.0)
    return sorted(steps)


@st.composite
def markov_processes(draw):
    n = draw(st.integers(2, 5))
    mass = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n, max_size=n
        ).filter(lambda m: sum(m) > 0.0)
    )
    total = sum(mass)
    return MarkovModulatedCapacity(
        base=draw(st.floats(1.0, 1e7)),
        multipliers=tuple(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))),
        stationary=tuple(m / total for m in mass),
        mean_holding=tuple(draw(st.lists(st.floats(1.0, 500.0), min_size=n, max_size=n))),
    )


def same_bits(trace, reference):
    assert trace.times.tobytes() == reference.times.tobytes()
    assert trace.values.tobytes() == reference.values.tobytes()


class TestOracle:
    """``sample()`` returns the per-step loops' trace, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        proc=markov_processes(),
        duration=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 3000.0)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_markov_matches_oracle(self, proc, duration, seed, data):
        # Script the first few uniforms onto CDF steps, then let the stream run.
        script = data.draw(st.lists(st.sampled_from(cdf_steps(proc.stationary)), max_size=6))
        try:
            reference = markov_sample(proc, duration, ScriptedGenerator(seed, script))
        except ValueError:
            with pytest.raises(ValueError):
                proc.sample(duration, ScriptedGenerator(seed, script))
            return
        same_bits(proc.sample(duration, ScriptedGenerator(seed, script)), reference)

    @settings(max_examples=150, deadline=None)
    @given(
        sigma=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        phi=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
        step=st.floats(0.5, 100.0),
        duration=st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(0.0, 10_000.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ar1_matches_oracle(self, sigma, phi, step, duration, seed):
        proc = LognormalAR1Capacity(base=1000.0, sigma=sigma, phi=phi, step=step)
        reference = ar1_sample(proc, duration, np.random.default_rng(seed))
        same_bits(proc.sample(duration, np.random.default_rng(seed)), reference)

    @pytest.mark.parametrize(
        "script,states",
        [
            # Start CDF [0.5, 0.75, 1.0]: a draw of exactly 0.5 is state 1.
            ([0.5], [1]),
            # Start at state 0, whose jump CDF is [0.0, 0.5, 1.0]: a draw
            # of exactly 0.5 jumps to state 2.
            ([0.25, 0.5], [0, 2]),
        ],
    )
    def test_draw_on_a_cdf_step_goes_right(self, script, states):
        proc = MarkovModulatedCapacity(
            base=1.0,
            multipliers=(1.0, 2.0, 3.0),
            stationary=(0.5, 0.25, 0.25),
            mean_holding=(10.0, 10.0, 10.0),
        )
        trace = proc.sample(0.0, ScriptedGenerator(3, script))
        assert trace.values.tolist()[: len(states)] == [1.0 + s for s in states]
        same_bits(trace, markov_sample(proc, 0.0, ScriptedGenerator(3, script)))

    @pytest.mark.parametrize("stationary", [(1.0, 0.0), (0.0, 0.0, 1.0)])
    def test_mass_one_state_raises(self, stationary):
        proc = MarkovModulatedCapacity(
            base=1.0,
            multipliers=(1.0,) * len(stationary),
            stationary=stationary,
            mean_holding=(10.0,) * len(stationary),
        )
        with pytest.raises(ValueError):
            markov_sample(proc, 5.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="no other state"):
            proc.sample(5.0, np.random.default_rng(0))
