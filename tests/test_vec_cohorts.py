"""The cohort solve: one solver flow per cohort of identical rows.

A :class:`~repro.vec.engine.VectorCore` solves each cohort of a probe
race (rows sharing a route, and so a ramp and an activation instant) as one
flow weighted by its multiplicity.  ``waterfill_sparse(..., mult=...)`` must then return exactly
the bits and the round count of the same problem expanded to rows, in any
row order, or give up (``None``) when a cap round freezes two cap values
on one link, where the rows' sum depends on their order.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.route import Route
from repro.net.trace import CapacityTrace
from repro.obs.core import Observer, global_observer, reset_global_observer
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork
from repro.tcp.model import SlowStartRamp
from repro.vec import engine
from repro.vec.solver import waterfill_sparse
from repro.workloads.scale import ScaleStudyParams, plan_scale, run_scale_unit


def _cohort_coords(cohort_links):
    lids = np.array([l for links in cohort_links for l in links], dtype=np.int64)
    frow = np.repeat(
        np.arange(len(cohort_links), dtype=np.int64), [len(l) for l in cohort_links]
    )
    return lids, frow


def _expanded(cohort_links, caps, mult, order):
    """The rows behind the cohorts, in ``order`` (a permutation of rows)."""
    of = np.repeat(np.arange(len(cohort_links)), mult)[order]
    lids = np.array([l for c in of for l in cohort_links[c]], dtype=np.int64)
    frow = np.repeat(
        np.arange(of.size, dtype=np.int64), [len(cohort_links[c]) for c in of]
    )
    return lids, frow, np.asarray(caps)[of], of


def _both(link_cap, cohort_links, caps, mult, order):
    """The cohort solve and the rows' solve, rates gathered to rows."""
    lids, frow = _cohort_coords(cohort_links)
    c_rates, c_rounds = waterfill_sparse(
        link_cap, lids, frow, len(cohort_links), np.asarray(caps), mult=np.asarray(mult)
    )
    r_lids, r_frow, r_caps, of = _expanded(cohort_links, caps, mult, order)
    rates, rounds = waterfill_sparse(link_cap, r_lids, r_frow, of.size, r_caps)
    return (None if c_rates is None else c_rates[of]), c_rounds, rates, rounds


@st.composite
def cohort_problems(draw):
    """Random link tables and cohorts (multiplicities 1..10^4); caps come
    from a small set so cap rounds freeze many cohorts at once.  With
    ``tie`` set, two extra cohorts on link 0 carry caps within 1e-9 of
    each other, below every other cap and every link's first share."""
    n_links = draw(st.integers(1, 5))
    n_cohorts = draw(st.integers(1, 7))
    cohort_links = [
        sorted(draw(st.sets(st.integers(0, n_links - 1), min_size=1, max_size=n_links)))
        for _ in range(n_cohorts)
    ]
    mult = [
        draw(st.one_of(st.integers(1, 12), st.sampled_from([100, 999, 10_000])))
        for _ in range(n_cohorts)
    ]
    caps = [
        draw(st.one_of(
            st.sampled_from([np.inf, 0.1, 0.3, 1.0, 2.5]),
            st.floats(0.01, 5.0),
        ))
        for _ in range(n_cohorts)
    ]
    # Two distinct caps within the solver's 1e-9 freeze in one round: that
    # is a tie, and only the ``tie`` branch below draws one.
    finite = sorted({c for c in caps if np.isfinite(c)})
    assume(all(b > a * (1.0 + 1e-8) for a, b in zip(finite, finite[1:])))
    tie = draw(st.booleans())
    if tie:
        cohort_links += [[0], sorted({0, draw(st.integers(0, n_links - 1))})]
        mult += [draw(st.integers(1, 50)), draw(st.integers(1, 50))]
    rows_on = np.zeros(n_links)
    for links, k in zip(cohort_links, mult):
        rows_on[links] += k
    link_cap = np.array(
        [draw(st.floats(0.05, 3.0)) * max(r, 1.0) for r in rows_on]
    )
    if tie:
        low = 0.5 * min(
            float((link_cap / np.maximum(rows_on, 1.0)).min()), min(caps)
        )
        caps += [low, low * (1.0 + draw(st.floats(1e-12, 5e-10)))]
    seed = draw(st.integers(0, 2**32 - 1))
    order = np.random.default_rng(seed).permutation(int(sum(mult)))
    return link_cap, cohort_links, caps, mult, order, tie


class TestCohortSolve:
    @settings(max_examples=150, deadline=None)
    @given(cohort_problems())
    def test_cohort_solve_matches_the_rows_in_any_order(self, problem):
        link_cap, cohort_links, caps, mult, order, tie = problem
        c_rates, c_rounds, rates, rounds = _both(link_cap, cohort_links, caps, mult, order)
        if tie:
            # Two caps within 1e-9 freeze together on link 0 in the first
            # round: the rows' sum there depends on their order.
            assert c_rates is None
            return
        assert c_rates is not None
        assert c_rates.tobytes() == rates.tobytes()
        assert c_rounds == rounds

    def test_equal_caps_sum_sequentially_not_by_product(self):
        # Ten rows of cap 0.1 free 0.9999999999999999 of the link, not
        # 10 * 0.1 == 1.0; the uncapped row gets the rest.
        link_cap = np.array([1.5])
        c_rates, c_rounds, rates, rounds = _both(
            link_cap, [[0], [0]], [0.1, np.inf], [10, 1], np.arange(11)
        )
        assert rates[-1] == 1.5 - 0.9999999999999999 != 1.5 - 10 * 0.1
        assert c_rates.tobytes() == rates.tobytes() and c_rounds == rounds

    def test_near_tie_caps_on_one_link_fall_back(self):
        lids, frow = _cohort_coords([[0], [0, 1]])
        caps = np.array([0.1, 0.1 * (1.0 + 1e-10)])
        rates, _ = waterfill_sparse(
            np.array([100.0, 100.0]), lids, frow, 2, caps, mult=np.array([3, 4])
        )
        assert rates is None

    def test_a_fallback_attempt_counts_no_rounds(self):
        lids, frow = _cohort_coords([[0], [0]])
        obs = Observer()
        rates, rounds = waterfill_sparse(
            np.array([100.0]), lids, frow, 2, np.array([0.1, 0.1 + 1e-12]),
            mult=np.array([2, 2]), observer=obs,
        )
        assert rates is None and rounds == 1
        assert obs.counter("vec.solver_rounds") == 0.0


def _rows_only(monkeypatch):
    """Make every cohort solve give up, so each tick re-solves the rows."""
    real = engine.waterfill_sparse

    def rows_only(*args, mult=None, **kw):
        if mult is not None:
            return None, 0
        return real(*args, **kw)

    monkeypatch.setattr(engine, "waterfill_sparse", rows_only)


@pytest.fixture
def observer(monkeypatch):
    """The process-global observer every simulator of the test binds."""
    monkeypatch.setenv("REPRO_OBS", "1")
    reset_global_observer()
    obs = global_observer(create=True)
    yield obs
    reset_global_observer()


def _near_tie_race(sim):
    """250 clients racing two routes over one link whose ramps' peaks
    differ by 1e-10: once the 500 probe rows ramp to their peaks the two
    cohorts freeze at their caps in one round."""
    link = Link("l", "a", "b", CapacityTrace.constant(1e9), delay=0.01)
    ramps = [
        SlowStartRamp(rtt=0.05, max_window=60_000.0),
        SlowStartRamp(rtt=0.05, max_window=60_000.0 * (1.0 + 1e-10)),
    ]
    n = 250
    return FluidNetwork(sim).start_races(
        [Route([link]), Route([link])], ramps, [2e6, 2.003e6, 2.006e6],
        probe_bytes=2e6, direct=[0] * n, relay=[1] * n,
        size=[i % 3 for i in range(n)], slot=[0] * n, slot_times=[0.0],
    )


class TestEngineFallback:
    def _run(self, sanitize):
        sim = Simulator(sanitize=sanitize)
        race = _near_tie_race(sim)
        sim.run()
        assert race.n_completed == 250
        return (
            race.latency.tobytes(), race.throughput.tobytes(),
            race.indirect.tobytes(), race.probe_overhead_sum, sim.now,
        )

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_near_tie_ramps_fall_back_to_the_rows(self, monkeypatch, observer, sanitize):
        cohorts = self._run(sanitize)
        counts = dict(observer.counters)
        assert counts.get("vec.cohort_fallbacks", 0.0) > 0
        reset_global_observer()
        rows = global_observer(create=True)
        _rows_only(monkeypatch)
        assert self._run(sanitize) == cohorts
        assert counts["vec.solver_rounds"] == rows.counter("vec.solver_rounds")

class TestWave:
    @pytest.mark.parametrize("sanitize", [False, True])
    def test_10k_wave_record_equals_the_rows_solve(
        self, monkeypatch, observer, section2_scenario, sanitize
    ):
        monkeypatch.setenv("REPRO_SANITIZE", "1" if sanitize else "0")
        params = ScaleStudyParams(clients_per_wave=10_000)
        unit = plan_scale(section2_scenario, waves=1, params=params).units[0]
        cohorts = run_scale_unit(section2_scenario, None, unit, params).to_dict()
        assert observer.counter("vec.solve_sparse") > 0
        assert observer.counter("vec.cohort_fallbacks") == 0.0
        _rows_only(monkeypatch)
        rows = run_scale_unit(section2_scenario, None, unit, params).to_dict()
        assert observer.counter("vec.cohort_fallbacks") > 0
        assert rows == cohorts

