"""Max-min fair allocator tests, including hypothesis optimality checks.

The engine's two solvers, :func:`maxmin_scalar` and
:func:`waterfill_sparse`, are held to the dense reference loop
(``tests/maxmin_oracle.py``) to round-off and to each other bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import benches
from repro.tcp import maxmin
from repro.tcp.maxmin import maxmin_scalar
from repro.vec.solver import certify_maxmin, waterfill_sparse
from tests.maxmin_oracle import incidence_matrix, maxmin_allocate, verify_maxmin


def alloc(caps, inc, flow_caps=None):
    return maxmin_allocate(
        np.asarray(caps, dtype=float),
        np.asarray(inc, dtype=bool),
        None if flow_caps is None else np.asarray(flow_caps, dtype=float),
    )


class TestSimpleCases:
    def test_single_flow_single_link(self):
        assert alloc([10.0], [[True]]).tolist() == [10.0]

    def test_two_flows_share_equally(self):
        rates = alloc([10.0], [[True, True]])
        assert rates.tolist() == [5.0, 5.0]

    def test_no_flows(self):
        assert alloc([10.0], np.zeros((1, 0))).size == 0

    def test_disjoint_links(self):
        rates = alloc([10.0, 4.0], [[True, False], [False, True]])
        assert rates.tolist() == [10.0, 4.0]

    def test_classic_linear_network(self):
        # Link A (cap 10) carries f0, f1; link B (cap 4) carries f1, f2.
        # Max-min: f1 limited by B -> 2; f2 -> 2; f0 takes A's rest -> 8.
        inc = [[True, True, False], [False, True, True]]
        rates = alloc([10.0, 4.0], inc)
        assert rates == pytest.approx([8.0, 2.0, 2.0])

    def test_three_flows_two_bottlenecks(self):
        # One shared link cap 9 and a private constraint cap 1 on flow 0.
        inc = [[True, True, True], [True, False, False]]
        rates = alloc([9.0, 1.0], inc)
        assert rates == pytest.approx([1.0, 4.0, 4.0])


class TestCaps:
    def test_cap_binds(self):
        rates = alloc([10.0], [[True, True]], flow_caps=[2.0, np.inf])
        assert rates == pytest.approx([2.0, 8.0])

    def test_zero_cap_flow_gets_zero(self):
        rates = alloc([10.0], [[True, True]], flow_caps=[0.0, np.inf])
        assert rates == pytest.approx([0.0, 10.0])

    def test_all_capped_below_fair_share(self):
        rates = alloc([10.0], [[True, True]], flow_caps=[1.0, 2.0])
        assert rates == pytest.approx([1.0, 2.0])

    def test_cap_equal_fair_share(self):
        rates = alloc([10.0], [[True, True]], flow_caps=[5.0, np.inf])
        assert rates == pytest.approx([5.0, 5.0])


class TestValidation:
    def test_flow_without_link_rejected(self):
        with pytest.raises(ValueError, match="at least one link"):
            alloc([10.0], [[True, False]])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            alloc([-1.0], [[True]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            maxmin_allocate(np.array([1.0, 2.0]), np.ones((1, 1), dtype=bool))

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            alloc([1.0], [[True]], flow_caps=[-1.0])


class TestVerifier:
    def test_accepts_correct_allocation(self):
        inc = np.array([[True, True, False], [False, True, True]])
        caps = np.array([10.0, 4.0])
        rates = maxmin_allocate(caps, inc)
        assert verify_maxmin(caps, inc, rates)

    def test_rejects_infeasible(self):
        inc = np.array([[True, True]])
        caps = np.array([10.0])
        assert not verify_maxmin(caps, inc, np.array([8.0, 8.0]))

    def test_rejects_non_maxmin(self):
        # Feasible but unfair: one flow starved without a bottleneck reason.
        inc = np.array([[True, True]])
        caps = np.array([10.0])
        assert not verify_maxmin(caps, inc, np.array([1.0, 2.0]))

    def test_rejects_cap_violation(self):
        inc = np.array([[True]])
        caps = np.array([10.0])
        assert not verify_maxmin(caps, inc, np.array([5.0]), caps=np.array([1.0]))


@st.composite
def allocation_problems(draw):
    n_links = draw(st.integers(min_value=1, max_value=5))
    n_flows = draw(st.integers(min_value=1, max_value=6))
    caps = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=1000.0),
            min_size=n_links,
            max_size=n_links,
        )
    )
    inc = np.zeros((n_links, n_flows), dtype=bool)
    for f in range(n_flows):
        links = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1,
                max_size=n_links,
                unique=True,
            )
        )
        inc[links, f] = True
    use_caps = draw(st.booleans())
    flow_caps = None
    if use_caps:
        flow_caps = draw(
            st.lists(
                st.one_of(
                    st.floats(min_value=0.1, max_value=500.0), st.just(float("inf"))
                ),
                min_size=n_flows,
                max_size=n_flows,
            )
        )
    return np.asarray(caps), inc, None if flow_caps is None else np.asarray(flow_caps)


def _flow_links(inc):
    """Per-flow link lists of a dense incidence matrix."""
    return [np.flatnonzero(col).tolist() for col in np.asarray(inc).T]


def _solve(solver, caps, inc, flow_caps):
    """Run ``solver`` ("scalar" or "sparse") on a dense-form problem."""
    n_flows = inc.shape[1]
    flow_caps = np.full(n_flows, np.inf) if flow_caps is None else flow_caps
    if solver == "scalar":
        return np.array(maxmin_scalar(caps.tolist(), _flow_links(inc), flow_caps.tolist()))
    frow, lids = np.nonzero(inc.T)
    return waterfill_sparse(caps, lids, frow, n_flows, flow_caps)[0]


SOLVERS = ("scalar", "sparse")


class TestMaxMinProperties:
    """Both engine solvers are feasible, cap-respecting and max-min fair,
    and agree with the dense reference loop to round-off."""

    @settings(max_examples=200, deadline=None)
    @given(allocation_problems())
    def test_allocation_is_maxmin_optimal(self, problem):
        caps, inc, flow_caps = problem
        reference = maxmin_allocate(caps, inc, flow_caps)
        for solver in SOLVERS:
            rates = _solve(solver, caps, inc, flow_caps)
            assert verify_maxmin(caps, inc, rates, flow_caps)
            np.testing.assert_allclose(rates, reference, rtol=1e-9, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(allocation_problems())
    def test_feasibility(self, problem):
        caps, inc, flow_caps = problem
        for solver in SOLVERS:
            rates = _solve(solver, caps, inc, flow_caps)
            load = inc @ rates
            assert np.all(load <= caps * (1 + 1e-6) + 1e-9)
            assert np.all(rates >= 0.0)
            if flow_caps is not None:
                assert np.all(rates <= flow_caps)

    @settings(max_examples=100, deadline=None)
    @given(allocation_problems())
    def test_scale_invariance(self, problem):
        caps, inc, flow_caps = problem
        scaled_caps = None if flow_caps is None else flow_caps * 2.0
        for solver in SOLVERS:
            r1 = _solve(solver, caps, inc, flow_caps)
            r2 = _solve(solver, caps * 2.0, inc, scaled_caps)
            assert np.allclose(r2, r1 * 2.0, rtol=1e-6, atol=1e-9)


#: Link capacities and flow caps that tie: 30 / 3 == 10 == 20 / 2, and the
#: nudged values sit inside (or just outside) the solvers' 1e-9 merge slack.
_TIED = (0.0, 10.0, 20.0, 30.0, 10.0 * (1 + 5e-10), 10.0 * (1 - 5e-10), 10.0 * (1 + 2e-9))


@st.composite
def shared_problems(draw):
    """Plain-list problems of 1-64 flows; in half of them all share link 0.

    In half of those with five or more flows, five or more flows carry the
    cap 0.1, whose sums depend on their order (ten of them make
    0.9999999999999999, not 1.0); the other caps mostly differ.
    """
    n_links = draw(st.integers(min_value=1, max_value=10))
    n_flows = draw(st.integers(min_value=1, max_value=64))
    capacities = draw(
        st.lists(
            st.sampled_from(_TIED) | st.floats(min_value=0.5, max_value=1000.0),
            min_size=n_links,
            max_size=n_links,
        )
    )
    through_zero = draw(st.booleans())
    flow_links = []
    for _ in range(n_flows):
        links = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1,
                max_size=min(n_links, 4),
                unique=True,
            )
        )
        if through_zero and 0 not in links:
            links.append(0)
        flow_links.append(links)
    caps = draw(
        st.lists(
            st.sampled_from(_TIED + (math.inf,))
            | st.floats(min_value=0.1, max_value=500.0),
            min_size=n_flows,
            max_size=n_flows,
        )
    )
    if n_flows >= 5 and draw(st.booleans()):
        n_equal = draw(st.integers(min_value=5, max_value=n_flows))
        for j in draw(st.permutations(range(n_flows)))[:n_equal]:
            caps[j] = 0.1
    return capacities, flow_links, caps


def _sparse(flow_links):
    """``(lids, frow)`` coordinate lists of per-flow link lists."""
    lids = np.array([i for links in flow_links for i in links], dtype=np.int64)
    frow = np.repeat(np.arange(len(flow_links)), [len(l) for l in flow_links])
    return lids, frow


def _waterfill(capacities, flow_links, caps):
    """``waterfill_sparse``'s rates on :func:`maxmin_scalar`'s inputs."""
    lids, frow = _sparse(flow_links)
    return waterfill_sparse(
        np.array(capacities), lids, frow, len(flow_links), np.array(caps)
    )[0]


class TestScalarSolver:
    """``maxmin_scalar`` runs ``waterfill_sparse``'s rounds in plain floats
    and returns its rates bit for bit; the dense reference loop agrees to
    round-off."""

    @settings(max_examples=300, deadline=None)
    @given(shared_problems())
    def test_bit_identical_to_reference_loop(self, problem):
        capacities, flow_links, caps = problem
        rates = maxmin_scalar(capacities, flow_links, caps)
        assert np.array(rates).tobytes() == _waterfill(capacities, flow_links, caps).tobytes()
        incidence = incidence_matrix(len(capacities), flow_links)
        assert verify_maxmin(np.array(capacities), incidence, np.array(rates), np.array(caps))
        lids, frow = _sparse(flow_links)
        assert certify_maxmin(np.array(capacities), lids, frow, np.array(caps), rates)

    @pytest.mark.parametrize(
        "capacities, flow_links, caps, hands_off",
        [
            # One cap round freezes three flows on link 0 with distinct
            # caps (all within the 1e-9 slack) while a fourth stays active.
            (
                [100.0, 50.0],
                [[0], [0], [0], [0, 1]],
                [1.0, 1.0 + 3e-10, 1.0 + 6e-10, math.inf],
                False,
            ),
            # Five equal caps on link 0: summed in flow order.
            ([100.0], [[0]] * 6, [1.1] * 5 + [math.inf], False),
            # A lone flow runs the same rounds.
            ([7.0, 3.0], [[0, 1]], [5.0], False),
            # The first round's lowest share is a zero of both signs.
            ([0.0, -0.0, 5.0], [[0, 2], [1, 2], [2]], [math.inf] * 3, True),
        ],
    )
    def test_hands_off_only_a_signed_zero_first_round(
        self, capacities, flow_links, caps, hands_off
    ):
        with mock.patch.object(maxmin, "_sparse", wraps=maxmin._sparse) as spy:
            rates = maxmin_scalar(capacities, flow_links, caps)
        assert spy.call_count == int(hands_off)
        assert np.array(rates).tobytes() == _waterfill(capacities, flow_links, caps).tobytes()

    @pytest.mark.parametrize("n_capped", [2, 3, 4])
    def test_order_free_cap_sums_stay_scalar(self, n_capped):
        # A fault_grid pass freezes 3 or 4 equal caps on one link about
        # 1,500 times.  1.1 has a full mantissa, so 3 * 1.1 rounds: still
        # one answer.
        caps = [1.1] * n_capped + [2.0 + 1e-3, math.inf]
        with mock.patch.object(maxmin, "_sparse", wraps=maxmin._sparse) as spy:
            rates = maxmin_scalar([100.0], [[0]] * len(caps), caps)
        assert spy.call_count == 0
        assert np.array(rates).tobytes() == _waterfill([100.0], [[0]] * len(caps), caps).tobytes()


@pytest.mark.parametrize("shape", ["session", "scale_wave", "probe_race"])
def test_bench_shapes_bit_identical(shape):
    """The bench's workload shapes match the sparse solve."""
    make = {
        "session": benches._small_shared_problem,
        "scale_wave": benches._scale_wave_problem,
        "probe_race": benches._probe_race_problem,
    }[shape]
    rng = np.random.default_rng(7)
    for n_flows in (2, 6, 12, 24, 48):
        for _ in range(20):
            capacities, flow_links, caps = make(rng, n_flows)
            rates = maxmin_scalar(capacities, flow_links, caps)
            reference = _waterfill(capacities, flow_links, caps)
            assert np.array(rates).tobytes() == reference.tobytes()


def _population(n_flows, seed, n_links=40):
    """A sparse population: 2-4 links per flow, 30% of flows capped."""
    rng = np.random.default_rng(seed)
    link_cap = rng.uniform(1e3, 1e5, size=n_links)
    flow_links = [
        rng.choice(n_links, size=int(k), replace=False).tolist()
        for k in rng.integers(2, 5, size=n_flows)
    ]
    caps = np.where(
        rng.random(n_flows) < 0.3, rng.choice([50.0, 200.0, 800.0], size=n_flows), np.inf
    )
    lids, frow = _sparse(flow_links)
    return link_cap, lids, frow, caps


class TestCertificate:
    """``certify_maxmin`` is an O(nnz) oracle at any population size."""

    @pytest.mark.parametrize("n_flows", [385, 10_000])
    def test_certifies_sparse_solver(self, n_flows):
        link_cap, lids, frow, caps = _population(n_flows, seed=n_flows)
        rates, _ = waterfill_sparse(link_cap, lids, frow, n_flows, caps)
        assert certify_maxmin(link_cap, lids, frow, caps, rates)
        # Halving one flow below its cap breaks the bottleneck property.
        below = np.flatnonzero((rates > 1.0) & (rates < caps * 0.99))
        broken = rates.copy()
        broken[below[0]] *= 0.5
        assert not certify_maxmin(link_cap, lids, frow, caps, broken)

    @settings(max_examples=100, deadline=None)
    @given(shared_problems())
    def test_agrees_with_verify_maxmin(self, problem):
        capacities, flow_links, caps = problem
        rates = maxmin_scalar(capacities, flow_links, caps)
        lids, frow = _sparse(flow_links)
        incidence = incidence_matrix(len(capacities), flow_links)
        for candidate in (rates, [0.5 * r for r in rates], [2.0 * r for r in rates]):
            assert certify_maxmin(
                np.array(capacities), lids, frow, np.array(caps), candidate
            ) == verify_maxmin(
                np.array(capacities), incidence, np.array(candidate), np.array(caps)
            )

    def test_rejects_overload_and_cap_violation(self):
        link_cap = np.array([10.0])
        lids, frow = _sparse([[0], [0]])
        caps = np.array([np.inf, 2.0])
        assert certify_maxmin(link_cap, lids, frow, caps, [8.0, 2.0])
        assert not certify_maxmin(link_cap, lids, frow, caps, [9.0, 2.0])
        assert not certify_maxmin(link_cap, lids, frow, caps, [7.0, 3.0])
