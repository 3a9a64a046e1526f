"""Metric primitive tests on hand-built stores."""

import math

import pytest

from repro.analysis.metrics import (
    headline_stats,
    improvements_when_indirect,
    indirect_utilization,
    mean_improvement_by_site,
    positive_given_indirect,
)
from repro.trace.records import TransferRecord
from repro.trace.store import TraceStore


def rec(selected_via="R", direct=100.0, selected=150.0, client="A", site="eBay"):
    return TransferRecord(
        study="t",
        client=client,
        site=site,
        repetition=0,
        start_time=0.0,
        set_size=1 if selected_via else 0,
        offered=(selected_via,) if selected_via else (),
        selected_via=selected_via,
        direct_throughput=direct,
        selected_throughput=selected,
        end_to_end_throughput=selected,
        probe_overhead=0.0,
        file_bytes=1e6,
    )


def store():
    return TraceStore(
        [
            rec(selected=150.0),              # +50%
            rec(selected=80.0),               # -20% (penalty)
            rec(selected_via=None, selected=100.0),  # direct chosen
            rec(selected=200.0),              # +100%
        ]
    )


class TestImprovements:
    def test_conditional_improvements(self):
        imps = improvements_when_indirect(store())
        assert sorted(imps.tolist()) == pytest.approx([-20.0, 50.0, 100.0])

    def test_utilization(self):
        assert indirect_utilization(store()) == pytest.approx(0.75)

    def test_utilization_empty(self):
        assert math.isnan(indirect_utilization(TraceStore()))

    def test_positive_given_indirect(self):
        assert positive_given_indirect(store()) == pytest.approx(2 / 3)

    def test_positive_given_indirect_never_selected(self):
        s = TraceStore([rec(selected_via=None)])
        assert math.isnan(positive_given_indirect(s))


class TestHeadline:
    def test_headline_values(self):
        h = headline_stats(store())
        assert h.n_transfers == 4
        assert h.utilization == pytest.approx(0.75)
        assert h.positive_given_indirect == pytest.approx(2 / 3)
        assert h.mean_improvement_when_indirect == pytest.approx(130.0 / 3)
        assert h.median_improvement_when_indirect == pytest.approx(50.0)
        assert h.effective_benefit_rate == pytest.approx(0.5)

    def test_headline_empty(self):
        h = headline_stats(TraceStore())
        assert h.n_transfers == 0
        assert math.isnan(h.mean_improvement_when_indirect)


class TestBySite:
    def test_grouping(self):
        s = TraceStore(
            [
                rec(site="eBay", selected=150.0),
                rec(site="Google", selected=120.0),
                rec(site="Google", selected=180.0),
            ]
        )
        by = mean_improvement_by_site(s)
        assert by["eBay"] == pytest.approx(50.0)
        assert by["Google"] == pytest.approx(50.0)

    def test_site_without_indirect_nan(self):
        s = TraceStore([rec(site="Yahoo", selected_via=None)])
        assert math.isnan(mean_improvement_by_site(s)["Yahoo"])
