"""E3 / Table I: penalty statistics under the paper's filters.

Paper: All clients 12% penalty points / 290% average penalty; dropping
High-throughput clients gives 8% / 43%; additionally dropping
high-variability Med/Low clients gives 3% / 12%.  The reproduction target is
the monotone shape: each filter removes penalty points and shrinks the
magnitudes.
"""

from repro.analysis.penalties import penalty_table
from repro.analysis.report import render_table1


def test_table1_penalty_statistics(benchmark, s2_store, save_artifact):
    rows = benchmark(penalty_table, s2_store)

    assert [r.label for r in rows] == [
        "All",
        "Med/Low Throughput",
        "Low Variability",
    ]
    all_row, medlow_row, stable_row = rows

    # Penalties exist but are the minority (paper: 12% of points).
    assert 0.02 <= all_row.penalty_fraction <= 0.25

    # The filters act monotonically on both frequency and magnitude.
    assert medlow_row.penalty_fraction <= all_row.penalty_fraction + 1e-9
    assert stable_row.penalty_fraction <= medlow_row.penalty_fraction + 1e-9
    assert stable_row.avg_penalty <= all_row.avg_penalty + 1e-9

    # The stable Med/Low population is nearly penalty-free (paper: 3%, 12%).
    assert stable_row.penalty_fraction <= 0.10
    assert stable_row.avg_penalty <= 60.0

    # Max penalty dwarfs the average in the unfiltered population (the
    # paper's 3840% vs 290% long tail).
    if all_row.penalty_fraction > 0:
        assert all_row.max_penalty >= all_row.avg_penalty

    save_artifact("table1_penalty_stats", render_table1(rows))
