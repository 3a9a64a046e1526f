"""A5: probe prediction quality against simulator ground truth.

The paper infers the probe's imperfection indirectly (penalties, Table III
noise).  With counterfactual universes we can measure it directly: for each
transfer, a forced-indirect world reveals what the untaken path would have
carried, giving decision accuracy, regret, and the fraction of the oracle's
achievable improvement the mechanism captures.
"""

from repro.analysis.prediction import prediction_quality
from repro.util.tables import render_kv
from repro.workloads.counterfactual import run_counterfactual_study

CLIENTS = ("Italy", "Sweden", "Korea", "Brazil", "Greece", "Norway", "Russia")
REPS = 12


def test_ablation_prediction_quality(benchmark, s2_scenario, save_artifact):
    records = benchmark.pedantic(
        run_counterfactual_study,
        args=(s2_scenario,),
        kwargs=dict(clients=list(CLIENTS), repetitions=REPS),
        rounds=1,
        iterations=1,
    )
    quality = prediction_quality(records)

    assert quality.n_transfers == len(CLIENTS) * REPS
    # The 100 KB probe is a good-but-imperfect predictor: it picks the truly
    # faster path most of the time (the paper's 88% positive-improvement rate
    # implies roughly this accuracy) but not always.
    assert 0.65 <= quality.accuracy <= 1.0
    assert quality.mean_regret <= 0.20
    # The mechanism captures a large share of the oracle's improvement.
    assert quality.capture_ratio >= 0.5

    text = render_kv(
        [
            ("transfers", quality.n_transfers),
            ("decision accuracy", quality.accuracy),
            ("mean regret (fraction of best)", quality.mean_regret),
            ("max regret", quality.max_regret),
            ("oracle mean improvement (%)", quality.oracle_mean_improvement),
            ("realised mean improvement (%)", quality.realised_mean_improvement),
            ("capture ratio", quality.capture_ratio),
        ],
        title="A5 - probe prediction quality vs counterfactual ground truth",
    )
    save_artifact("ablation_prediction_quality", text)
