"""Relay utilisation analyses: Tables II & III and Fig. 5.

Two utilisation notions appear in the paper:

* **per-client utilisation** (Table II): among one client's transfers that
  offered relay R, the fraction in which the indirect path (via R) was
  chosen;
* **total utilisation** (Fig. 5): the same ratio pooled over all clients;
* the §4 variant (Table III): among transfers whose *random set contained*
  relay R, the fraction in which R was the relay actually used - plus the
  average improvement achieved when it was used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.trace.store import TraceStore
from repro.util.stats import rms, summarize

__all__ = [
    "client_relay_utilization",
    "top_relays_per_client",
    "RelayUtilizationStats",
    "total_utilization_stats",
    "UtilizationImprovementRow",
    "utilization_vs_improvement",
]


def client_relay_utilization(store: TraceStore) -> Dict[Tuple[str, str], float]:
    """Utilisation of each (client, relay) pair.

    A transfer counts toward (client, R) when R was in the offered set; it
    counts as a win when R carried the transfer.
    """
    offered: Dict[Tuple[str, str], int] = {}
    wins: Dict[Tuple[str, str], int] = {}
    for r in store:
        for relay in r.offered:
            key = (r.client, relay)
            offered[key] = offered.get(key, 0) + 1
            if r.selected_via == relay:
                wins[key] = wins.get(key, 0) + 1
    return {key: wins.get(key, 0) / n for key, n in offered.items()}


def top_relays_per_client(
    store: TraceStore,
    *,
    top: int = 3,
    min_offers: int = 1,
) -> Dict[str, List[Tuple[str, float]]]:
    """Table II: each client's ``top`` relays by per-client utilisation.

    Returns ``client -> [(relay, utilisation), ...]`` sorted descending.
    Pairs offered fewer than ``min_offers`` times are ignored.
    """
    offers: Dict[Tuple[str, str], int] = {}
    for r in store:
        for relay in r.offered:
            offers[(r.client, relay)] = offers.get((r.client, relay), 0) + 1
    util = client_relay_utilization(store)
    by_client: Dict[str, List[Tuple[str, float]]] = {}
    for (client, relay), u in util.items():
        if offers[(client, relay)] >= min_offers:
            by_client.setdefault(client, []).append((relay, u))
    return {
        client: sorted(items, key=lambda kv: (-kv[1], kv[0]))[:top]
        for client, items in by_client.items()
    }


@dataclass(frozen=True)
class RelayUtilizationStats:
    """Fig. 5 entries for one relay: moments of its per-client utilisations."""

    relay: str
    n_clients: int
    average: float
    stdev: float
    rms: float


def total_utilization_stats(store: TraceStore) -> Dict[str, RelayUtilizationStats]:
    """Fig. 5: per-relay average/stdev/RMS over per-client utilisations."""
    util = client_relay_utilization(store)
    per_relay: Dict[str, List[float]] = {}
    for (client, relay), u in util.items():
        per_relay.setdefault(relay, []).append(u)
    out: Dict[str, RelayUtilizationStats] = {}
    for relay, values in per_relay.items():
        s = summarize(values)
        out[relay] = RelayUtilizationStats(
            relay=relay,
            n_clients=s.count,
            average=s.mean,
            stdev=s.std,
            rms=rms(values),
        )
    return out


def overall_average_utilization(store: TraceStore) -> float:
    """The paper's "average utilisation across all intermediate nodes" (~45%)."""
    stats = total_utilization_stats(store)
    if not stats:
        return float("nan")
    return float(np.mean([s.average for s in stats.values()]))


@dataclass(frozen=True)
class UtilizationImprovementRow:
    """One Table III row: a relay's utilisation and realised improvement."""

    relay: str
    times_offered: int
    times_chosen: int
    utilization_percent: float
    mean_improvement_percent: float


def utilization_vs_improvement(
    store: TraceStore,
    client: str,
    *,
    include_zero_utilization: bool = False,
) -> List[UtilizationImprovementRow]:
    """Table III for one client, sorted by utilisation (descending).

    By default relays never chosen are dropped, matching the paper ("only
    those intermediate nodes with non-zero utilizations are shown").
    """
    sub = store.filter(client=client)
    offered: Dict[str, int] = {}
    chosen: Dict[str, int] = {}
    improvements: Dict[str, List[float]] = {}
    for r in sub:
        for relay in r.offered:
            offered[relay] = offered.get(relay, 0) + 1
        if r.selected_via is not None:
            chosen[r.selected_via] = chosen.get(r.selected_via, 0) + 1
            improvements.setdefault(r.selected_via, []).append(r.improvement_percent)
    rows: List[UtilizationImprovementRow] = []
    for relay, n_off in offered.items():
        n_cho = chosen.get(relay, 0)
        if n_cho == 0 and not include_zero_utilization:
            continue
        imps = improvements.get(relay, [])
        rows.append(
            UtilizationImprovementRow(
                relay=relay,
                times_offered=n_off,
                times_chosen=n_cho,
                utilization_percent=100.0 * n_cho / n_off,
                mean_improvement_percent=(
                    float(np.mean(imps)) if imps else float("nan")
                ),
            )
        )
    rows.sort(key=lambda row: (-row.utilization_percent, row.relay))
    return rows


def utilization_improvement_correlation(
    rows: List[UtilizationImprovementRow],
) -> float:
    """Pearson correlation between utilisation and improvement across relays.

    The paper observes this is positive but "not perfect"; NaN with fewer
    than two rows or degenerate variance.
    """
    if len(rows) < 2:
        return float("nan")
    u = np.array([r.utilization_percent for r in rows])
    i = np.array([r.mean_improvement_percent for r in rows])
    mask = ~np.isnan(i)
    if mask.sum() < 2 or np.std(u[mask]) == 0.0 or np.std(i[mask]) == 0.0:
        return float("nan")
    return float(np.corrcoef(u[mask], i[mask])[0, 1])


__all__.extend(["overall_average_utilization", "utilization_improvement_correlation"])
