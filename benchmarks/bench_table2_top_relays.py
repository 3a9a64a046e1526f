"""E4 / Table II: each client's top three intermediate nodes.

Paper: "among the top three intermediate nodes for each client, there is a
fair amount of overlap" - a handful of relays serve many clients well.
"""

from collections import Counter

from repro.analysis.report import render_table2
from repro.analysis.utilization import top_relays_per_client


def test_table2_top_relays_per_client(benchmark, s2_store, save_artifact):
    top = benchmark(top_relays_per_client, s2_store)

    assert len(top) == 22
    assert all(1 <= len(relays) <= 3 for relays in top.values())
    assert all(0.0 <= u <= 1.0 for relays in top.values() for _, u in relays)

    # The paper's overlap claim: 22 clients x 3 slots = 66 entries but far
    # fewer distinct relays, with the most popular serving several clients.
    entries = [relay for relays in top.values() for relay, _ in relays]
    counts = Counter(entries)
    assert len(counts) < len(entries) * 0.6
    assert counts.most_common(1)[0][1] >= 4

    save_artifact("table2_top_relays", render_table2(top))
