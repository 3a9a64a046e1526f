"""A4: fluid transport model vs round-based TCP Reno.

The study's substrate is a fluid flow model with a slow-start ramp and a
window cap.  This bench validates that idealisation against the packet-epoch
Reno reference on single-bottleneck transfers across file sizes and
capacities: transfer-time ratios stay within a small constant factor, and
both models rank paths identically (which is all the probe mechanism needs).
"""

import numpy as np

from repro.net.link import Link
from repro.net.route import Route
from repro.net.trace import CapacityTrace
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork
from repro.tcp.model import SlowStartRamp
from repro.tcp.reno import RenoConfig, simulate_reno_transfer
from repro.util.tables import render_table
from repro.util.units import mb, mbps_to_bytes_per_s

CASES = [
    # (size bytes, capacity Mbps, rtt s)
    (mb(0.1), 1.0, 0.1),
    (mb(1), 1.0, 0.1),
    (mb(8), 1.0, 0.1),
    (mb(1), 4.0, 0.05),
    (mb(8), 4.0, 0.2),
]


def _fluid_time(size, cap_mbps, rtt):
    sim = Simulator()
    net = FluidNetwork(sim)
    cap = mbps_to_bytes_per_s(cap_mbps)
    route = Route([Link("l", "s", "c", CapacityTrace.constant(cap), rtt / 2)])
    ramp = SlowStartRamp(rtt=rtt, initial_window=2920.0, max_window=1e12)
    flow = net.start_flow(route, size, ramp=ramp, activation_delay=rtt)
    net.run_to_completion(flow)
    return flow.duration()


def _compare():
    rows = []
    for size, cap_mbps, rtt in CASES:
        fluid = _fluid_time(size, cap_mbps, rtt)
        reno = simulate_reno_transfer(
            size,
            RenoConfig(
                capacity=mbps_to_bytes_per_s(cap_mbps),
                rtt=rtt,
                buffer_bytes=64_000.0,
            ),
        ).duration
        rows.append((size / 1e6, cap_mbps, rtt, fluid, reno, reno / fluid))
    return rows


def test_ablation_fluid_vs_reno(benchmark, save_artifact):
    rows = benchmark(_compare)

    ratios = np.array([r[5] for r in rows])
    # The fluid idealisation tracks Reno within a factor of two everywhere.
    assert np.all(ratios >= 0.5) and np.all(ratios <= 2.0), ratios

    # Both models rank the cases identically by transfer time.
    fluid_order = np.argsort([r[3] for r in rows]).tolist()
    reno_order = np.argsort([r[4] for r in rows]).tolist()
    assert fluid_order == reno_order

    text = render_table(
        ["size MB", "capacity Mbps", "RTT s", "fluid s", "Reno s", "Reno/fluid"],
        rows,
        title="A4 - fluid model vs TCP Reno reference (single bottleneck)",
        float_fmt=".2f",
    )
    save_artifact("ablation_fluid_vs_reno", text)
