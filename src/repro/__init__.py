"""repro: a reproduction of "A Performance Analysis of Indirect Routing".

Opos, Ramabhadran, Terry, Pasquale, Snoeren, Vahdat (IPPS 2007) measured,
on PlanetLab, how much end-to-end throughput can be gained by routing large
HTTP downloads through a single intermediate overlay node selected with an
x-byte range-request throughput probe.  This package rebuilds the entire
system on a deterministic flow-level network simulator:

``repro.sim``
    Discrete-event kernel (event queue, clock).
``repro.net``
    Nodes, links, stochastic capacity processes, topology, routes.
``repro.tcp``
    TCP models, max-min fair fluid transport engine, Reno validator.
``repro.http``
    HTTP messages, range-request algebra, origin servers, relay proxies.
``repro.overlay``
    Relay registry and overlay path construction.
``repro.core``
    The paper's contribution: probe engine, selection session, policies.
``repro.workloads``
    PlanetLab catalogues, calibration, scenarios, study drivers.
``repro.runner``
    Campaign execution: work-unit planning, the parallel/resumable
    executor, shard checkpoints, progress telemetry.
``repro.trace``
    Measurement records and storage.
``repro.analysis``
    Every paper table and figure, computed from measurement stores.

Quick start (see also examples/quickstart.py)::

    from repro.workloads.experiment import run_paired_transfer
    from repro.workloads.scenario import Scenario, ScenarioSpec

    scenario = Scenario.build(ScenarioSpec.section2(sites=("eBay",)), seed=1)
    record = run_paired_transfer(
        scenario, study="demo", client="Italy", site="eBay",
        repetition=0, start_time=0.0, offered=["Princeton"],
    )
    print(record.selected_via, f"{record.improvement_percent:.1f}%")

Import every name from the module that defines it (DESIGN.md §3).
"""

from repro._version import __version__

__all__ = ["__version__"]
