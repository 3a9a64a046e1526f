"""Performance measurement for the simulation kernel.

``repro.perf`` is the measurement layer behind the ``repro perf`` CLI
subcommand: deterministic microbenchmarks for the engine's hot paths
(allocation, trace queries, event queue, the fluid tick, the stripe
scheduler, the scenario build).  Where a kernel has a live reference
implementation (``searchsorted`` trace lookups, the reference allocator)
the bench times it too, as the ``baseline`` column.  ``repro perf
--baseline`` compares a run against the previous recording in
``BENCH_engine.json``.

Wall-clock access lives only here (and at the CLI edge): the simulation
core stays wall-clock-free per QA-D004.
"""
