"""Quality assurance: static lint rules and the runtime invariant sanitizer.

This package enforces the conventions the rest of the library only
*documents*:

* determinism (``repro.util.rng``): every random draw flows from a
  ``SeedBank``-derived generator; no wall clocks inside the simulation;
* unit hygiene (``repro.util.units``): seconds / bytes / bytes-per-second
  internally, Mbps only at the reporting edge;
* simulator safety: event-queue internals are only touched by ``repro.sim``,
  and event times are never compared with ``==``.

Two enforcement halves:

``repro.qa.lint``
    An AST-based linter with project-specific rules (``repro lint``).  Each
    rule has a stable ``QA-*`` code, a fix hint, and per-line suppression via
    ``# qa: ignore[CODE]``.
``repro.qa.sanitize``
    An opt-in runtime sanitizer (``REPRO_SANITIZE=1`` or
    ``Simulator(sanitize=True)``) installing invariant checks in the event
    loop, the fluid transport engine and the transfer session.  Violations
    raise a structured :class:`~repro.qa.sanitize.InvariantViolation` instead
    of silently corrupting a run.

``repro.qa.selfcheck`` exercises every runtime invariant against synthetic
violations, proving the instrumentation fires in this installation
(``repro selfcheck``).
"""
