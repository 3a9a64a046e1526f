"""Multipath striped transfers (the mHTTP rival design).

The paper's mechanism races probes and then commits a whole transfer to the
single winner; mHTTP (Kim, Khalili, Feldmann, Chen & Towsley) splits the
same object into fixed-size byte-range blocks and fetches them over several
paths *simultaneously*, so path diversity pays continuously instead of once
at selection time.  This package is that rival, built as a first-class
subsystem over the same overlay/HTTP/fluid substrate:

:mod:`repro.stripe.blocks`
    The deterministic block scheduler (work-stealing assignment, straggler
    re-issue, duplicate-byte accounting) and the in-order reassembly buffer
    that proves the striped result byte-identical to a single-path fetch.
:mod:`repro.stripe.session`
    :class:`~repro.stripe.session.StripedSession`, the client driving k
    concurrent paths with per-path in-flight windows and dead-path block
    reassignment (DESIGN.md §8's failure model: a crashed relay costs
    re-issued blocks, not a session-level failover gap).
"""
