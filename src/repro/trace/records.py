"""Measurement records: one row per paired (control, selecting) transfer.

A :class:`TransferRecord` captures everything the paper's analysis needs
about one experiment repetition: what was offered, what was chosen, and the
throughputs both clients observed.  Records are plain data - the analysis
layer derives improvements, penalties and utilisations from them.

Studies that need more columns subclass :class:`TransferRecord` and register
under a ``record_type`` tag (see :class:`FailureRecord`): serialised rows of
a subclass carry the tag, while plain rows stay exactly as before, so old
artefacts and checkpoints load unchanged and `TransferRecord.from_dict`
round-trips every registered type from a single entry point.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

from repro.core.resilience import RecoveryEvent

__all__ = [
    "TransferRecord",
    "FailureRecord",
    "StripeRecord",
    "ScaleRecord",
    "ChaosRecord",
]

#: record_type tag -> record class, for :meth:`TransferRecord.from_dict`.
_RECORD_TYPES: Dict[str, Type["TransferRecord"]] = {}


@dataclass(frozen=True)
class TransferRecord:
    """One paired measurement.

    Attributes
    ----------
    study:
        Study identifier, e.g. ``"section2"`` or ``"section4"``.
    client / site:
        The endpoints.
    repetition:
        Repetition index within the study schedule.
    start_time:
        Simulation time the pair started (seconds).
    set_size:
        Size of the offered relay set (0 for control-style schedules).
    offered:
        Relay names offered to the selector for this transfer.
    selected_via:
        The winning relay, or ``None`` when the direct path was selected.
    direct_throughput:
        The control client's full-file throughput (bytes/second).
    selected_throughput:
        The selecting client's bulk-phase throughput (bytes/second) - the
        paper's "throughput of the selected path".
    end_to_end_throughput:
        The selecting client's whole-session throughput including the probe
        phase (bytes/second).
    probe_overhead:
        Seconds spent in the probe phase.
    file_bytes:
        Transfer size.
    direct_class / direct_variability:
        The client's ground-truth profile (for Table I filtering).
    """

    #: Serialisation tag; subclasses override and register below.
    RECORD_TYPE: ClassVar[str] = "transfer"

    study: str
    client: str
    site: str
    repetition: int
    start_time: float
    set_size: int
    offered: Tuple[str, ...]
    selected_via: Optional[str]
    direct_throughput: float
    selected_throughput: float
    end_to_end_throughput: float
    probe_overhead: float
    file_bytes: float
    direct_class: str = ""
    direct_variability: str = ""

    def __post_init__(self) -> None:
        if self.direct_throughput <= 0.0:
            raise ValueError("direct_throughput must be positive")
        if self.selected_throughput <= 0.0:
            raise ValueError("selected_throughput must be positive")
        if self.selected_via is not None and self.selected_via not in self.offered:
            raise ValueError(
                f"selected relay {self.selected_via!r} not in offered set {self.offered}"
            )

    # ------------------------------------------------------------------ #
    @property
    def used_indirect(self) -> bool:
        """True when the indirect path carried the bulk transfer."""
        return self.selected_via is not None

    @property
    def improvement(self) -> float:
        """The paper's improvement ratio: (selected - direct) / direct."""
        return (self.selected_throughput - self.direct_throughput) / self.direct_throughput

    @property
    def improvement_percent(self) -> float:
        """Improvement expressed in percent."""
        return 100.0 * self.improvement

    @property
    def is_penalty(self) -> bool:
        """True when selecting the indirect path lost to the direct path."""
        return self.used_indirect and self.selected_throughput < self.direct_throughput

    @property
    def penalty_percent(self) -> float:
        """Penalty magnitude: the direct path's advantage relative to the
        *selected* path, in percent (see DESIGN.md §5 on why the paper's
        >100% penalties force this definition).  0 when not a penalty."""
        if not self.is_penalty:
            return 0.0
        return 100.0 * (
            (self.direct_throughput - self.selected_throughput) / self.selected_throughput
        )

    @property
    def sort_key(self) -> Tuple:
        """Stable total-order key for merging stores deterministically.

        Orders by campaign coordinates first (study, client, site, set
        size, repetition, schedule slot) and then by the offered set, so
        any partition of a campaign into shards concatenates back to the
        same sequence regardless of shard boundaries or arrival order.
        """
        return (
            self.study,
            self.client,
            self.site,
            self.set_size,
            self.repetition,
            self.start_time,
            self.offered,
        )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Serialise to plain JSON-compatible types.

        Plain :class:`TransferRecord` rows carry no type tag (their wire
        format predates the registry and must stay byte-identical);
        subclasses are tagged with their ``record_type``.
        """
        d = asdict(self)
        d["offered"] = list(self.offered)
        if type(self) is not TransferRecord:
            d["record_type"] = type(self).RECORD_TYPE
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TransferRecord":
        """Inverse of :meth:`to_dict` for any registered record type."""
        d = dict(d)
        tag = d.pop("record_type", None)
        if tag is not None and tag != cls.RECORD_TYPE:
            try:
                target = _RECORD_TYPES[tag]
            except KeyError:
                raise ValueError(f"unknown record_type {tag!r}") from None
            return target._decode(d)
        return cls._decode(d)

    @classmethod
    def _decode(cls, d: Dict[str, Any]) -> "TransferRecord":
        """Rebuild from a tag-free field dict; subclasses extend."""
        d["offered"] = tuple(d["offered"])
        return cls(**d)


@dataclass(frozen=True)
class FailureRecord(TransferRecord):
    """One paired measurement from the failure/availability study.

    Extends :class:`TransferRecord` with the resilient protocol's outcome
    data.  Unlike the base record, zero throughputs and durations are legal
    here - an aborted session delivered nothing, and that is precisely the
    signal the availability analysis aggregates.

    Attributes
    ----------
    failure_mode:
        What was injected for this unit: ``"none"``, ``"link"`` (direct WAN
        flap), ``"node"`` (relay crash) or ``"both"``.
    outcome / direct_outcome:
        :class:`~repro.core.resilience.SessionOutcome` values of the
        selector and control sessions (as strings, for the wire format).
    n_failovers / n_reprobes:
        Recovery actions the selector session took.
    bytes_received:
        Payload the selector actually delivered (equals ``file_bytes``
        unless the session aborted).
    direct_duration / selected_duration:
        Wall durations of the control and selector sessions, seconds.
    time_to_recover:
        Seconds from the selector's first stall to the recovery action that
        answered it; NaN when it never stalled or never recovered.
    outage_overlap:
        True when the control session overlapped an injected outage.
    recovery_events:
        The selector session's recovery timeline.
    """

    RECORD_TYPE: ClassVar[str] = "failure"

    failure_mode: str = "none"
    outcome: str = "completed"
    direct_outcome: str = "completed"
    n_failovers: int = 0
    n_reprobes: int = 0
    bytes_received: float = 0.0
    direct_duration: float = 0.0
    selected_duration: float = 0.0
    time_to_recover: float = math.nan
    outage_overlap: bool = False
    recovery_events: Tuple[RecoveryEvent, ...] = ()

    def __post_init__(self) -> None:
        # Deliberately looser than the base class: failure studies produce
        # legitimate zero-throughput (aborted) rows.
        if self.direct_throughput < 0.0:
            raise ValueError("direct_throughput must be >= 0")
        if self.selected_throughput < 0.0:
            raise ValueError("selected_throughput must be >= 0")
        if self.selected_via is not None and self.selected_via not in self.offered:
            raise ValueError(
                f"selected relay {self.selected_via!r} not in offered set {self.offered}"
            )

    @property
    def aborted(self) -> bool:
        """True when the selector session gave up."""
        return self.outcome == "aborted"

    @property
    def recovered(self) -> bool:
        """True when the selector completed only via recovery actions."""
        return self.outcome == "failed_over"

    @property
    def speedup(self) -> float:
        """Control duration / selector duration (>1 = selector faster).

        NaN when either duration is non-positive (degenerate or aborted
        sessions have no meaningful duration ratio) - never raises.
        """
        if self.selected_duration <= 0.0 or self.direct_duration <= 0.0:
            return math.nan
        return self.direct_duration / self.selected_duration

    def to_dict(self) -> Dict[str, Any]:
        d = super().to_dict()
        d["recovery_events"] = [e.to_dict() for e in self.recovery_events]
        return d

    @classmethod
    def _decode(cls, d: Dict[str, Any]) -> "FailureRecord":
        d["offered"] = tuple(d["offered"])
        d["recovery_events"] = tuple(
            RecoveryEvent.from_dict(e) for e in d.get("recovery_events", ())
        )
        return cls(**d)


@dataclass(frozen=True)
class StripeRecord(TransferRecord):
    """One paired measurement from the mHTTP striping study.

    Each row compares one mechanism run (probe-race *select-one* or
    *stripe-k*) against the direct control on the same - possibly
    failure-injected - scenario.  As with :class:`FailureRecord`, zero
    throughputs and durations are legal: an aborted session delivered
    nothing and the analysis wants to see that.

    Attributes
    ----------
    mechanism:
        ``"select"`` (probe race + single winner, the paper's protocol
        with PR 4 resilience) or ``"stripe"`` (mHTTP block striping).
    stripe_k:
        Paths the mechanism used, direct included (select-one probes the
        same k paths the stripe fetches over).
    block_bytes / n_blocks:
        Stripe geometry (0 for select rows).
    wasted_bytes / n_reissues / n_duplicate_blocks:
        Striping overhead: discarded duplicate/partial payload bytes and
        the straggler re-issues that caused them (0 for select rows).
    n_path_failures:
        Stripe paths declared dead mid-session (select rows count their
        failovers here instead, making the column comparable).
    failure_mode:
        Injection for this unit: ``"none"`` or ``"node"`` (primary-relay
        crash timed to hit the transfer - the PR 4 failure model).
    outcome / direct_outcome:
        :class:`~repro.core.resilience.SessionOutcome` strings of the
        mechanism and control sessions.
    bytes_received:
        Payload the mechanism session delivered.
    direct_duration / selected_duration:
        Wall durations of the control and mechanism sessions, seconds.
    outage_overlap:
        True when the mechanism session overlapped an injected outage.
    bytes_by_path:
        Committed payload per path label (``("direct", ...)`` first for
        stripe rows; empty for select rows) - the load-balance picture.
    recovery_events:
        The mechanism session's recovery timeline (``path_dead`` /
        ``reissue`` for stripes; failover events for select rows).
    """

    RECORD_TYPE: ClassVar[str] = "stripe"

    mechanism: str = "stripe"
    stripe_k: int = 0
    block_bytes: float = 0.0
    n_blocks: int = 0
    wasted_bytes: float = 0.0
    n_reissues: int = 0
    n_duplicate_blocks: int = 0
    n_path_failures: int = 0
    failure_mode: str = "none"
    outcome: str = "completed"
    direct_outcome: str = "completed"
    bytes_received: float = 0.0
    direct_duration: float = 0.0
    selected_duration: float = 0.0
    outage_overlap: bool = False
    bytes_by_path: Tuple[Tuple[str, float], ...] = ()
    recovery_events: Tuple[RecoveryEvent, ...] = ()

    def __post_init__(self) -> None:
        # Loosened like FailureRecord: aborted rows carry legitimate zeros.
        if self.mechanism not in ("select", "stripe"):
            raise ValueError(
                f"mechanism must be 'select' or 'stripe', got {self.mechanism!r}"
            )
        if self.direct_throughput < 0.0:
            raise ValueError("direct_throughput must be >= 0")
        if self.selected_throughput < 0.0:
            raise ValueError("selected_throughput must be >= 0")
        if self.wasted_bytes < 0.0:
            raise ValueError("wasted_bytes must be >= 0")
        if self.selected_via is not None and self.selected_via not in self.offered:
            raise ValueError(
                f"selected relay {self.selected_via!r} not in offered set {self.offered}"
            )

    @property
    def aborted(self) -> bool:
        """True when the mechanism session gave up."""
        return self.outcome == "aborted"

    @property
    def degraded(self) -> bool:
        """True when a striped session lost a path but still delivered."""
        return self.outcome == "degraded"

    @property
    def wasted_fraction(self) -> float:
        """Duplicate/discarded bytes relative to the object size."""
        if self.file_bytes <= 0.0:
            return 0.0
        return self.wasted_bytes / self.file_bytes

    @property
    def speedup(self) -> float:
        """Control duration / mechanism duration (>1 = mechanism faster).

        NaN when either duration is non-positive - never raises.
        """
        if self.selected_duration <= 0.0 or self.direct_duration <= 0.0:
            return math.nan
        return self.direct_duration / self.selected_duration

    @property
    def sort_key(self) -> Tuple:
        """Extends the base total order with the mechanism coordinates.

        A select-k and a stripe-k row from the same repetition slot share
        every base coordinate (client, site, set size, repetition, slot,
        offered), so without this the shard merge would not be a total
        order and ``--jobs`` byte-identity would depend on shard layout.
        """
        return (*super().sort_key, self.mechanism, self.stripe_k)

    def to_dict(self) -> Dict[str, Any]:
        d = super().to_dict()
        d["bytes_by_path"] = [[label, got] for label, got in self.bytes_by_path]
        d["recovery_events"] = [e.to_dict() for e in self.recovery_events]
        return d

    @classmethod
    def _decode(cls, d: Dict[str, Any]) -> "StripeRecord":
        d["offered"] = tuple(d["offered"])
        d["bytes_by_path"] = tuple(
            (str(label), float(got)) for label, got in d.get("bytes_by_path", ())
        )
        d["recovery_events"] = tuple(
            RecoveryEvent.from_dict(e) for e in d.get("recovery_events", ())
        )
        return cls(**d)


@dataclass(frozen=True)
class ChaosRecord(TransferRecord):
    """One measurement cell of the chaos resilience study.

    Each row compares one mechanism arm (``select``, ``failover`` or
    ``stripe``) against the direct control on the same fault-injected
    scenario.  As with :class:`FailureRecord`, zero throughputs and
    durations are legal - an aborted session delivered nothing, and the
    resilience analysis wants exactly that signal.

    Attributes
    ----------
    mechanism:
        ``"select"`` (probe race, no mid-transfer recovery),
        ``"failover"`` (probe race + the PR 4 resilient protocol) or
        ``"stripe"`` (mHTTP block striping over the same path set).
    fault_family / intensity:
        The injected fault coordinate: a family from
        :data:`~repro.chaos.faults.FAULT_FAMILIES` at ``"mild"`` or
        ``"severe"`` intensity (``"none"`` rows are the in-cell baseline).
    stripe_k:
        Paths the mechanism had available, direct included.
    outcome / direct_outcome:
        :class:`~repro.core.resilience.SessionOutcome` strings of the
        mechanism and control sessions.
    n_failovers / n_path_failures:
        Recovery actions: failover switches for select/failover rows,
        stripe paths declared dead for stripe rows (both columns kept so
        the analysis can tell them apart).
    bytes_received:
        Payload the mechanism session delivered.
    direct_duration / selected_duration:
        Wall durations of the control and mechanism sessions, seconds.
    time_to_recover:
        Seconds from the first stall (or dead stripe path) to the recovery
        action that answered it; NaN when nothing stalled or nothing
        recovered.
    fault_downtime:
        Seconds of the mechanism session's lifetime during which some link
        in the unit's fault plan was degraded or dark.
    fault_overlap:
        True when the mechanism session overlapped a fault window.
    recovery_events:
        The mechanism session's recovery timeline.
    """

    RECORD_TYPE: ClassVar[str] = "chaos"

    #: Mechanism arms a chaos row may carry.
    MECHANISMS: ClassVar[Tuple[str, ...]] = ("select", "failover", "stripe")

    mechanism: str = "select"
    fault_family: str = "none"
    intensity: str = "mild"
    stripe_k: int = 0
    outcome: str = "completed"
    direct_outcome: str = "completed"
    n_failovers: int = 0
    n_path_failures: int = 0
    bytes_received: float = 0.0
    direct_duration: float = 0.0
    selected_duration: float = 0.0
    time_to_recover: float = math.nan
    fault_downtime: float = 0.0
    fault_overlap: bool = False
    recovery_events: Tuple[RecoveryEvent, ...] = ()

    def __post_init__(self) -> None:
        # Loosened like FailureRecord: aborted rows carry legitimate zeros.
        if self.mechanism not in self.MECHANISMS:
            raise ValueError(
                f"mechanism must be one of {self.MECHANISMS}, got {self.mechanism!r}"
            )
        if self.direct_throughput < 0.0:
            raise ValueError("direct_throughput must be >= 0")
        if self.selected_throughput < 0.0:
            raise ValueError("selected_throughput must be >= 0")
        if self.fault_downtime < 0.0:
            raise ValueError("fault_downtime must be >= 0")
        if self.selected_via is not None and self.selected_via not in self.offered:
            raise ValueError(
                f"selected relay {self.selected_via!r} not in offered set {self.offered}"
            )

    @property
    def aborted(self) -> bool:
        """True when the mechanism session gave up."""
        return self.outcome == "aborted"

    @property
    def delivered_fraction(self) -> float:
        """Payload delivered relative to the object size (1.0 when whole)."""
        if self.file_bytes <= 0.0:
            return 0.0
        return min(self.bytes_received, self.file_bytes) / self.file_bytes

    @property
    def available(self) -> bool:
        """The availability bit: the mechanism delivered the whole object."""
        return not self.aborted and self.delivered_fraction >= 1.0

    @property
    def speedup(self) -> float:
        """Control duration / mechanism duration (>1 = mechanism faster).

        NaN when either duration is non-positive - never raises.
        """
        if self.selected_duration <= 0.0 or self.direct_duration <= 0.0:
            return math.nan
        return self.direct_duration / self.selected_duration

    @property
    def sort_key(self) -> Tuple:
        """Extends the base total order with the chaos-grid coordinates.

        All mechanism arms of one (family, intensity) cell - and all cells
        of one repetition slot - share every base coordinate, so the grid
        coordinates must participate for the shard merge to stay a total
        order (the ``--jobs`` byte-identity requirement).
        """
        return (*super().sort_key, self.mechanism, self.fault_family, self.intensity)

    def to_dict(self) -> Dict[str, Any]:
        d = super().to_dict()
        d["recovery_events"] = [e.to_dict() for e in self.recovery_events]
        return d

    @classmethod
    def _decode(cls, d: Dict[str, Any]) -> "ChaosRecord":
        d["offered"] = tuple(d["offered"])
        d["recovery_events"] = tuple(
            RecoveryEvent.from_dict(e) for e in d.get("recovery_events", ())
        )
        return cls(**d)


@dataclass(frozen=True)
class ScaleRecord(TransferRecord):
    """One wave of the population-scale study: aggregate, not a pair.

    A scale wave simulates its whole client population concurrently on one
    shared topology, so the record carries population aggregates instead of
    a single paired measurement.  The base columns are reinterpreted:
    ``client`` is the wave label, ``direct_throughput`` /
    ``selected_throughput`` are the mean per-client throughputs of the
    direct-winner and relay-winner cohorts (legitimately 0 when a cohort is
    empty), ``end_to_end_throughput`` is aggregate bytes over the wave
    makespan, and ``probe_overhead`` is the mean per-client probe-race
    duration.

    Percentiles are exact (computed from the full per-client result arrays
    with ``numpy.quantile``), so records are byte-identical for any worker
    count; wall-clock rates live in obs, never here.

    Attributes
    ----------
    n_clients / n_completed:
        Population size and how many clients finished their transfer
        (a wave raises if these ever differ, so they agree on disk).
    n_direct / n_indirect:
        Probe-race outcomes: clients whose direct path won vs. clients a
        relay path won.
    makespan:
        Simulation seconds from wave start to the last completion.
    mean_throughput:
        Mean per-client end-to-end throughput (bytes/second).
    throughput_p10 / p50 / p90 / p99:
        Per-client throughput percentiles (bytes/second).
    latency_p50 / p90 / p99 / latency_max:
        Per-client request-to-completion latency percentiles (seconds).
    """

    RECORD_TYPE: ClassVar[str] = "scale"

    n_clients: int = 0
    n_completed: int = 0
    n_direct: int = 0
    n_indirect: int = 0
    makespan: float = 0.0
    mean_throughput: float = 0.0
    throughput_p10: float = 0.0
    throughput_p50: float = 0.0
    throughput_p90: float = 0.0
    throughput_p99: float = 0.0
    latency_p50: float = 0.0
    latency_p90: float = 0.0
    latency_p99: float = 0.0
    latency_max: float = 0.0

    def __post_init__(self) -> None:
        # Aggregates, not a pair: cohort means are legitimately zero when a
        # cohort is empty, so only sanity-check signs and counts.
        if self.direct_throughput < 0.0 or self.selected_throughput < 0.0:
            raise ValueError("cohort throughputs must be >= 0")
        if self.n_clients < 0 or self.n_completed < 0:
            raise ValueError("population counts must be >= 0")
        if self.n_direct + self.n_indirect > self.n_clients:
            raise ValueError("cohort counts exceed the population")

    @property
    def indirect_fraction(self) -> float:
        """Share of the population a relay path won (0 when empty)."""
        if self.n_clients == 0:
            return 0.0
        return self.n_indirect / self.n_clients

    @property
    def sort_key(self) -> Tuple:
        """Extends the base total order with the population size.

        Wave labels are unique per plan, but two plans merged into one
        store could reuse a label at different scales; the population
        size disambiguates.
        """
        return (*super().sort_key, self.n_clients)


_RECORD_TYPES[TransferRecord.RECORD_TYPE] = TransferRecord
_RECORD_TYPES[FailureRecord.RECORD_TYPE] = FailureRecord
_RECORD_TYPES[StripeRecord.RECORD_TYPE] = StripeRecord
_RECORD_TYPES[ChaosRecord.RECORD_TYPE] = ChaosRecord
_RECORD_TYPES[ScaleRecord.RECORD_TYPE] = ScaleRecord
