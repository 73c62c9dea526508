"""Unified instrumentation layer.

Four cooperating pieces, all opt-in and all zero-cost when disabled:

* :mod:`repro.obs.registry` -- typed metric registry (``Counter`` /
  ``Gauge`` / ``Histogram``) over the stats dataclasses, driven by
  ``dataclasses.fields``;
* :mod:`repro.obs.sampler` -- per-interval time-series of IPC, MPKI,
  prefetch accuracy/coverage, SUF rates, and the miss taxonomy, exportable
  as canonical JSONL/CSV;
* :mod:`repro.obs.events` -- bounded ring-buffer trace of structured
  simulator events (fills, prefetch lifecycle, GM commits, SUF decisions);
* :mod:`repro.obs.profiler` -- wall-clock phase timers for the experiment
  runner.

:class:`ObsConfig` is the single knob handed to
:class:`~repro.sim.system.System`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import (EVENT_KINDS, EVENT_UNITS, EventTrace, events_jsonl,
                     validate_event)
from .profiler import PhaseProfiler
from .registry import Counter, Gauge, Histogram, Metric, MetricRegistry
from .sampler import (IntervalSampler, TIMESERIES_FIELDS, timeseries_csv,
                      timeseries_jsonl, validate_timeseries_record,
                      write_timeseries)

__all__ = [
    "Counter", "Gauge", "Histogram", "Metric", "MetricRegistry",
    "EVENT_KINDS", "EVENT_UNITS", "EventTrace", "events_jsonl",
    "validate_event",
    "IntervalSampler", "TIMESERIES_FIELDS", "timeseries_csv",
    "timeseries_jsonl", "validate_timeseries_record", "write_timeseries",
    "PhaseProfiler", "ObsConfig",
]


@dataclass(frozen=True)
class ObsConfig:
    """What instrumentation a :class:`~repro.sim.system.System` enables.

    The default (all off) is the hot-path configuration: the system then
    holds ``None`` for the sampler and event trace, and every emission
    site reduces to one ``is not None`` check.
    """

    #: Committed instructions per time-series interval (0 = no sampling).
    sample_interval: int = 0
    #: Record structured events into a bounded ring buffer.
    trace_events: bool = False
    #: Ring-buffer capacity when event tracing is on.
    trace_capacity: int = 65536

    def __post_init__(self) -> None:
        if self.sample_interval < 0:
            raise ValueError("sample_interval must be >= 0")
        if self.trace_capacity <= 0:
            raise ValueError("trace_capacity must be positive")

    @property
    def enabled(self) -> bool:
        return self.sample_interval > 0 or self.trace_events
