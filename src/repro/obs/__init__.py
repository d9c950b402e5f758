"""Observability for the ACO engine: events, metrics, trace sinks.

The engine reports everything through one :class:`Observer` — trace
events (rounds, iterations, P_END trajectory), counters (Ready-Matrix
rebuilds, grouping-memo and exploration-memo hits) and
wall-clock timers — delivered to pluggable sinks.  The default is
:data:`NULL_OBSERVER`, a falsy no-op, so uninstrumented runs pay one
boolean check per hook site and produce bit-identical results.

Typical use through the public facade::

    from repro import explore

    result = explore("crc32", profile="quick", trace="crc32.jsonl")

or directly::

    from repro.obs import Observer, MemorySink

    sink = MemorySink()
    obs = Observer(sinks=[sink])
    flow = ISEDesignFlow(machine, obs=obs)

See docs/OBSERVABILITY.md for the event schema and overhead numbers.
"""

from .collector import collector_metrics
from .events import Event
from .metrics import MetricsRegistry
from .observer import NULL_OBSERVER, NullObserver, Observer, ensure_observer
from .sinks import CallbackSink, JsonlSink, MemorySink, ProgressSink
from .trace import load_trace, render_summary, summarize_trace

__all__ = [
    "CallbackSink",
    "Event",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    "ProgressSink",
    "collector_metrics",
    "ensure_observer",
    "load_trace",
    "render_summary",
    "summarize_trace",
]
