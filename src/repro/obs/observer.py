"""The observer: one object the whole engine reports through.

An :class:`Observer` owns a :class:`~repro.obs.metrics.MetricsRegistry`
and a list of sinks, and offers four verbs — :meth:`event`,
:meth:`count`, :meth:`gauge` and :meth:`timer` (with :meth:`lap` for
timing consecutive phases of a loop).  Everything in the
engine takes an observer (defaulting to :data:`NULL_OBSERVER`) and
guards its instrumentation with a truth test::

    if obs:
        obs.event("round", ...)

so the disabled path costs one boolean check per hook site — the
``<= 2%`` overhead contract of ``benchmarks/test_bench_obs_overhead.py``.

Process safety
--------------
Observers pickle *by configuration*: crossing into a pool worker they
drop their sinks and registry and keep only the enabled flag.  Inside a
worker the pooled wrapper (:func:`repro.core.parallel._captured_call`)
installs a :mod:`~repro.obs.capture` buffer; every verb then appends a
record to it instead of delivering locally.  The parent replays the
returned records in task order, which equals the serial fire order, so
sinks see the same stream no matter how many workers ran.
"""

import time

from . import capture
from .events import Event
from .metrics import MetricsRegistry


class _Timer:
    """Context manager measuring one wall-clock span into the registry."""

    __slots__ = ("_observer", "_name", "_start")

    def __init__(self, observer, name):
        self._observer = observer
        self._name = name
        self._start = None

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._observer._record_time(
            self._name, time.perf_counter() - self._start)
        return False


class _NullTimer:
    """Timer that measures nothing (disabled observer)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_TIMER = _NullTimer()


class Observer:
    """Delivers events to sinks and measurements to a registry."""

    def __init__(self, sinks=(), metrics=None, enabled=True):
        self.sinks = list(sinks)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.enabled = enabled
        self._seq = 0
        self._t0 = time.perf_counter()
        self._closed = False

    def __bool__(self):
        return self.enabled

    # -- the four verbs ----------------------------------------------------

    def event(self, kind, **data):
        """Emit one trace event (buffered when inside a pool worker)."""
        if not self.enabled:
            return
        buffer = capture.active()
        if buffer is not None:
            buffer.append(("event", kind, data))
            return
        self._deliver(kind, data)

    def count(self, name, n=1):
        """Add ``n`` to counter ``name``."""
        if not self.enabled or n == 0:
            return
        buffer = capture.active()
        if buffer is not None:
            buffer.append(("count", name, n))
            return
        self.metrics.count(name, n)

    def gauge(self, name, value):
        """Record the latest ``value`` of gauge ``name``."""
        if not self.enabled:
            return
        buffer = capture.active()
        if buffer is not None:
            buffer.append(("gauge", name, value))
            return
        self.metrics.gauge(name, value)

    def timer(self, name):
        """Context manager timing one span into timer ``name``."""
        if not self.enabled:
            return _NULL_TIMER
        return _Timer(self, name)

    def lap(self, name, start):
        """Record the time since ``start`` into timer ``name``.

        Returns the current :func:`time.perf_counter` reading, so a
        loop times consecutive phases with one clock read per phase::

            if obs:
                mark = time.perf_counter()
            build()
            if obs:
                mark = obs.lap("phase.build", mark)
        """
        now = time.perf_counter()
        if self.enabled:
            self._record_time(name, now - start)
        return now

    # -- delivery / merge --------------------------------------------------

    def _deliver(self, kind, data):
        event = Event(kind, data, seq=self._seq,
                      t=time.perf_counter() - self._t0)
        self._seq += 1
        for sink in self.sinks:
            sink.handle(event)

    def _record_time(self, name, seconds):
        buffer = capture.active()
        if buffer is not None:
            buffer.append(("timer", name, seconds))
            return
        self.metrics.time(name, seconds)

    def replay(self, records):
        """Merge captured worker records, preserving their order."""
        if not self.enabled:
            return
        for record in records:
            verb, name, payload = record
            if verb == "event":
                self._deliver(name, payload)
            elif verb == "count":
                self.metrics.count(name, payload)
            elif verb == "gauge":
                self.metrics.gauge(name, payload)
            elif verb == "timer":
                self.metrics.time(name, payload)

    def close(self):
        """Emit the final ``metrics`` snapshot event and close sinks."""
        if self._closed:
            return
        self._closed = True
        if self.enabled:
            self._deliver("metrics", self.metrics.snapshot())
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()

    # -- pickling (worker fan-out) ----------------------------------------

    def __getstate__(self):
        # Sinks hold file handles / terminals; workers only need to know
        # whether to record into the capture buffer at all.
        return {"enabled": self.enabled}

    def __setstate__(self, state):
        self.__init__(enabled=state.get("enabled", True))

    def __repr__(self):
        return "Observer({} sinks, {})".format(
            len(self.sinks), "enabled" if self.enabled else "disabled")


class NullObserver:
    """The default no-op observer: falsy, stateless, picklable.

    Every verb returns immediately; hook sites guarded with ``if obs:``
    never construct event payloads.  A single shared instance
    (:data:`NULL_OBSERVER`) is used everywhere so identity checks and
    pickling round-trips stay trivial.
    """

    __slots__ = ()

    #: Shared empty registry, for duck-typing only — never written to.
    metrics = MetricsRegistry()
    sinks = ()

    def __bool__(self):
        return False

    def event(self, kind, **data):
        """No-op."""

    def count(self, name, n=1):
        """No-op."""

    def gauge(self, name, value):
        """No-op."""

    def timer(self, name):
        """A timer that measures nothing."""
        return _NULL_TIMER

    def lap(self, name, start):
        """No-op; returns ``start``."""
        return start

    def replay(self, records):
        """No-op."""

    def close(self):
        """No-op."""

    def __reduce__(self):
        return (_null_observer, ())

    def __repr__(self):
        return "NullObserver()"


#: The process-wide disabled observer.
NULL_OBSERVER = NullObserver()


def _null_observer():
    return NULL_OBSERVER


def ensure_observer(obs):
    """Normalise ``None`` to :data:`NULL_OBSERVER`."""
    return obs if obs is not None else NULL_OBSERVER
