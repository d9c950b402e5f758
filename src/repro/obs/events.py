"""Trace events: the atoms of the observability layer.

An :class:`Event` is a ``(kind, payload)`` pair plus bookkeeping the
observer assigns at delivery time — a monotonically increasing sequence
number (``seq``, the *fire order*) and a wall-clock offset (``t``,
seconds since the observer was created).  Payload values are plain
scalars/strings so every event serialises to one JSON line.

The schema is deliberately small and flat (see docs/OBSERVABILITY.md
for the full per-kind field tables):

=================  =====================================================
kind               emitted by
=================  =====================================================
``flow.profile``   :meth:`repro.core.flow.ISEDesignFlow.profile_application`
``flow.hot_block`` one per block chosen for exploration
``flow.explored``  exploration finished, candidates gathered
``flow.evaluate``  selection + replacement finished (final metrics)
``block``          best-of-restarts reduction of one basic block
``round``          one ACO round finished (Fig. 4.3.1)
``iteration``      one ant iteration (TET + P_END trajectory)
``eval.cache_summary``  :meth:`repro.eval.runner.EvalContext.close`
``selftest``       one workload/opt-level check of ``repro selftest``
``metrics``        final registry snapshot (observer close)
=================  =====================================================
"""


class Event:
    """One observed occurrence, ordered by ``seq`` (fire order)."""

    __slots__ = ("seq", "kind", "data", "t")

    def __init__(self, kind, data, seq=-1, t=0.0):
        self.kind = kind
        self.data = dict(data)
        self.seq = seq
        self.t = t

    def identity(self):
        """Hashable ``(kind, payload)`` view, independent of timing.

        Parity tests compare event *multisets* across worker counts;
        ``seq``/``t`` are delivery facts, not identity.
        """
        return (self.kind, tuple(sorted(self.data.items())))

    def to_record(self):
        """Flat JSON-able dict (one trace-file line)."""
        record = {"seq": self.seq, "t": round(self.t, 6), "kind": self.kind}
        record.update(self.data)
        return record

    def __repr__(self):
        return "Event(#{} {} {})".format(self.seq, self.kind, self.data)
