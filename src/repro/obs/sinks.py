"""Pluggable event sinks.

A sink is any object with ``handle(event)`` (and optionally
``close()``).  Three are provided:

* :class:`MemorySink` — in-process recorder, the test workhorse;
* :class:`JsonlSink` — one JSON object per line, the trace-file format
  read back by ``repro metrics`` (:mod:`repro.obs.trace`);
* :class:`ProgressSink` — human-readable one-liners for ``--progress``
  style monitoring of long explorations;
* :class:`CallbackSink` — forwards each event's JSON record to a
  callable, the bridge the exploration service uses to stream progress
  frames to subscribed clients.
"""

import json
import sys


class MemorySink:
    """Records every event in order; assertion-friendly views."""

    def __init__(self):
        self.events = []

    def handle(self, event):
        """Append one event."""
        self.events.append(event)

    def kinds(self):
        """Event kinds in fire order."""
        return [event.kind for event in self.events]

    def records(self):
        """JSON-able records in fire order."""
        return [event.to_record() for event in self.events]

    def identities(self):
        """Timing-independent (kind, payload) views in fire order."""
        return [event.identity() for event in self.events]

    def of_kind(self, kind):
        """The events of one kind, in fire order."""
        return [event for event in self.events if event.kind == kind]

    def clear(self):
        """Forget every recorded event."""
        self.events = []

    def close(self):
        """No-op (nothing to release)."""

    def __len__(self):
        return len(self.events)


class JsonlSink:
    """Appends one JSON line per event to ``path``.

    The file opens lazily on the first event and closes with the
    observer; non-JSON-able payload values degrade to ``repr`` rather
    than failing the run that produced them.
    """

    def __init__(self, path):
        self.path = path
        self._handle = None

    def handle(self, event):
        """Write one event as one JSON line."""
        if self._handle is None:
            self._handle = open(self.path, "w")
        json.dump(event.to_record(), self._handle, sort_keys=True,
                  default=repr)
        self._handle.write("\n")

    def close(self):
        """Flush and close the trace file (if it was ever opened)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class ProgressSink:
    """Renders the coarse-grained events as human one-liners.

    Iteration events are deliberately skipped — a full run emits
    thousands; rounds, blocks and flow milestones are the useful
    cadence for a terminal.
    """

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr

    def handle(self, event):
        """Write the event's one-liner, if its kind has one."""
        line = self._format(event)
        if line is not None:
            self.stream.write(line + "\n")

    @staticmethod
    def _format(event):
        kind, data = event.kind, event.data
        if kind == "flow.profile":
            return "[obs] profiled {}: {} blocks ({} explorable)".format(
                data.get("program"), data.get("blocks"),
                data.get("explorable"))
        if kind == "flow.hot_block":
            return "[obs] hot block {}:{} ({} ops, weight {})".format(
                data.get("function"), data.get("label"),
                data.get("nodes"), data.get("weight"))
        if kind == "round":
            return ("[obs] {}:{} r{} round {}: {} iterations, "
                    "best TET {}{}".format(
                        data.get("function"), data.get("label"),
                        data.get("restart"), data.get("round"),
                        data.get("iterations"), data.get("tet_best"),
                        ", converged" if data.get("converged") else ""))
        if kind == "block":
            return ("[obs] block {}:{} done: {} -> {} cycles, "
                    "{} candidate(s)".format(
                        data.get("function"), data.get("label"),
                        data.get("base_cycles"), data.get("final_cycles"),
                        data.get("candidates")))
        if kind == "flow.evaluate":
            return ("[obs] evaluate: {} -> {} cycles ({:.2%}), "
                    "{} ISE(s), {:.0f} um2".format(
                        data.get("baseline_cycles"),
                        data.get("final_cycles"),
                        data.get("reduction", 0.0),
                        data.get("num_ises"), data.get("area", 0.0)))
        return None

    def close(self):
        """No-op (the stream is caller-owned)."""


class CallbackSink:
    """Forwards each event's JSON-able record to ``callback(record)``.

    ``iteration`` events are skipped by default (a full exploration
    emits thousands; rounds/blocks/flow milestones are the cadence a
    remote subscriber wants) — pass ``skip_kinds=()`` to forward
    everything.  Callback exceptions are swallowed: a slow or broken
    subscriber must never fail the exploration it watches.
    """

    def __init__(self, callback, skip_kinds=("iteration",)):
        self.callback = callback
        self.skip_kinds = frozenset(skip_kinds)
        self.forwarded = 0
        self.errors = 0

    def handle(self, event):
        """Forward one event's record (best-effort)."""
        if event.kind in self.skip_kinds:
            return
        try:
            self.callback(event.to_record())
            self.forwarded += 1
        except Exception:
            self.errors += 1

    def close(self):
        """No-op (the callback target is caller-owned)."""
