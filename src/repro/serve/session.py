"""Per-machine-scope worker lanes: one item at a time, memo first.

The server (:mod:`repro.serve.server`) never explores on its event
loop.  It first asks the :class:`ScopeLane` of the request's machine
scope for a memoised answer (:meth:`ScopeLane.answer`): a repeat
explore, or a repeated evaluate at the same budget, is answered on the
loop with no lane round trip.  Every other request is wrapped in a
:class:`WorkItem` and queued onto the lane.  The scope is the same
string that qualifies shared evalcache keys
(:func:`repro.core.evalcache.eval_scope`), so requests that can share
evaluation work share a lane by construction.  One daemon thread per
lane answers its queue one item at a time, in FIFO order:

1. **memo** — a request whose :func:`~repro.serve.schema.explore_fingerprint`
   was already explored on this lane answers from the lane's bounded
   LRU memo (the exploration is a pure function of the fingerprint).
   Each memo entry also keeps up to :data:`SELECTIONS_PER_ENTRY`
   evaluate answers, keyed by budget, and drops them with the entry.
   Duplicate in-flight fingerprints explore once: the first explores
   and memoises, the rest hit the memo when their turn comes;
2. **explore** — any other request is one :func:`repro.api.explore`
   call, so a served answer is the one-shot answer by construction.
   The item's listener, if any, sees that call's events and no other's;
3. **answer** — each item is answered through its thread-safe
   ``deliver``/``fail`` callbacks (the server bridges these onto its
   event loop).

Sweeps span machines, so they run on a dedicated ``sweep`` lane,
delegating to :func:`repro.api.sweep` wholesale.
"""

import queue
import threading
from collections import OrderedDict

from ..config import ISEConstraints
# Stage 1 runs through the flow's shared front end; optimize stays
# importable here for the layer tracer in perfbench/layers.py.
from ..ir.passes.pipeline import optimize  # noqa: F401
from ..obs import NULL_OBSERVER, CallbackSink, Observer
from . import schema

#: Default per-lane memo bound (explorations kept hot for re-fetch).
DEFAULT_MEMO_ENTRIES = 64

#: Evaluate answers kept per memo entry, least recently stored dropped
#: first (the paper's budget sweeps use 3 areas x 4 ISE counts).
SELECTIONS_PER_ENTRY = 32

_STOP = object()


class _MemoEntry:
    """One explored fingerprint: its answer and the selections made on it."""

    __slots__ = ("payload", "explored", "flow", "selections")

    def __init__(self, payload, explored, flow):
        self.payload = payload
        self.explored = explored
        self.flow = flow
        self.selections = OrderedDict()   # selection key -> payload


def _selection_key(req):
    """The fields :meth:`ScopeLane._select` reads beyond the fingerprint.

    ``repr`` keeps ``20000`` and ``20000.0`` apart: they compare equal
    but echo differently in the payload, so they digest differently.
    """
    return (repr(req["max_area"]), req["max_ises"], req["enable_sharing"])


class WorkItem:
    """One queued request plus its completion/event callbacks.

    ``deliver``/``fail`` are called at most once, from the lane thread
    (the server marshals them back onto its loop); after either — or
    after :meth:`abandon` (timeout / cancel / dropped connection) — the
    item is *dead*: later completions and events are silently dropped,
    so a lane never races a client that already got its answer.
    """

    __slots__ = ("request", "events", "_deliver", "_fail", "_dead")

    def __init__(self, request, deliver, fail, events=None):
        self.request = request
        self.events = events
        self._deliver = deliver
        self._fail = fail
        self._dead = threading.Event()

    def live(self):
        """True until the item completed or was abandoned."""
        return not self._dead.is_set()

    def abandon(self):
        """Drop the item: later deliver/fail/events become no-ops."""
        self._dead.set()

    def deliver(self, payload):
        """Answer the item (first completion wins)."""
        if not self._dead.is_set():
            self._dead.set()
            self._deliver(payload)

    def fail(self, error):
        """Fail the item (first completion wins)."""
        if not self._dead.is_set():
            self._dead.set()
            self._fail(error)

    def emit(self, record):
        """Forward one progress record, if anyone is listening."""
        if self.events is not None and not self._dead.is_set():
            self.events(record)


def _observer(item):
    """An observer streaming to ``item``'s listener, or None."""
    if item.events is None:
        return None
    return Observer(sinks=[CallbackSink(item.emit)])


class ScopeLane:
    """One scope's queue + daemon worker thread + exploration memo."""

    def __init__(self, scope, counters=None,
                 memo_entries=DEFAULT_MEMO_ENTRIES):
        self.scope = scope
        self.counters = counters      # callable ``bump(name, n)`` or None
        self.memo_entries = memo_entries
        self._memo = OrderedDict()    # fingerprint -> _MemoEntry
        self._memo_lock = threading.Lock()
        self._queue = queue.Queue()
        self._thread = None
        self._start_lock = threading.Lock()

    # -- public surface ----------------------------------------------------

    def submit(self, item):
        """Queue one :class:`WorkItem` (starts the thread lazily)."""
        with self._start_lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, daemon=True,
                    name="repro-serve-lane")
                self._thread.start()
        self._queue.put(item)

    def stop(self, timeout=30.0):
        """Stop the lane thread after the work already queued drains."""
        with self._start_lock:
            thread = self._thread
        if thread is None:
            return
        self._queue.put(_STOP)
        thread.join(timeout=timeout)

    def memo_size(self):
        """Number of explorations currently memoised."""
        return len(self._memo)

    def answer(self, req):
        """The memoised answer to an explore or evaluate, else None.

        Safe from any thread: the server's event loop calls it before
        queueing a request.  An explore hits when its fingerprint is
        memoised; an evaluate also needs a selection already made at its
        budget.  A request that misses here and finds its entry once on
        the lane is answered by :meth:`_finish`, which reuses a stored
        selection the same way.
        """
        if req["op"] not in ("explore", "evaluate"):
            return None
        fingerprint = schema.explore_fingerprint(req)
        with self._memo_lock:
            entry = self._memo.get(fingerprint)
            if entry is None:
                return None
            self._memo.move_to_end(fingerprint)
            if req["op"] == "explore":
                payload = entry.payload
            else:
                payload = entry.selections.get(_selection_key(req))
        return None if payload is None else dict(payload)

    def _bump(self, name, n=1):
        if self.counters is not None:
            self.counters(name, n)

    # -- lane loop ---------------------------------------------------------

    def _run(self):
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            if not item.live():
                continue
            try:
                if item.request["op"] == "sweep":
                    self._run_sweep(item)
                else:
                    self._explore(item)
            except Exception as error:
                item.fail(error)

    # -- explore / evaluate ------------------------------------------------

    def _explore(self, item):
        """Answer one explore or evaluate: from the memo, else explored
        by :func:`repro.api.explore` and memoised."""
        from ..api import explore

        req = item.request
        fingerprint = schema.explore_fingerprint(req)
        with self._memo_lock:
            entry = self._memo.get(fingerprint)
            if entry is not None:
                self._memo.move_to_end(fingerprint)
        if entry is not None:
            self._bump("serve.memo_hits")
            self._finish(item, entry)
            return
        result = explore(
            req["workload"], issue=req["issue"], ports=req["ports"],
            profile=req["profile"], jobs=req["jobs"], batch=req["batch"],
            seed=req["seed"], opt=req["opt"], iterations=req["iterations"],
            restarts=req["restarts"], observer=_observer(item),
            engine=req["engine"])
        # Memoised flows must not hold the subscriber's observer.
        result.flow.obs = NULL_OBSERVER
        payload = schema.explore_payload(result)
        payload["digest"] = schema.explore_digest(payload)
        entry = _MemoEntry(payload, result.explored, result.flow)
        with self._memo_lock:
            self._memo[fingerprint] = entry
            while len(self._memo) > self.memo_entries:
                self._memo.popitem(last=False)
        self._finish(item, entry)

    def _finish(self, item, entry):
        """Answer one item from a memo entry, storing a new selection."""
        req = item.request
        try:
            if req["op"] != "evaluate":
                item.deliver(dict(entry.payload))
                return
            key = _selection_key(req)
            with self._memo_lock:
                payload = entry.selections.get(key)
            if payload is None:
                payload = self._select(req, entry.explored, entry.flow)
                with self._memo_lock:
                    entry.selections[key] = payload
                    while len(entry.selections) > SELECTIONS_PER_ENTRY:
                        entry.selections.popitem(last=False)
            item.deliver(dict(payload))
        except Exception as error:
            item.fail(error)

    @staticmethod
    def _select(req, explored, flow):
        """Budgeted selection on a finished exploration (deterministic)."""
        constraints = ISEConstraints(max_area=req["max_area"],
                                     max_ises=req["max_ises"])
        report = flow.evaluate(explored, constraints,
                               enable_sharing=req["enable_sharing"])
        payload = {
            "kind": "selection",
            "workload": req["workload"], "opt": req["opt"],
            "issue": req["issue"], "ports": req["ports"],
            "max_area": req["max_area"], "max_ises": req["max_ises"],
            "baseline_cycles": report.baseline_cycles,
            "final_cycles": report.final_cycles,
            "reduction": report.reduction,
            "num_ises": report.num_ises, "area": report.area,
            "ises": [entry.representative.describe()
                     for entry in report.selection.selected],
        }
        payload["digest"] = schema.selection_digest(payload)
        return payload

    # -- sweep -------------------------------------------------------------

    def _run_sweep(self, item):
        """One design-space sweep, delegated to the api wholesale."""
        from ..api import sweep

        req = item.request
        result = sweep(
            req["workloads"], machines=req["machines"],
            budgets=req["budgets"], opt=req["opt"],
            profile=req["profile"], seed=req["seed"],
            engine=req["engine"], jobs=req["jobs"], batch=req["batch"],
            iterations=req["iterations"], restarts=req["restarts"],
            observer=_observer(item))
        item.deliver(result.to_payload())


class ScopeRegistry:
    """Lazily-created :class:`ScopeLane` per scope string."""

    def __init__(self, counters=None, memo_entries=DEFAULT_MEMO_ENTRIES):
        self.counters = counters
        self.memo_entries = memo_entries
        self._lanes = {}
        self._lock = threading.Lock()

    def lane(self, scope):
        """The lane of ``scope``, created on first use."""
        with self._lock:
            lane = self._lanes.get(scope)
            if lane is None:
                lane = ScopeLane(scope, counters=self.counters,
                                 memo_entries=self.memo_entries)
                self._lanes[scope] = lane
            return lane

    def scopes(self):
        """The scope strings with a live lane, sorted."""
        with self._lock:
            return sorted(self._lanes)

    def close(self):
        """Stop every lane (idempotent; queued work drains first)."""
        with self._lock:
            lanes = list(self._lanes.values())
            self._lanes.clear()
        for lane in lanes:
            lane.stop()
