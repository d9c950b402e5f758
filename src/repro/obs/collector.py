"""The cyclic garbage collector as a measured layer.

Objects that close reference cycles are freed only when the collector
runs, and a collection stops the thread that triggers it.
:func:`collector_metrics` reports those stops to an enabled observer
for the span of one call: counters ``gc.collections.gen0``/``gen1``/
``gen2`` (collections of each generation) and the ``gc.pause`` timer
(one span per collection).

The hook is one process-wide :data:`gc.callbacks` entry, installed
while at least one observed call runs and removed when the last one
ends.  A collection is charged to every observer whose call is running
at the time, once each, however deeply its calls nest.  Nothing is
installed for a disabled observer, and a forked pool worker, which
inherits the callback list, records nothing through it.
"""

import gc
import os
import threading
import time
from contextlib import contextmanager

#: id(observer) -> [observer, open calls]; guarded by _LOCK.
_WATCHED = {}
_LOCK = threading.Lock()
_STATE = {"pid": None, "start": 0.0}


def _on_collection(phase, info):
    if os.getpid() != _STATE["pid"]:
        return
    if phase == "start":
        _STATE["start"] = time.perf_counter()
        return
    start = _STATE["start"]
    name = "gc.collections.gen{}".format(info["generation"])
    for obs, __ in list(_WATCHED.values()):
        obs.count(name)
        obs.lap("gc.pause", start)


@contextmanager
def collector_metrics(obs):
    """Count and time the collections made while the block runs into
    ``obs``; a no-op for a disabled observer."""
    if not obs:
        yield
        return
    key = id(obs)
    with _LOCK:
        entry = _WATCHED.get(key)
        if entry is None:
            if not _WATCHED:
                _STATE["pid"] = os.getpid()
                gc.callbacks.append(_on_collection)
            entry = _WATCHED[key] = [obs, 0]
        entry[1] += 1
    try:
        yield
    finally:
        with _LOCK:
            entry[1] -= 1
            if not entry[1]:
                del _WATCHED[key]
                if not _WATCHED:
                    gc.callbacks.remove(_on_collection)
