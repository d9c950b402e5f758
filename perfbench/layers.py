"""Span tracing around the program's layers, from outside the program.

The traced run wraps the public entry point of each layer in a small
recorder and removes the wrappers when it ends; the untraced run never
installs them.  A span is ``[name, start, end, parent, op, thread,
child_seconds]``: ``parent`` indexes the enclosing span of the same
thread, ``op`` is the id of the benchmark op running on the driving
thread (``None`` for work done on the service's lane threads).  A
layer's self time is its span's duration minus the time its child spans
cover.
"""

import functools
import importlib
import json
import threading
import time

#: ``(layer, "module[:Class]", attribute)`` — every call site wrapped by
#: the traced run.  Functions imported by name are patched in the module
#: that calls them.
TARGETS = (
    ("ir.passes", "repro.core.flow", "optimize"),
    ("ir.passes", "repro.serve.session", "optimize"),
    ("core.flow", "repro.core.flow:ISEDesignFlow", "profile_blocks"),
    ("engines", "repro.engines.aco:AcoEngine", "explore_many"),
    ("core.batch", "repro.core.batch:BatchedAntRunner", "run"),
    ("sched", "repro.engines.base", "list_schedule"),
    ("sched", "repro.core.flow", "list_schedule"),
    ("sched", "repro.core.replacement", "list_schedule"),
    ("graph.bitset", "repro.graph.bitset:BitsetDFG", "is_convex"),
    ("graph.bitset", "repro.graph.bitset:BitsetDFG", "is_legal"),
    ("graph.bitset", "repro.graph.bitset:BitsetDFG", "check_candidate"),
    ("graph.bitset", "repro.graph.bitset:BitsetDFG", "classify_match"),
    ("graph.bitset", "repro.graph.bitset:BitsetDFG", "legal_rows"),
    ("core.evalcache", "repro.core.evalcache:EvalCache", "get"),
    ("core.evalcache", "repro.core.evalcache:EvalCache", "put"),
    ("core.grouping", "repro.core.merit", "hardware_grouping"),
    ("core.flow.evaluate", "repro.core.flow:ISEDesignFlow", "evaluate"),
    ("core.merging", "repro.core.flow", "merge_candidates"),
    ("core.selection", "repro.core.flow", "select_ises"),
    ("core.replacement", "repro.core.flow", "replace_and_schedule"),
    ("dist.sweep", "repro.dist.sweep", "run_sweep"),
)

#: The pool layer is timed through its public dispatch hook.
POOL_LAYER = "core.pool"

#: Span name of one benchmark op on the driving thread.
OP = "op"

_NAME, _START, _END, _PARENT, _OP, _THREAD, _CHILD = range(7)


def _resolve(path):
    module_name, __, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.hot_blocks = 0        # DFGs handed to the engine layer
        self._local = threading.local()
        self._main = threading.get_ident()
        self._patched = []
        self._hook = None

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        """Open a span on the calling thread; returns its index."""
        stack = self._stack()
        thread = threading.get_ident()
        span = [name, time.perf_counter(), None,
                stack[-1] if stack else None,
                self.op if thread == self._main else None, thread, 0.0]
        self.spans.append(span)
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index):
        """Close span ``index`` (the innermost open one of its thread)."""
        span = self.spans[index]
        span[_END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        if span[_PARENT] is not None:
            self.spans[span[_PARENT]][_CHILD] += span[_END] - span[_START]

    def _wrap(self, name, function):
        tracer = self
        counts_blocks = name == "engines"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if counts_blocks and len(args) > 1:
                tracer.hot_blocks += len(args[1])
            index = tracer.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end(index)
        return traced

    def _on_dispatch(self, phase, info):
        if phase == "start":
            self._local.dispatch = self.begin(POOL_LAYER)
        else:
            index = getattr(self._local, "dispatch", None)
            if index is not None:
                self.end(index)
                self._local.dispatch = None

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every target and hook the pool (traced run only)."""
        from repro.core import pool

        for name, path, attribute in TARGETS:
            owner = _resolve(path)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self._wrap(name, original))
            self._patched.append((owner, attribute, original))
        self._hook = self._on_dispatch
        pool.add_dispatch_hook(self._hook)

    def uninstall(self):
        """Restore every original; safe to call twice."""
        from repro.core import pool

        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
        if self._hook is not None:
            pool.remove_dispatch_hook(self._hook)
            self._hook = None

    # -- derived figures ---------------------------------------------------

    def table(self):
        """``{name: [calls, self_s, total_s]}`` over every closed span."""
        rows = {}
        for span in self.spans:
            if span[_END] is None:
                continue
            total = span[_END] - span[_START]
            row = rows.setdefault(span[_NAME], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += total - span[_CHILD]
            row[2] += total
        return rows

    def coverage(self):
        """Share of op wall time that layer self times cover (0..1)."""
        wall = uncovered = 0.0
        for span in self.spans:
            if span[_NAME] == OP and span[_END] is not None:
                total = span[_END] - span[_START]
                wall += total
                uncovered += total - span[_CHILD]
        return 1.0 - uncovered / wall if wall > 0 else 0.0

    def write(self, path):
        """Dump every span as one JSON line (times relative to the first)."""
        origin = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span[_NAME],
                    "start_s": round(span[_START] - origin, 7),
                    "end_s": (None if span[_END] is None
                              else round(span[_END] - origin, 7)),
                    "parent": span[_PARENT], "op": span[_OP],
                    "thread": span[_THREAD],
                }) + "\n")
