"""Experiment runner with memoised exploration.

Exploration (ACO, per workload × machine × opt-level × algorithm) is
the expensive part of every chapter-5 experiment, while budget sweeps
(area, ISE count) only redo selection + replacement.  The
:class:`EvalContext` memoises :class:`~repro.core.flow.ExploredApplication`
bundles in-process so one pytest session regenerates all three figures
from a single exploration pass.  Nothing is kept across processes:
every context explores fresh under the settings it names.

Effort profiles trade fidelity for wall-clock:

* ``quick``  — iterations=80, 1 restart, 4 hot blocks (default; the
  qualitative shape of every figure is stable at this effort),
* ``normal`` — iterations=120, 2 restarts, 6 hot blocks,
* ``full``   — the paper's §5.1 settings (400 iterations to
  convergence, 5 restarts).

Select via ``EvalContext(profile=...)`` or the ``REPRO_EVAL_PROFILE``
environment variable.
"""

import logging
import os
import threading

from ..config import ExplorationParams, ISEConstraints
from ..core.flow import ISEDesignFlow
from ..errors import ReproError
from ..obs import ensure_observer
from ..sched.machine import MachineConfig
from ..workloads import all_workloads, get_workload

logger = logging.getLogger("repro.eval")

PROFILES = {
    "quick": dict(max_iterations=80, restarts=1, max_rounds=12,
                  max_blocks=4),
    "normal": dict(max_iterations=120, restarts=2, max_rounds=12,
                   max_blocks=6),
    "full": dict(max_iterations=400, restarts=5, max_rounds=16,
                 max_blocks=8),
}

#: The chapter-5 algorithm columns and the engine each one runs.
_ENGINE_OF = {"MI": "aco", "SI": "si", "GREEDY": "greedy"}
ALGORITHMS = tuple(_ENGINE_OF)


def default_profile():
    """Effort profile from REPRO_EVAL_PROFILE (or quick)."""
    return os.environ.get("REPRO_EVAL_PROFILE", "quick")


class EvalContext:
    """Memoises explorations; serves budget-sweep evaluations."""

    def __init__(self, profile=None, seed=7, workload_names=None,
                 jobs=None, obs=None):
        profile = profile or default_profile()
        if profile not in PROFILES:
            raise ReproError(
                "unknown profile {!r}; choose from {}".format(
                    profile, sorted(PROFILES)))
        self.profile = profile
        self.seed = seed
        self.jobs = jobs
        settings = PROFILES[profile]
        self.params = ExplorationParams(
            max_iterations=settings["max_iterations"],
            restarts=settings["restarts"],
            max_rounds=settings["max_rounds"])
        self.max_blocks = settings["max_blocks"]
        if workload_names is None:
            workload_names = [w.name for w in all_workloads()]
        self.workload_names = list(workload_names)
        if not self.workload_names:
            raise ReproError(
                "EvalContext needs at least one workload; got an empty "
                "workload_names list")
        self.obs = ensure_observer(obs)
        self._cache = {}
        # In-process memoisation tallies — previously invisible (the
        # "cache stats" bugfix): surfaced via cache_stats(), the
        # ``cache.memory_*`` metrics counters and close()'s summary.
        self.memory_hits = 0
        self.memory_misses = 0
        self._closed = False
        self._close_lock = threading.Lock()

    # -- plumbing ---------------------------------------------------------

    def _flow(self, machine, algorithm):
        if algorithm not in _ENGINE_OF:
            raise ReproError("unknown algorithm {!r}".format(algorithm))
        return ISEDesignFlow(
            machine, params=self.params, seed=self.seed,
            max_blocks=self.max_blocks, engine=_ENGINE_OF[algorithm],
            jobs=self.jobs, obs=self.obs)

    def explored(self, workload_name, machine, opt_level, algorithm="MI"):
        """Memoised ``(flow, ExploredApplication)`` for one cell."""
        key = (workload_name, machine.label, opt_level, algorithm)
        obs = self.obs
        if key not in self._cache:
            self.memory_misses += 1
            if obs:
                obs.count("cache.memory_miss")
            flow = self._flow(machine, algorithm)
            # A fresh build per cell: the flow's front-end memo keys on
            # program content, so equal builds share stage 1.
            program, args = get_workload(workload_name).build()
            with obs.timer("eval.explore"):
                explored = flow.explore_application(
                    program, args=args, opt_level=opt_level)
            self._cache[key] = (flow, explored)
        else:
            self.memory_hits += 1
            if obs:
                obs.count("cache.memory_hit")
        return self._cache[key]

    # -- cache stats / teardown -------------------------------------------

    def cache_stats(self):
        """Hit/miss tallies of this context's exploration memo."""
        return {
            "memory_hits": self.memory_hits,
            "memory_misses": self.memory_misses,
        }

    def close(self):
        """Log a cache summary and release the worker pool (idempotent).

        Tearing down the persistent :mod:`repro.core.pool` here unlinks
        its shared-memory segments (broadcast + shared evalcache) — the
        ``atexit`` hook only backstops contexts that are never closed.

        Idempotent *and* thread-safe: a server's lifecycle teardown can
        race a request handler's ``with EvalContext(...)`` exit, so the
        first caller wins and later (or concurrent) calls return
        immediately.  The pool teardown itself is ordering-safe — see
        :func:`repro.core.pool.shutdown_pools`.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        stats = self.cache_stats()
        logger.info(
            "EvalContext cache: memory %d hit(s) / %d miss(es)",
            stats["memory_hits"], stats["memory_misses"])
        if self.obs:
            self.obs.event("eval.cache_summary", **stats)
        from ..core.pool import shutdown_pools

        shutdown_pools()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- metrics -------------------------------------------------------------

    def report(self, workload_name, machine, opt_level, algorithm,
               constraints):
        """Full FlowReport for one grid cell under ``constraints``."""
        flow, explored = self.explored(
            workload_name, machine, opt_level, algorithm)
        return flow.evaluate(explored, constraints)

    def reduction(self, workload_name, machine, opt_level, algorithm,
                  constraints):
        """Execution-time reduction in percent for one cell."""
        return 100.0 * self.report(
            workload_name, machine, opt_level, algorithm,
            constraints).reduction

    def average_reduction(self, machine, opt_level, algorithm, constraints):
        """Mean reduction over the workload suite (one figure bar)."""
        values = [
            self.reduction(name, machine, opt_level, algorithm, constraints)
            for name in self.workload_names
        ]
        return sum(values) / len(values)

    def average_area(self, machine, opt_level, algorithm, constraints):
        """Mean selected-ASFU area over the workload suite."""
        values = [
            self.report(name, machine, opt_level, algorithm,
                        constraints).area
            for name in self.workload_names
        ]
        return sum(values) / len(values)


def machine_for_case(ports, issue):
    """Machine of one §5.1 case, e.g. ``machine_for_case("4/2", 2)``."""
    return MachineConfig(issue, ports)


def area_constraint(budget):
    """Shorthand for ``ISEConstraints(max_area=budget)``."""
    return ISEConstraints(max_area=budget)


def count_constraint(count):
    """Shorthand for ``ISEConstraints(max_ises=count)``."""
    return ISEConstraints(max_ises=count)
