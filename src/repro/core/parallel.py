"""Process-parallel fan-out for exploration work.

Restarts and explorable basic blocks are embarrassingly parallel: each
(seed, restart, block) combination derives its own RNG stream, so
results are bit-identical whether the tasks run serially or spread over
a :class:`~concurrent.futures.ProcessPoolExecutor`.  This module holds
the shared plumbing:

* :func:`resolve_jobs` — turn an explicit ``jobs`` argument or the
  ``REPRO_JOBS`` environment variable into a worker count (``0`` /
  ``"auto"`` means one worker per CPU);
* :func:`parallel_map` — ordered map over argument tuples, serial when
  one worker (or one task) suffices, fanned out over the persistent
  :mod:`~repro.core.pool` worker pool otherwise.

Nested pools are suppressed: workers are marked at fork/spawn time and
always resolve to one job, so a parallel design flow never spawns
grandchild processes from its per-block explorations.

Observability survives the fan-out: when an enabled observer is passed
to :func:`parallel_map`, each pooled task runs under a worker-local
:mod:`~repro.obs.capture` buffer and ships its records back with the
result; the parent replays them in task order — which is exactly the
serial fire order even when work stealing finishes tasks out of
submission order — so sinks and metrics see one coherent stream at any
worker count.
"""

import os

from ..errors import ConfigError

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

_in_worker = False


def _mark_worker():
    """Pool initializer: flag this process as a parallel worker."""
    global _in_worker
    _in_worker = True


def _available_cpus():
    """CPUs this process may use (mockable seam for the clamp tests)."""
    return os.cpu_count() or 1


def resolve_jobs(jobs=None, obs=None):
    """Normalise a ``jobs`` request into a positive worker count.

    ``None`` falls back to ``REPRO_JOBS`` (default 1 — serial); ``0``
    or ``"auto"`` selects :func:`os.cpu_count`.  Requests beyond the
    host's CPU count are clamped to it — oversubscribed pools only add
    pickling and context-switch overhead to a CPU-bound fan-out.
    Inside a pool worker this always returns 1 so parallel sections
    never nest.  When an enabled ``obs`` observer is passed, the
    effective count is recorded as the ``jobs.effective`` gauge.
    """
    if _in_worker:
        return 1
    if jobs is None:
        jobs = os.environ.get(JOBS_ENV, "1")
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            jobs = 0
        else:
            try:
                jobs = int(jobs)
            except ValueError:
                raise ConfigError(
                    "jobs must be an integer or 'auto', got {!r}".format(
                        jobs)) from None
    if jobs == 0:
        jobs = _available_cpus()
    if jobs < 0:
        raise ConfigError("jobs must be non-negative, got {}".format(jobs))
    jobs = min(jobs, _available_cpus())
    if obs:
        obs.gauge("jobs.effective", jobs)
    return jobs


def _captured_call(function, *task):
    """Run one task under a worker-local observability capture buffer.

    Returns ``(result, records)``; the records are replayed by the
    parent observer so events survive the process boundary.  The pool
    workers inline this same pattern around each claimed task.
    """
    from ..obs import capture

    capture.begin()
    try:
        result = function(*task)
    finally:
        records = capture.end()
    return result, records


def parallel_map(function, tasks, jobs, obs=None, costs=None):
    """``[function(*task) for task in tasks]``, optionally pooled.

    Results keep task order, so any order-dependent reduction done by
    the caller (e.g. "first strictly better restart wins") is identical
    to the serial path.  ``function`` must be picklable (module level).
    An enabled ``obs`` observer gets worker-side events/metrics merged
    back in task (= serial fire) order.

    ``jobs > 1`` fans out over the persistent worker pool
    (:mod:`repro.core.pool`): the task list is broadcast once through
    shared memory and workers pull items with work stealing.  ``costs``
    — optional per-task cost estimates (e.g. profile-phase cycle
    counts) — front-loads expensive tasks so short ones backfill; it
    changes scheduling only, never results or their order.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        # Serial path: observer calls deliver inline, nothing to merge.
        return [function(*task) for task in tasks]
    from .pool import dispatch

    return dispatch(function, tasks, jobs, obs=obs, costs=costs)
