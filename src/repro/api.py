"""The stable public API: one call in, one frozen result out.

External callers should not reach into :mod:`repro.core` — machine
construction, effort profiles, observability wiring and flow plumbing
are all internals that this facade pins down behind two keyword-only
functions:

* :func:`explore` — profile a workload, run the ACO ISE exploration,
  return a frozen :class:`ExploreResult`;
* :func:`evaluate` — select ISEs under a budget (reusing a prior
  :class:`ExploreResult`, or exploring from scratch when given a
  workload name), return a frozen :class:`SelectionResult`;
* :func:`sweep` — run a (workload × machine × budget) design-space
  grid, returning a frozen :class:`~repro.dist.sweep.SweepResult`
  whose digest is bit-identical serial or pooled.

Both accept ``trace=PATH`` to stream a JSON-lines observability trace
(read back with ``python -m repro metrics PATH``) and ``observer=`` for
a caller-owned :class:`~repro.obs.Observer`.

``jobs > 1`` fans work over the persistent shared-memory worker pool
(:mod:`repro.core.pool`); the pool survives across calls so repeated
explorations amortise its startup.  :func:`shutdown_pools` (re-exported
here) releases the workers and their shared-memory segments early —
an ``atexit`` hook and ``EvalContext.close()`` otherwise handle it.

Quickstart::

    from repro import explore, evaluate

    result = explore("crc32", issue=2, ports="4/2", seed=42)
    best = evaluate(result, max_area=80_000)
    print(best.reduction, best.ises)
"""

from dataclasses import dataclass, field

from . import engines
from .config import ExplorationParams, ISEConstraints
from .core.flow import ISEDesignFlow
from .core.pool import shutdown_pools  # re-export: public teardown  # noqa: F401
from .errors import ReproError
from .eval.runner import PROFILES
from .obs import NULL_OBSERVER, JsonlSink, Observer, collector_metrics
from .sched.machine import PAPER_CASES, MachineConfig
from .serve.client import ServiceClient, ServiceError  # noqa: F401  (re-export)
from .workloads import get_workload


@dataclass(frozen=True)
class ExploreResult:
    """Frozen outcome of :func:`explore` (reusable across budgets)."""

    workload: str
    opt: str
    issue: int
    ports: str
    profile: str
    seed: int
    baseline_cycles: int
    candidates: tuple          # human-readable candidate descriptions
    engine: str = "aco"        # registry name of the engine that ran
    trace_path: str = None
    metrics: dict = field(default=None, compare=False, repr=False)
    # Engine handles, deliberately excluded from equality/repr: they
    # let evaluate() reuse the exploration without re-running ACO.
    explored: object = field(default=None, compare=False, repr=False)
    flow: object = field(default=None, compare=False, repr=False)

    @property
    def num_candidates(self):
        """Number of ISE candidates found in the hot blocks."""
        return len(self.candidates)


@dataclass(frozen=True)
class SelectionResult:
    """Frozen outcome of :func:`evaluate` (one budget point)."""

    workload: str
    opt: str
    issue: int
    ports: str
    max_area: float
    max_ises: int
    baseline_cycles: int
    final_cycles: int
    reduction: float
    num_ises: int
    area: float
    ises: tuple                # human-readable selected-ISE descriptions
    metrics: dict = field(default=None, compare=False, repr=False)
    report: object = field(default=None, compare=False, repr=False)


def _resolve_params(profile, iterations, restarts):
    """Exploration parameters + hot-block budget for an effort profile.

    ``profile=None`` means library defaults (the paper's §5.1 effort);
    named profiles come from :data:`repro.eval.runner.PROFILES`.
    Explicit ``iterations``/``restarts`` override either source.
    """
    if profile is None:
        params = ExplorationParams()
        max_blocks = None
    else:
        if profile not in PROFILES:
            raise ReproError(
                "unknown profile {!r}; choose from {}".format(
                    profile, sorted(PROFILES)))
        settings = PROFILES[profile]
        params = ExplorationParams(
            max_iterations=settings["max_iterations"],
            restarts=settings["restarts"],
            max_rounds=settings["max_rounds"])
        max_blocks = settings["max_blocks"]
    overrides = {}
    if iterations is not None:
        overrides["max_iterations"] = iterations
    if restarts is not None:
        overrides["restarts"] = restarts
    if overrides:
        params = params.with_(**overrides)
    return params, max_blocks


def _resolve_observer(trace, observer):
    """The observer to use and whether this call owns (closes) it."""
    if observer is not None:
        return observer, False
    if trace:
        return Observer(sinks=[JsonlSink(trace)]), True
    return NULL_OBSERVER, False


def list_engines():
    """``(name, description)`` pairs of every registered engine.

    The names are valid ``engine=`` arguments to :func:`explore` and
    :class:`~repro.core.flow.ISEDesignFlow` (and ``--engine`` on the
    CLI); see :mod:`repro.engines` for the registration hooks.
    """
    return tuple((name, engines.describe(name))
                 for name in engines.available())


def explore(workload, *, issue=2, ports="4/2", profile="quick", jobs=None,
            batch=None, seed=0, trace=None, opt="O3", iterations=None,
            restarts=None, observer=None, engine="aco"):
    """Run the full ISE exploration for one workload on one machine.

    Parameters (all keyword-only)
    -----------------------------
    workload:
        Name of a bundled benchmark (see ``repro workloads``).
    issue / ports:
        Machine shape: issue width and register-file read/write ports.
    profile:
        Effort profile (``quick`` / ``normal`` / ``full``), or ``None``
        for the library's §5.1 defaults.
    engine:
        Registry name of the exploration engine (``"aco"`` — the
        paper's algorithm — by default; see :func:`list_engines` or
        ``repro engines``).  Unknown names raise
        :class:`~repro.errors.ReproError` listing the valid set.
    jobs:
        Worker processes (``None`` → ``$REPRO_JOBS`` or serial); the
        result is bit-identical at any setting.  Pooled workers persist
        across calls until :func:`repro.core.pool.shutdown_pools`.
    batch:
        Ants advanced in lockstep per ACO iteration batch (``None`` →
        ``$REPRO_ANT_BATCH`` or 16).  ``batch=1`` updates trails and
        merits after every ant — bit-identical to the pre-batching engine;
        larger sizes are faster but draw a different RNG stream.
    seed:
        RNG seed of the ACO colonies.
    trace:
        Path for a JSON-lines observability trace of the run.
    opt:
        Optimisation level the program is compiled at (``O0``/``O3``).
    iterations / restarts:
        Explicit effort overrides on top of the profile.
    observer:
        A caller-owned :class:`~repro.obs.Observer`; overrides
        ``trace`` and is *not* closed by this call.  An enabled
        observer also sees the cyclic collector's runs during the call
        (:func:`~repro.obs.collector_metrics`).
    """
    obs, owned = _resolve_observer(trace, observer)
    bundle = get_workload(workload)
    program, args = bundle.build()
    params, max_blocks = _resolve_params(profile, iterations, restarts)
    flow_kwargs = dict(params=params, seed=seed, jobs=jobs, batch=batch,
                       obs=obs, engine=engine)
    if max_blocks is not None:
        flow_kwargs["max_blocks"] = max_blocks
    flow = ISEDesignFlow(MachineConfig(issue, ports), **flow_kwargs)
    try:
        with collector_metrics(obs):
            explored = flow.explore_application(program, args=args,
                                                opt_level=opt)
        metrics = obs.metrics.snapshot() if obs else None
    finally:
        if owned:
            obs.close()
            flow.obs = NULL_OBSERVER
    return ExploreResult(
        workload=bundle.name, opt=opt, issue=issue, ports=ports,
        profile=profile, seed=seed,
        baseline_cycles=explored.baseline_cycles,
        candidates=tuple(c.describe() for c in explored.candidates),
        engine=engine, trace_path=trace, metrics=metrics,
        explored=explored, flow=flow)


def evaluate(source, *, max_area=None, max_ises=None, enable_sharing=True,
             issue=2, ports="4/2", profile="quick", jobs=None, batch=None,
             seed=0, trace=None, opt="O3", iterations=None, restarts=None,
             observer=None, engine="aco"):
    """Select ISEs under a budget and report the final metrics.

    ``source`` is either an :class:`ExploreResult` (the exploration is
    reused — the cheap path for budget sweeps) or a workload name (a
    fresh :func:`explore` runs first with the machine/effort keywords).
    ``max_area`` (µm²) and ``max_ises`` (unused-opcode count) bound the
    selection; ``enable_sharing`` toggles §5.1 hardware sharing.
    """
    obs, owned = _resolve_observer(trace, observer)
    try:
        with collector_metrics(obs):
            if isinstance(source, ExploreResult):
                result = source
            else:
                result = explore(source, issue=issue, ports=ports,
                                 profile=profile, jobs=jobs, batch=batch,
                                 seed=seed, opt=opt, iterations=iterations,
                                 restarts=restarts, observer=obs,
                                 engine=engine)
            flow = result.flow
            constraints = ISEConstraints(max_area=max_area,
                                         max_ises=max_ises)
            saved_obs = flow.obs
            flow.obs = obs
            try:
                report = flow.evaluate(result.explored, constraints,
                                       enable_sharing=enable_sharing)
            finally:
                flow.obs = saved_obs
        metrics = obs.metrics.snapshot() if obs else None
    finally:
        if owned:
            obs.close()
    return SelectionResult(
        workload=result.workload, opt=result.opt, issue=result.issue,
        ports=result.ports, max_area=max_area, max_ises=max_ises,
        baseline_cycles=report.baseline_cycles,
        final_cycles=report.final_cycles, reduction=report.reduction,
        num_ises=report.num_ises, area=report.area,
        ises=tuple(entry.representative.describe()
                   for entry in report.selection.selected),
        metrics=metrics, report=report)


def serve(host="127.0.0.1", port=0, *, max_inflight=8,
          request_timeout=None, threaded=True):
    """Start the exploration service daemon (``repro serve``).

    ``threaded=True`` (the default) runs the server on a daemon thread
    and returns the started :class:`~repro.serve.server.ExploreServer`
    — connect a :class:`ServiceClient` to ``server.address`` and call
    ``server.stop()`` when done.  ``threaded=False`` serves on the
    calling thread until interrupted (the CLI path).

    Every served response is bit-identical to the one-shot
    :func:`explore` / :func:`evaluate` / :func:`sweep` call carrying
    the same request; see docs/SERVICE.md for the wire format, scope
    multiplexing and quota semantics.
    """
    from .serve.server import ExploreServer

    server = ExploreServer(host=host, port=port,
                           max_inflight=max_inflight,
                           request_timeout=request_timeout)
    if threaded:
        server.start_in_thread()
    else:
        server.run_blocking()
    return server


def sweep(workloads, *, machines=None, budgets=None, opt="O3",
          profile="quick", seed=0, engine="aco", jobs=None, batch=None,
          iterations=None, restarts=None, trace=None, observer=None):
    """Run a (workload × machine × budget) design-space sweep.

    Each (workload, machine) cell is explored once, then evaluated at
    every area budget; the returned
    :class:`~repro.dist.sweep.SweepResult` carries one frozen row per
    (cell, budget) in canonical grid order, plus a content ``digest``.

    ``machines`` is a sequence of ``(ports, issue)`` pairs (default:
    the paper's §5.1 cases); ``budgets`` a sequence of area budgets in
    µm² (default 20k/80k/320k).  ``jobs > 1`` fans each cell's
    exploration over this host's warm worker pool; the rows are
    bit-identical at any worker count.

    ``trace``/``observer`` behave as in :func:`explore`; sweep-level
    progress lands on the ``sweep.*`` counters and events.
    """
    from .dist.sweep import DEFAULT_BUDGETS, run_sweep

    obs, owned = _resolve_observer(trace, observer)
    try:
        with collector_metrics(obs):
            return run_sweep(
                workloads=workloads,
                machines=PAPER_CASES if machines is None else machines,
                budgets=DEFAULT_BUDGETS if budgets is None else budgets,
                opt=opt, profile=profile, seed=seed, engine=engine,
                jobs=jobs, batch=batch, iterations=iterations,
                restarts=restarts, obs=obs)
    finally:
        if owned:
            obs.close()
