"""The ``Explorer`` protocol: what every search engine must provide.

The paper's ACO search is one point in a crowded design space — ISEGEN
grows ISEs by Kernighan-Lin-style iterative improvement, greedy cone
growth is the classic Clark baseline, genetic search is the generic
black-box contender.  This module pins down the contract that lets them
race interchangeably:

* :class:`ExplorerEngine` — the abstract base every engine derives
  from.  It owns the shared substrate: machine/constraint clamping,
  the per-engine :class:`~repro.core.evalcache.EvalCache`, observer
  wiring, and the **deterministic candidate evaluation**
  (:meth:`ExplorerEngine._evaluate`) all engines must score through;
* :class:`EvalBudget` — an evaluation meter threaded through
  ``_evaluate``: cache hits are free, every *uncached* evaluation
  charges one unit, and the budget raises
  :class:`~repro.errors.BudgetExhausted` once spent.  Because every
  engine scores candidates through the same metered evaluator, "equal
  budgets" means equal amounts of the one expensive operation —
  contraction + list scheduling — regardless of how an engine searches;
* :class:`EngineStats` — a uniform counters snapshot (uncached
  evaluations, cache hits/misses) the tournament harness reads;
* the **registry** — a string-keyed table (:func:`register` /
  :func:`available` / :func:`create`) the public API resolves
  ``engine="..."`` through.  Built-in engines register lazily so
  importing :mod:`repro` never pays for engines it does not run.

:class:`ExplorationResult` also lives here: it is the common return
type of every engine's :meth:`~ExplorerEngine.explore`, not an ACO
artefact.
"""

import importlib
from dataclasses import dataclass

from ..config import DEFAULT_CONSTRAINTS, DEFAULT_PARAMS
from ..errors import BudgetExhausted, ConfigError, ReproError
from ..hwlib.database import DEFAULT_DATABASE
from ..hwlib.options import default_io_table
from ..hwlib.technology import DEFAULT_TECHNOLOGY
from ..obs import ensure_observer
from ..sched.list_scheduler import list_schedule
from ..sched.units import block_skeleton, contract_dfg
from ..core.evalcache import EvalCache
from ..core.parallel import parallel_map, resolve_jobs


class ExplorationResult:
    """Outcome of exploring one basic block (any engine)."""

    def __init__(self, dfg, candidates, base_cycles, final_cycles,
                 rounds, iterations, traces=(), engine=""):
        self.dfg = dfg
        self.candidates = list(candidates)
        self.base_cycles = base_cycles
        self.final_cycles = final_cycles
        self.rounds = rounds
        self.iterations = iterations
        #: Per-round convergence traces: list of per-iteration TETs.
        self.traces = [list(t) for t in traces]
        #: Registry name of the engine that produced this result
        #: (``""`` for results built outside an engine).
        self.engine = engine

    @property
    def cycle_saving(self):
        """Block cycles saved versus the no-ISE baseline."""
        return self.base_cycles - self.final_cycles

    @property
    def total_area(self):
        """Summed silicon area of all candidates."""
        return sum(c.area for c in self.candidates)

    def __repr__(self):
        return ("ExplorationResult({} ISEs, {} -> {} cycles, "
                "{} rounds / {} iterations)".format(
                    len(self.candidates), self.base_cycles,
                    self.final_cycles, self.rounds, self.iterations))


class EvalBudget:
    """A meter over *uncached* candidate evaluations.

    ``charge()`` is called by :meth:`ExplorerEngine._evaluate`
    immediately before it computes a cycle count the evalcache could
    not answer; once ``limit`` charges have been granted every further
    charge raises :class:`~repro.errors.BudgetExhausted`.  Cache hits
    are free — the budget measures real scheduling work, which is what
    makes cross-engine races fair (a cache-friendly search style is a
    legitimate advantage, re-deriving known cycle counts is not).

    A budget is deliberately process-local: engines running under one
    fan out serially (``jobs`` is forced to 1) so the meter sees every
    charge.
    """

    __slots__ = ("limit", "spent", "denied")

    def __init__(self, limit):
        limit = int(limit)
        if limit < 1:
            raise ConfigError(
                "EvalBudget needs a positive limit, got {}".format(limit))
        self.limit = limit
        self.spent = 0
        #: True once a charge was actually refused (the engine was
        #: stopped by the budget rather than finishing under it).
        self.denied = False

    def charge(self):
        """Grant one uncached evaluation or raise BudgetExhausted."""
        if self.spent >= self.limit:
            self.denied = True
            raise BudgetExhausted(
                "evaluation budget of {} exhausted".format(self.limit))
        self.spent += 1

    @property
    def remaining(self):
        """Charges left before the budget refuses."""
        return self.limit - self.spent

    @property
    def exhausted(self):
        """True when no further uncached evaluation will be granted."""
        return self.spent >= self.limit

    def __repr__(self):
        return "EvalBudget({}/{} spent{})".format(
            self.spent, self.limit, ", denied" if self.denied else "")


@dataclass(frozen=True)
class EngineStats:
    """Uniform counters snapshot of one engine instance.

    ``evaluations`` counts the uncached ``_evaluate`` computations the
    engine actually performed — with the evalcache enabled it equals
    ``cache_misses``; with the cache disabled it is the only record.
    ``budget_spent``/``budget_limit`` are ``None`` for unmetered runs.
    """

    engine: str
    evaluations: int
    cache_hits: int
    cache_misses: int
    cache_entries: int
    budget_spent: int = None
    budget_limit: int = None

    @property
    def cache_lookups(self):
        """Total evalcache probes (hits + misses)."""
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self):
        """Fraction of evalcache probes answered from the cache."""
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0


def _explore_dfg_task(engine, dfg):
    """Module-level worker: explore one block DFG (picklable)."""
    return engine.explore(dfg, jobs=1)


class ExplorerEngine:
    """Abstract base of every pluggable search engine.

    The constructor signature is part of the protocol — the registry's
    :func:`create` instantiates any engine as ``cls(machine,
    **kwargs)`` with the keyword set below, so third-party engines must
    accept (and may ignore) all of them:

    ``machine``
        The :class:`~repro.sched.machine.MachineConfig` to explore for.
    ``params`` / ``constraints`` / ``database`` / ``technology``
        Exploration tunables, §4.2 ISE constraints (clamped to the
        machine's physical register-file ports here), the hardware
        implementation-option database and the delay→cycles conversion.
    ``seed``
        Determinism contract: the same seed must reproduce the same
        result, serially or pooled.
    ``priority`` / ``jobs`` / ``obs``
        List-scheduler priority heuristic, default worker count, and
        the observability context.
    ``batch``
        Lockstep ant batching — meaningful to the ACO engine only;
        other engines store and ignore it.
    ``budget``
        An optional :class:`EvalBudget` metering uncached evaluations.

    Subclasses implement :meth:`explore`; :meth:`explore_many`,
    :meth:`_evaluate`, :meth:`_default_tables` and :meth:`stats` are
    provided.  ``name``/``description`` class attributes identify the
    engine in the registry and the tournament tables.
    """

    #: Registry name (class attribute; set by subclasses).
    name = None
    #: One-line human-readable description for ``repro engines``.
    description = ""

    def __init__(self, machine, params=None, constraints=None,
                 database=None, technology=None, seed=0,
                 priority="children", jobs=None, obs=None, batch=None,
                 budget=None):
        self.machine = machine
        self.params = params or DEFAULT_PARAMS
        constraints = constraints or DEFAULT_CONSTRAINTS
        # The I/O-port constraints of §4.2 can never exceed the physical
        # register-file ports of the machine.
        rf = machine.register_file
        self.constraints = constraints.with_(
            n_in=min(constraints.n_in, rf.read_ports),
            n_out=min(constraints.n_out, rf.write_ports))
        self.database = database or DEFAULT_DATABASE
        self.technology = technology or machine.technology or DEFAULT_TECHNOLOGY
        self.seed = seed
        self.priority = priority
        self.jobs = jobs
        #: Observability context; the falsy NULL_OBSERVER by default so
        #: hook sites cost one boolean check.  Pickles by configuration
        #: — worker-side calls land in the capture buffer and are
        #: replayed by the parent (see :mod:`repro.core.parallel`).
        self.obs = ensure_observer(obs)
        #: Lockstep ant batch request; only the ACO engine interprets
        #: it (and overrides this attribute with the resolved integer).
        self.batch = batch
        #: Optional uncached-evaluation meter (tournament races).
        self.budget = budget
        #: Uncached ``_evaluate`` computations this instance performed.
        self.stat_evaluations = 0
        #: Memo of deterministic candidate evaluations, shared across
        #: rounds, restarts and blocks.  Pool workers receive it inside
        #: the pickled engine as a warm read-only snapshot (see
        #: :mod:`repro.core.evalcache`).
        self._evalcache = EvalCache()

    # -- the protocol ------------------------------------------------------

    def explore(self, dfg, io_tables=None, jobs=None):
        """Explore one basic-block DFG; return an ExplorationResult.

        Implementations must be deterministic in ``self.seed`` and
        score every trial candidate set through :meth:`_evaluate`.
        Under an :class:`EvalBudget` they return their best-so-far
        result when the meter runs dry, and only propagate
        :class:`~repro.errors.BudgetExhausted` when it dies before the
        block baseline was evaluated.
        """
        raise NotImplementedError

    def explore_many(self, dfgs, jobs=None, costs=None):
        """Explore several DFGs; returns one best result per DFG.

        Default implementation: serial loop when ``jobs`` resolves to 1
        (a budgeted engine always resolves to 1 — the meter is
        process-local), otherwise whole blocks fan out over the worker
        pool with the engine pickled into each task — engine choice
        rides into pool workers exactly like the ACO engine's resolved
        ``batch`` does.  ``costs`` front-loads expensive blocks; it is
        a scheduling hint only.
        """
        dfgs = list(dfgs)
        jobs = resolve_jobs(self.jobs if jobs is None else jobs,
                            obs=self.obs)
        if self.budget is not None:
            jobs = 1
        if jobs <= 1 or len(dfgs) <= 1:
            return [self.explore(dfg, jobs=1) for dfg in dfgs]
        task_costs = list(costs) if costs is not None else None
        return parallel_map(_explore_dfg_task,
                            [(self, dfg) for dfg in dfgs], jobs,
                            obs=self.obs, costs=task_costs)

    def stats(self):
        """An :class:`EngineStats` snapshot of this instance."""
        hits, misses, entries = self._evalcache.stats()
        budget = self.budget
        return EngineStats(
            engine=self.name or type(self).__name__,
            evaluations=self.stat_evaluations,
            cache_hits=hits, cache_misses=misses, cache_entries=entries,
            budget_spent=budget.spent if budget is not None else None,
            budget_limit=budget.limit if budget is not None else None)

    # -- shared machinery --------------------------------------------------

    def _default_tables(self, dfg):
        """uid → IOTable from the hardware database (the §4.2 default)."""
        return {
            uid: default_io_table(dfg.op(uid), self.database)
            for uid in dfg.nodes
        }

    def _evaluate(self, dfg, candidates, io_tables=None):
        """Block cycles after fixing ``candidates`` (list scheduling).

        Deterministic (contraction + list scheduling), so results are
        memoised in the cross-restart :class:`EvalCache` keyed on the
        DFG digest, the *ordered* candidate fingerprints (contraction
        names supernodes by position, and the list scheduler's unit-name
        tie-break can see that) and the software latencies used.  Cache
        hits are free; an uncached computation charges the
        :class:`EvalBudget` (when one is attached) *before* any work
        happens, so a stopped engine performed exactly ``budget.spent``
        real evaluations.
        """
        software_cycles = latencies = None
        if io_tables is not None:
            software_cycles, latencies = block_skeleton(dfg).latencies(
                io_tables)
        cache = self._evalcache
        key = cache.key(dfg, candidates, latencies)
        cached = cache.get(key)
        if cached is not None:
            return cached
        if self.budget is not None:
            self.budget.charge()
        self.stat_evaluations += 1
        groups = [(c.members, c.option_of) for c in candidates]
        graph, units = contract_dfg(dfg, groups, self.technology,
                                    software_cycles=software_cycles)
        schedule = list_schedule(graph, units, self.machine)
        makespan = schedule.makespan
        cache.put(key, makespan)
        return makespan

    def _min_delay_options(self, dfg, members):
        """Fastest hardware option per member (the greedy/KL realiser)."""
        option_of = {}
        for uid in members:
            options = self.database.hardware_options(dfg.op(uid).name)
            option_of[uid] = min(options, key=lambda o: o.delay_ns)
        return option_of

    @staticmethod
    def _better(a, b):
        """Restart preference: fewest final cycles, then least area."""
        return (a.final_cycles, a.total_area) < (b.final_cycles, b.total_area)


# -- the registry ------------------------------------------------------------

class _EngineEntry:
    """One registry slot: a loader thunk plus its listing description."""

    __slots__ = ("loader", "description")

    def __init__(self, loader, description):
        self.loader = loader
        self.description = description


_REGISTRY = {}


def _unknown(name):
    return ReproError(
        "unknown engine {!r}; choose from {}".format(
            name, ", ".join(sorted(_REGISTRY)) or "<none registered>"))


def register(name, engine, description=None, replace=False):
    """Register an engine class under ``name``.

    ``engine`` is an :class:`ExplorerEngine` subclass (third-party
    engines use this directly: ``engines.register("mine", MyEngine)``).
    ``description`` defaults to the class's ``description`` attribute.
    Re-registering an existing name requires ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ReproError("engine name must be a non-empty string")
    if name in _REGISTRY and not replace:
        raise ReproError(
            "engine {!r} is already registered (pass replace=True "
            "to override)".format(name))
    text = description if description is not None \
        else (getattr(engine, "description", "") or engine.__name__)
    _REGISTRY[name] = _EngineEntry(lambda: engine, text)


def register_lazy(name, module, attr, description, replace=False):
    """Register a built-in engine without importing its module yet."""
    if name in _REGISTRY and not replace:
        raise ReproError(
            "engine {!r} is already registered (pass replace=True "
            "to override)".format(name))

    def loader():
        return getattr(importlib.import_module(module), attr)

    _REGISTRY[name] = _EngineEntry(loader, description)


def unregister(name):
    """Remove ``name`` from the registry (testing hook)."""
    if name not in _REGISTRY:
        raise _unknown(name)
    del _REGISTRY[name]


def available():
    """Sorted tuple of every registered engine name."""
    return tuple(sorted(_REGISTRY))


def describe(name):
    """The one-line description ``name`` was registered with."""
    try:
        return _REGISTRY[name].description
    except KeyError:
        raise _unknown(name) from None


def engine_class(name):
    """Resolve ``name`` to its engine class (imports lazily)."""
    try:
        entry = _REGISTRY[name]
    except KeyError:
        raise _unknown(name) from None
    return entry.loader()


def create(name, machine, **kwargs):
    """Instantiate the engine registered under ``name``.

    ``kwargs`` are the :class:`ExplorerEngine` constructor keywords
    (params, constraints, technology, seed, obs, budget, ...).
    Unknown names raise :class:`~repro.errors.ReproError` listing the
    valid set.
    """
    return engine_class(name)(machine, **kwargs)
