"""The complete ISE design flow (Fig. 3.1.1).

``profile → basic-block selection → ISE exploration → ISE merging →
ISE selection + hardware sharing → ISE replacement + scheduling``.

The flow separates the expensive part (profiling + exploration, done
once per application/machine) from the cheap part (selection under a
given area / ISE-count budget + replacement), so the evaluation sweeps
of chapter 5 re-use one :class:`ExploredApplication` across budgets.

:meth:`ISEDesignFlow.evaluate` splits the cheap part once more.  Its
*plan* (:meth:`ISEDesignFlow.replacement_plan`, a
:class:`~repro.core.replacement.ReplacementPlan`) holds everything no
budget changes: the merged ISE list, each block's host graph, each
representative's pattern and every (block, merged ISE) match proposal
with its legality, option and pipestage checks done.  It is built once
per explored application and replacement configuration and cached on
the :class:`ExploredApplication` (never pickled).  Per budget only
selection, the greedy disjoint pick over the selected ISEs' proposals,
contraction and list scheduling run — and the last three only when the
block's ordered tuple of selected ISEs has not been scheduled before.
"""

import warnings

from ..config import DEFAULT_CONSTRAINTS, DEFAULT_PARAMS
from ..errors import ReproError
from ..graph.dfg import build_dfg
from ..hwlib.technology import DEFAULT_TECHNOLOGY
from ..ir.analysis import liveness
from ..ir.interp import Interpreter
from ..ir.passes.pipeline import optimize
from ..obs import ensure_observer
from ..sched.list_scheduler import list_schedule
from ..sched.units import contract_dfg
from .. import engines
from .merging import is_single_asfu, merge_candidates
from .parallel import parallel_map, resolve_jobs
# replace_and_schedule is the one-shot path (CLI gantt, tests); the name
# stays importable here for the layer tracer in perfbench/layers.py.
from .replacement import ReplacementPlan, replace_and_schedule  # noqa: F401
from .selection import select_ises


def _explore_block_task(explorer, dfg):
    """Module-level worker: explore one block DFG (picklable)."""
    return explorer.explore(dfg)


def _default_engine_factory(flow):
    """Build the flow's engine from the registry (``flow.engine``).

    Module-level (not a lambda) so a flow object with the default
    factory stays picklable; the engine instance it returns rides into
    pool workers exactly like the resolved ``batch`` does.
    """
    return engines.create(
        flow.engine, flow.machine, params=flow.params,
        constraints=flow.constraints, technology=flow.technology,
        seed=flow.seed, priority=flow.priority, batch=flow.batch,
        obs=flow.obs)


class BlockInstance:
    """One profiled basic block, lowered to DFG segments.

    Blocks containing calls are split at call boundaries; each segment
    schedules independently and the block costs the sum plus one cycle
    per call and one for the terminator.  Only single-segment blocks
    are eligible for ISE exploration.
    """

    def __init__(self, function, label, segments, calls, freq):
        self.function = function
        self.label = label
        self.segments = segments
        self.calls = calls
        self.freq = freq
        self.base_cycles = None      # set by the flow

    @property
    def explorable(self):
        """True when the block can be handed to ISE exploration."""
        return (self.freq > 0 and self.calls == 0
                and len(self.segments) == 1 and len(self.segments[0]) > 0)

    @property
    def dfg(self):
        """The single segment DFG of an explorable block."""
        if not self.explorable:
            raise ReproError("block {} is not explorable".format(self.label))
        return self.segments[0]

    @property
    def weight(self):
        """Hot-block ranking weight: frequency x base cycles."""
        return self.freq * (self.base_cycles or 0)

    def __repr__(self):
        return "BlockInstance({}:{}, freq={}, base={})".format(
            self.function, self.label, self.freq, self.base_cycles)


class ExploredApplication:
    """Profiling + exploration output, reusable across budgets.

    ``_plans`` caches :meth:`ISEDesignFlow.replacement_plan` results by
    their replacement key.  It is derived state: pickles leave it out,
    so cached and shipped bundles keep their layout.
    """

    def __init__(self, program, machine, blocks, candidates, explored_labels,
                 technology, constraints):
        self.program = program
        self.machine = machine
        self.blocks = blocks
        self.candidates = candidates
        self.explored_labels = explored_labels
        self.technology = technology
        self.constraints = constraints
        self._plans = {}

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_plans"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._plans = {}

    @property
    def baseline_cycles(self):
        """Whole-program cycles without any ISE."""
        return sum(b.freq * (b.base_cycles + 1) for b in self.blocks
                   if b.freq > 0)

    def __repr__(self):
        return "ExploredApplication({}, {} blocks, {} candidates)".format(
            self.program.name, len(self.blocks), len(self.candidates))


class FlowReport:
    """Final metrics of one (application, machine, budget) evaluation."""

    def __init__(self, explored, selection, final_cycles, block_results):
        self.explored = explored
        self.selection = selection
        self.final_cycles = final_cycles
        self.block_results = block_results

    @property
    def baseline_cycles(self):
        """Whole-program cycles without any ISE."""
        return self.explored.baseline_cycles

    @property
    def reduction(self):
        """Execution-time reduction fraction (the figures' Y axis)."""
        base = self.baseline_cycles
        if base <= 0:
            return 0.0
        return 1.0 - self.final_cycles / base

    @property
    def area(self):
        """Shared silicon area of the selected ASFUs."""
        return self.selection.area

    @property
    def num_ises(self):
        """Number of ISEs selected."""
        return self.selection.count

    def __repr__(self):
        return ("FlowReport({} -> {} cycles, -{:.2%}, {} ISEs, "
                "{:.0f} um2)".format(
                    self.baseline_cycles, self.final_cycles, self.reduction,
                    self.num_ises, self.area))


class ISEDesignFlow:
    """Drives the full flow for one machine configuration."""

    def __init__(self, machine, params=None, constraints=None,
                 technology=None, seed=0, priority="children",
                 coverage=0.95, max_blocks=8, max_dfg_nodes=220,
                 explorer_factory=None, jobs=None, batch=None, obs=None,
                 *, engine="aco"):
        if isinstance(constraints, int) and not isinstance(constraints,
                                                           bool):
            # Legacy positional call pattern ISEDesignFlow(machine,
            # params, seed[, jobs]) predating the keyword-only facade
            # (repro.api).  Remap and warn; remove in 2.0.
            warnings.warn(
                "positional ISEDesignFlow(machine, params, seed, jobs) is "
                "deprecated; use keyword arguments or the repro.explore() "
                "facade", DeprecationWarning, stacklevel=2)
            legacy_seed = constraints
            constraints = None
            if isinstance(technology, int) and not isinstance(technology,
                                                              bool):
                jobs = technology
                technology = None
            seed = legacy_seed
        self.machine = machine
        self.params = params or DEFAULT_PARAMS
        self.constraints = constraints or DEFAULT_CONSTRAINTS
        self.technology = technology or DEFAULT_TECHNOLOGY
        self.seed = seed
        self.priority = priority
        self.coverage = coverage
        self.max_blocks = max_blocks
        self.max_dfg_nodes = max_dfg_nodes
        self.jobs = jobs
        #: Ants per lockstep batch inside each exploration round
        #: (``None`` → ``$REPRO_ANT_BATCH`` → 16); resolved by the
        #: explorer, ``1`` forces the scalar reference loop.
        self.batch = batch
        #: Observability context threaded through the whole flow
        #: (explorer, parallel fan-out, evaluation); the falsy
        #: NULL_OBSERVER by default.
        self.obs = ensure_observer(obs)
        #: Registry name of the exploration engine (``repro engines``
        #: lists the choices).  Validated here so a typo fails at
        #: construction, not deep inside ``explore_application``.
        engines.describe(engine)
        self.engine = engine
        if explorer_factory is None:
            explorer_factory = _default_engine_factory
        self._explorer_factory = explorer_factory

    # -- stage 1: profile + lower ------------------------------------------

    def profile_blocks(self, program, args=()):
        """Run the program, lower every block, attach frequencies."""
        interp = Interpreter(program)
        interp.run(args=args)
        profile = interp.profile
        blocks = []
        for func in program.functions:
            __, live_out = liveness(func)
            for block in func.blocks:
                segments, calls = _lower_segments(
                    func, block, live_out[block.label])
                freq = profile.count(func.name, block.label)
                blocks.append(BlockInstance(
                    func.name, block.label, segments, calls, freq))
        for instance in blocks:
            instance.base_cycles = self._block_cycles(instance)
        return blocks

    def _block_cycles(self, instance):
        """Body cycles of a block without ISEs (sum of its segments)."""
        total = instance.calls
        for segment in instance.segments:
            if len(segment) == 0:
                continue
            graph, units = contract_dfg(segment, [], self.technology)
            schedule = list_schedule(graph, units, self.machine,
                                     priority=self.priority)
            total += schedule.makespan
        return total

    # -- stage 2: hot-block selection + exploration --------------------------

    def explore_application(self, program, args=(), opt_level=None,
                            jobs=None):
        """Profile, pick hot blocks, explore each; returns the bundle.

        ``jobs`` > 1 (or ``REPRO_JOBS``) fans block explorations over a
        process pool; per-block RNG streams derive from the block's
        identity, so the bundle is identical to the serial run.
        """
        if opt_level is not None:
            program = optimize(program, opt_level)
        obs = self.obs
        with obs.timer("flow.profile"):
            blocks = self.profile_blocks(program, args=args)
        hot = self._select_hot_blocks(blocks)
        if obs:
            obs.event("flow.profile", program=program.name,
                      opt=opt_level, engine=self.engine,
                      blocks=len(blocks),
                      explorable=sum(1 for b in blocks if b.explorable))
            for instance in hot:
                obs.event("flow.hot_block", function=instance.function,
                          label=instance.label, weight=instance.weight,
                          nodes=len(instance.dfg))
            obs.gauge("flow.hot_blocks", len(hot))
        explorer = self._explorer_factory(self)
        jobs = resolve_jobs(self.jobs if jobs is None else jobs, obs=obs)
        with obs.timer("flow.explore_blocks"):
            results = self._explore_hot_blocks(explorer, hot, jobs)
        candidates = []
        explored_labels = []
        for instance, result in zip(hot, results):
            explored_labels.append((instance.function, instance.label))
            for candidate in result.candidates:
                candidate.weighted_saving = (
                    candidate.cycle_saving * instance.freq)
                candidates.append(candidate)
        if obs:
            obs.event("flow.explored", program=program.name,
                      engine=self.engine, candidates=len(candidates),
                      jobs=jobs)
        return ExploredApplication(program, self.machine, blocks, candidates,
                                   explored_labels, self.technology,
                                   self.constraints)

    @staticmethod
    def _explore_hot_blocks(explorer, hot, jobs):
        """Explore the hot blocks, fanning out when ``jobs`` > 1.

        Explorers that support :meth:`explore_many` get (block, restart)
        granularity; others are mapped block-by-block.  Either way the
        profile phase's schedule lengths (``base_cycles``) ride along
        as cost estimates, so the pool dispatches the longest blocks
        first and short ones backfill behind them.
        """
        costs = [instance.base_cycles or 0 for instance in hot]
        explore_many = getattr(explorer, "explore_many", None)
        if callable(explore_many):
            try:
                return explore_many([b.dfg for b in hot], jobs=jobs,
                                    costs=costs)
            except TypeError:
                # Externally-supplied explorer without the costs hook.
                return explore_many([b.dfg for b in hot], jobs=jobs)
        return parallel_map(_explore_block_task,
                            [(explorer, b.dfg) for b in hot], jobs,
                            obs=getattr(explorer, "obs", None),
                            costs=costs)

    def _select_hot_blocks(self, blocks):
        eligible = [b for b in blocks
                    if b.explorable and len(b.dfg) <= self.max_dfg_nodes
                    and b.dfg.groupable_nodes()]
        eligible.sort(key=lambda b: (-b.weight, b.function, b.label))
        total = sum(b.weight for b in eligible)
        if total <= 0:
            return []
        chosen, covered = [], 0.0
        for block in eligible:
            if len(chosen) >= self.max_blocks:
                break
            chosen.append(block)
            covered += block.weight
            if covered >= self.coverage * total:
                break
        return chosen

    # -- stage 3: merge + select + replace + schedule ---------------------------

    def replacement_plan(self, explored):
        """The budget-invariant half of :meth:`evaluate` for ``explored``.

        Cached on ``explored`` under everything replacement reads from
        this flow — merge condition (2), the legality fields of
        ``constraints``, technology, machine and priority — so flows
        that differ only in those never share a plan.  Racing callers
        may each build one; ``setdefault`` keeps the first and the
        loser's is an equal, discarded copy.
        """
        c = self.constraints
        single_asfu = is_single_asfu(self.machine)
        key = (single_asfu, c.n_in, c.n_out, c.max_ise_cycles,
               c.forbid_memory_ops, self.technology, self.machine,
               self.priority)
        plan = explored._plans.get(key)
        if plan is None:
            merged = merge_candidates(explored.candidates,
                                      single_asfu=single_asfu)
            plan = explored._plans.setdefault(key, ReplacementPlan(
                merged, c, self.technology, machine=self.machine,
                priority=self.priority))
        return plan

    def evaluate(self, explored, constraints=None, enable_sharing=True):
        """Select ISEs under ``constraints`` and produce final metrics."""
        constraints = constraints or self.constraints
        obs = self.obs
        with obs.timer("flow.evaluate"):
            plan = self.replacement_plan(explored)
            selection = select_ises(plan.merged, constraints,
                                    enable_sharing=enable_sharing)
            final_cycles = 0
            block_results = {}
            for instance in explored.blocks:
                if instance.freq <= 0:
                    continue
                if instance.explorable and selection.selected:
                    cycles = plan.makespan(instance.dfg, selection.selected,
                                           obs=obs)
                else:
                    cycles = instance.base_cycles
                # A compiler would keep the original code if replacement
                # ever lost cycles; model that by clipping at the baseline.
                cycles = min(cycles, instance.base_cycles)
                block_results[(instance.function, instance.label)] = cycles
                final_cycles += instance.freq * (cycles + 1)
        report = FlowReport(explored, selection, final_cycles, block_results)
        if obs:
            obs.event("flow.evaluate",
                      baseline_cycles=report.baseline_cycles,
                      final_cycles=final_cycles,
                      reduction=report.reduction,
                      num_ises=selection.count, area=selection.area)
        return report

    def run(self, program, args=(), opt_level=None, constraints=None,
            enable_sharing=True):
        """Convenience: explore then evaluate with one budget."""
        explored = self.explore_application(program, args=args,
                                            opt_level=opt_level)
        return self.evaluate(explored, constraints=constraints,
                             enable_sharing=enable_sharing)


def _lower_segments(func, block, live_out):
    """Split a block body at calls and lower each segment to a DFG."""
    from ..ir.function import BasicBlock

    segments = []
    calls = 0
    current = BasicBlock(block.label + "#{}".format(len(segments)))
    bodies = []
    for instr in block.body:
        if instr.is_call:
            calls += 1
            bodies.append(current)
            current = BasicBlock(block.label + "#{}".format(len(bodies)))
        else:
            current.append(instr)
    bodies.append(current)
    for index, segment_block in enumerate(bodies):
        is_last = index == len(bodies) - 1
        if is_last:
            segment_block.terminator = block.terminator
            segment_live_out = live_out
        else:
            segment_live_out = func.virtual_registers()
        segments.append(build_dfg(segment_block, segment_live_out,
                                  function=func.name))
    if len(bodies) == 1:
        segments[0].label = block.label
    return segments, calls
