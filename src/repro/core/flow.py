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

Stage 1 splits the same way.  Optimisation, the profiling run, liveness
and DFG lowering do not depend on the machine, so :func:`front_end`
runs them once per program content and keeps the result in a per-process
LRU memo of :data:`FRONT_END_ENTRIES` entries.  Every flow then builds
fresh :class:`BlockInstance` objects over the shared DFGs and schedules
its own ``base_cycles``; the DFGs are read-only after lowering (see
:class:`~repro.graph.dfg.DFG`), so explores on any machine or thread
may share them.
"""

import threading
from collections import OrderedDict

from ..config import DEFAULT_CONSTRAINTS, DEFAULT_PARAMS
from ..errors import ReproError
from ..graph.dfg import build_dfg
from ..hwlib.technology import DEFAULT_TECHNOLOGY
from ..ir.analysis import liveness
from ..ir.interp import Interpreter
from ..ir.passes.pipeline import optimize
from ..obs import NULL_OBSERVER, ensure_observer
from ..sched.list_scheduler import list_schedule
from ..sched.units import contract_dfg
from .. import engines
from .merging import is_single_asfu, merge_candidates
from .parallel import resolve_jobs
# replace_and_schedule is the one-shot path (CLI gantt, tests); the name
# stays importable here for the layer tracer in perfbench/layers.py.
from .replacement import ReplacementPlan, replace_and_schedule  # noqa: F401
from .selection import select_ises

#: Bound of the per-process front-end memo: the seven workloads at two
#: opt levels plus spares.  Beyond it the least recently used is evicted.
FRONT_END_ENTRIES = 16

_front_ends = OrderedDict()
_front_ends_lock = threading.Lock()


class FrontEnd:
    """The machine-independent half of stage 1 for one program.

    ``program`` is the program as profiled (optimised when an opt level
    was given) and ``rows`` holds ``(function, label, segments, calls,
    freq)`` per block in program order, ``segments`` a tuple of DFGs.
    One instance is shared by every flow that profiles equal content.
    """

    __slots__ = ("program", "rows")

    def __init__(self, program, rows):
        self.program = program
        self.rows = rows


def front_end(program, args=(), opt_level=None, obs=NULL_OBSERVER):
    """``(FrontEnd, cached)`` of ``program`` run with ``args``.

    Memoised per process on the input's content —
    :meth:`~repro.ir.program.Program.content_key`, ``args`` and
    ``opt_level`` — never on its name, so an edited program misses.
    A miss optimises (``opt_level`` ``None`` keeps the program as is),
    runs the profiling interpreter and lowers every block.  Racing
    builders of one key each build; ``setdefault`` keeps the first and
    the loser uses it too.  Counts ``flow.front_end_hits`` /
    ``flow.front_end_misses`` on ``obs``.
    """
    key = (program.content_key(), tuple(args), opt_level)
    with _front_ends_lock:
        front = _front_ends.get(key)
        if front is not None:
            _front_ends.move_to_end(key)
    cached = front is not None
    if not cached:
        built = _build_front_end(program, args, opt_level)
        with _front_ends_lock:
            front = _front_ends.setdefault(key, built)
            _front_ends.move_to_end(key)
            while len(_front_ends) > FRONT_END_ENTRIES:
                _front_ends.popitem(last=False)
    if obs:
        obs.count("flow.front_end_hits" if cached
                  else "flow.front_end_misses")
    return front, cached


def _build_front_end(program, args, opt_level):
    if opt_level is not None:
        program = optimize(program, opt_level)
    interp = Interpreter(program)
    interp.run(args=args)
    profile = interp.profile
    rows = []
    for func in program.functions:
        __, live_out = liveness(func)
        for block in func.blocks:
            segments, calls = _lower_segments(
                func, block, live_out[block.label])
            rows.append((func.name, block.label, tuple(segments), calls,
                         profile.count(func.name, block.label)))
    return FrontEnd(program, tuple(rows))


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

    def __init__(self, machine, *, params=None, constraints=None,
                 technology=None, seed=0, priority="children",
                 coverage=0.95, max_blocks=8, max_dfg_nodes=220,
                 jobs=None, batch=None, obs=None, engine="aco"):
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
        #: explorer, ``1`` updates trails/merits after every ant.
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

    def _create_explorer(self):
        """The flow's engine, built from the registry (``self.engine``).

        The instance rides into pool workers exactly like the resolved
        ``batch`` does.
        """
        return engines.create(
            self.engine, self.machine, params=self.params,
            constraints=self.constraints, technology=self.technology,
            seed=self.seed, priority=self.priority, batch=self.batch,
            obs=self.obs)

    # -- stage 1: profile + lower ------------------------------------------

    def profile_blocks(self, program, args=()):
        """Fresh blocks of ``program`` with this machine's base cycles.

        ``program`` runs as is with ``args``, or is a :class:`FrontEnd`
        already looked up.  Either way the lowered DFGs come from the
        shared :func:`front_end` memo; only the scheduling is this
        flow's own.
        """
        front = program if isinstance(program, FrontEnd) \
            else front_end(program, args, obs=self.obs)[0]
        blocks = [BlockInstance(function, label, list(segments), calls, freq)
                  for function, label, segments, calls, freq in front.rows]
        for instance in blocks:
            instance.base_cycles = self._block_cycles(instance)
        return blocks

    def profile_application(self, program, args=(), opt_level=None):
        """Stage 1 for this machine: ``(program, blocks, hot)``.

        ``program`` is the one explored — the memo's optimised program,
        or the caller's own object when ``opt_level`` is ``None`` —
        ``blocks`` are fresh :class:`BlockInstance` objects and ``hot``
        the ones chosen for exploration.  The ``flow.profile`` timer
        covers the front end on a miss and the content key plus the
        base cycles on a hit.
        """
        obs = self.obs
        with obs.timer("flow.profile"):
            front, cached = front_end(program, args, opt_level, obs=obs)
            blocks = self.profile_blocks(front)
        if opt_level is not None:
            program = front.program
        hot = self._select_hot_blocks(blocks)
        if obs:
            obs.event("flow.profile", program=program.name,
                      opt=opt_level, engine=self.engine,
                      blocks=len(blocks), cached=cached,
                      explorable=sum(1 for b in blocks if b.explorable))
            for instance in hot:
                obs.event("flow.hot_block", function=instance.function,
                          label=instance.label, weight=instance.weight,
                          nodes=len(instance.dfg))
            obs.gauge("flow.hot_blocks", len(hot))
        return program, blocks, hot

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
        identity, so the bundle is identical to the serial run.  The
        profile phase's schedule lengths (``base_cycles``) ride along as
        cost estimates, so the pool dispatches the longest blocks first
        and short ones backfill behind them.
        """
        program, blocks, hot = self.profile_application(
            program, args=args, opt_level=opt_level)
        obs = self.obs
        explorer = self._create_explorer()
        jobs = resolve_jobs(self.jobs if jobs is None else jobs, obs=obs)
        with obs.timer("flow.explore_blocks"):
            results = explorer.explore_many(
                [b.dfg for b in hot], jobs=jobs,
                costs=[b.base_cycles or 0 for b in hot])
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
            match_hits, match_misses = plan.match_hits, plan.match_misses
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
            obs.count("replace.match_memo_hits",
                      plan.match_hits - match_hits)
            obs.count("replace.match_memo_misses",
                      plan.match_misses - match_misses)
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
