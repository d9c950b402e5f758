"""The paper's multi-issue ACO exploration as a pluggable engine.

:class:`AcoEngine` runs the full round/iteration structure of
Fig. 4.3.1 on one basic-block DFG:

* a **round** explores one ISE: iterations construct complete schedules
  (ACO ants drawing (operation, option) pairs from the Ready-Matrix),
  trails and merits are updated after each, until every operation's
  selected probability passes ``P_END`` (or the iteration budget runs
  out, in which case the best iteration seen is used);
* the taken-hardware nodes are made convex and legalised into
  candidates; the best one is fixed into the DFG as a supernode and the
  next round explores the remainder;
* rounds stop when no candidate improves the deterministic list
  schedule of the block.

§5.1 repeats exploration ``restarts`` times per block and keeps the
best outcome; :meth:`AcoEngine.explore` does the same.  Restarts (and,
through :meth:`AcoEngine.explore_many`, whole blocks) are independent:
each derives its RNG from ``(seed, restart, function, block)`` alone,
so they can fan out over a process pool (``jobs`` / ``REPRO_JOBS``)
with results bit-identical to the serial path.

With no :class:`EvalBudget` attached the engine behaves bit-identically
to every earlier release (the golden digests of
``BENCH_sched``/``BENCH_batch``/``BENCH_pool`` pin this); a budget only
ever *stops* work early, never reorders it.
"""

import random
from time import perf_counter

from ..errors import BudgetExhausted
from ..obs import ensure_observer  # noqa: F401  (re-export stability)
from ..core.batch import BatchedAntRunner, effective_batch, resolve_batch
from ..core.candidate import ISECandidate
from ..core.contract import contract_candidate
from ..core.make_convex import legalize_components
from ..core.merit import update_merits
from ..core.parallel import parallel_map, resolve_jobs
from ..core.state import ExplorationState
from ..core.trail import update_trails
from ..sched.units import block_skeleton
from .base import ExplorationResult, ExplorerEngine


def _restart_task(explorer, dfg, io_tables, restart):
    """Module-level worker: one independent restart (picklable)."""
    return explorer._explore_restart(dfg, io_tables, restart)


class AcoEngine(ExplorerEngine):
    """The paper's ISE exploration algorithm ("MI") as an engine."""

    name = "aco"
    description = ("multi-issue ant-colony search of the source paper "
                   "(critical-path-aware trails/merits, the default)")

    def __init__(self, machine, params=None, constraints=None,
                 database=None, technology=None, seed=0,
                 priority="children", jobs=None, obs=None, batch=None,
                 budget=None):
        super().__init__(machine, params=params, constraints=constraints,
                         database=database, technology=technology,
                         seed=seed, priority=priority, jobs=jobs, obs=obs,
                         budget=budget)
        #: Ants advanced in lockstep per iteration batch (``None`` →
        #: ``$REPRO_ANT_BATCH`` or 16).  ``1`` updates trails and merits
        #: after every ant — the thesis's loop and the pre-batching
        #: digest lineage; larger sizes draw in (step, ant) order and
        #: fold one trail/merit update over each batch, so their RNG
        #: stream (and golden digest) differs from width 1's.  Resolved
        #: once here so pool workers unpickle a fixed integer.
        self.batch = resolve_batch(batch, obs=self.obs)

    # -- public API -------------------------------------------------------

    def explore(self, dfg, io_tables=None, jobs=None):
        """Explore one basic-block DFG; returns the best of ``restarts``
        independent runs (fewest final cycles, then least area).

        ``io_tables`` (uid → :class:`~repro.hwlib.options.IOTable`)
        overrides the default database-driven tables — the hook through
        which the §6 extensions (e.g. HW/SW partitioning) reuse the
        engine with their own implementation options.  ``jobs`` > 1
        fans the restarts over a process pool; each restart seeds its
        own RNG, so the outcome is identical to the serial run.  An
        attached :class:`~repro.engines.base.EvalBudget` forces the
        serial path (the meter is process-local) and stops the restart
        loop once spent, keeping the best completed restart.
        """
        if io_tables is None:
            io_tables = self._default_tables(dfg)
        jobs = resolve_jobs(self.jobs if jobs is None else jobs,
                            obs=self.obs)
        restarts = range(self.params.restarts)
        if self.budget is not None:
            results = []
            for restart in restarts:
                try:
                    results.append(
                        self._explore_restart(dfg, io_tables, restart))
                except BudgetExhausted:
                    # Dried up before this restart's baseline; earlier
                    # restarts (if any) stand.
                    break
            if not results:
                raise BudgetExhausted(
                    "evaluation budget exhausted before block {}:{} "
                    "could be explored".format(dfg.function, dfg.label))
        elif jobs > 1:
            results = parallel_map(
                _restart_task,
                [(self, dfg, io_tables, restart) for restart in restarts],
                jobs, obs=self.obs)
        else:
            results = (self._explore_restart(dfg, io_tables, restart)
                       for restart in restarts)
        return self._best_of(results)

    def explore_many(self, dfgs, jobs=None, costs=None):
        """Explore several DFGs; returns one best result per DFG.

        Fans every (block, restart) combination over the pool, which
        balances better than whole blocks when block sizes differ.  The
        per-restart reduction is the same as :meth:`explore`'s, so the
        returned list matches serial block-by-block exploration exactly.

        ``costs`` — optional per-DFG cost estimates (the design flow
        passes the profile phase's schedule lengths) — lets the pool
        dispatch the longest blocks first so short ones backfill behind
        them.  Scheduling hint only; results are unaffected.
        """
        dfgs = list(dfgs)
        jobs = resolve_jobs(self.jobs if jobs is None else jobs,
                            obs=self.obs)
        if self.budget is not None:
            jobs = 1
        if jobs <= 1:
            return [self.explore(dfg, jobs=1) for dfg in dfgs]
        tables = [self._default_tables(dfg) for dfg in dfgs]
        tasks = [(self, dfg, tables[index], restart)
                 for index, dfg in enumerate(dfgs)
                 for restart in range(self.params.restarts)]
        task_costs = None
        if costs is not None and len(costs) == len(dfgs):
            task_costs = [cost for cost in costs
                          for __ in range(self.params.restarts)]
        flat = parallel_map(_restart_task, tasks, jobs, obs=self.obs,
                            costs=task_costs)
        count = self.params.restarts
        return [self._best_of(flat[index * count:(index + 1) * count])
                for index in range(len(dfgs))]

    def _explore_restart(self, dfg, io_tables, restart):
        """One independent restart with its derived RNG stream."""
        rng = random.Random("{}:{}:{}:{}".format(
            self.seed, restart, dfg.function, dfg.label))
        obs = self.obs
        if obs:
            cache = self._evalcache
            before = cache.stats()
            skeleton = block_skeleton(dfg)
            prefix_hits = skeleton.prefix_hits
            prefix_misses = skeleton.prefix_misses
            with obs.timer("explore.restart"):
                result = self._explore_once(dfg, rng, io_tables,
                                            restart=restart)
            obs.count("sched.prefix_memo_hits",
                      skeleton.prefix_hits - prefix_hits)
            obs.count("sched.prefix_memo_misses",
                      skeleton.prefix_misses - prefix_misses)
            hits, misses, entries = cache.stats()
            obs.count("evalcache.hits", hits - before[0])
            obs.count("evalcache.misses", misses - before[1])
            obs.gauge("evalcache.entries", entries)
            return result
        return self._explore_once(dfg, rng, io_tables, restart=restart)

    def _best_of(self, results):
        """Reduce restart results in order (first strictly better wins)."""
        best = None
        for result in results:
            if best is None or self._better(result, best):
                best = result
        obs = self.obs
        if obs and best is not None:
            dfg = best.dfg
            obs.event("block", function=dfg.function, label=dfg.label,
                      base_cycles=best.base_cycles,
                      final_cycles=best.final_cycles,
                      rounds=best.rounds, iterations=best.iterations,
                      candidates=len(best.candidates))
            obs.count("explore.blocks")
        return best

    # -- one full exploration (all rounds) ------------------------------------

    def _explore_once(self, original_dfg, rng, io_tables, restart=0):
        obs = self.obs
        base_cycles = self._evaluate(original_dfg, [], io_tables)
        current_dfg, current_tables = original_dfg, io_tables
        candidates = []
        best_cycles = base_cycles
        rounds = iterations = 0
        dry_rounds = 0
        traces = []
        # Round/iteration events carry the block + restart identity so
        # a merged parallel trace remains attributable.
        tag = (original_dfg.function, original_dfg.label, restart)
        try:
            while rounds < self.params.max_rounds and dry_rounds < 2:
                round_result = self._run_round(current_dfg, current_tables,
                                               rng, tag=tag,
                                               round_index=rounds)
                rounds += 1
                iterations += round_result.iterations
                traces.append(round_result.trace)
                candidate_members = round_result.candidates
                if not candidate_members:
                    dry_rounds += 1
                    continue
                # Keep the single best new candidate of the round (the
                # thesis explores one ISE per round).
                if obs:
                    mark = perf_counter()
                scored = []
                limit = self.constraints.max_ise_cycles
                for members, option_of in candidate_members:
                    candidate = ISECandidate(
                        original_dfg, members, option_of, self.technology)
                    if limit is not None and candidate.cycles > limit:
                        continue          # pipestage timing constraint
                    trial = candidates + [candidate]
                    cycles = self._evaluate(original_dfg, trial, io_tables)
                    scored.append((cycles, candidate.area, candidate))
                if obs:
                    obs.lap("round.score", mark)
                if not scored:
                    dry_rounds += 1
                    continue
                scored.sort(
                    key=lambda item: (item[0], item[1],
                                      sorted(item[2].members)))
                cycles, __, winner = scored[0]
                if cycles >= best_cycles:
                    # No performance gain this round; ACO is stochastic,
                    # so retry once before concluding no ISE remains.
                    dry_rounds += 1
                    continue
                dry_rounds = 0
                winner.cycle_saving = best_cycles - cycles
                candidates.append(winner)
                best_cycles = cycles
                current_dfg, current_tables = contract_candidate(
                    current_dfg, winner, current_tables)
        except BudgetExhausted:
            # Metered race stop: the partially-scored round is dropped,
            # everything fixed so far stands.
            pass
        return ExplorationResult(original_dfg, candidates, base_cycles,
                                 best_cycles, rounds, iterations,
                                 traces=traces, engine=self.name)

    # -- one round (Fig. 4.3.1) --------------------------------------------------

    def _run_round(self, dfg, io_tables, rng, tag=("", "", 0),
                   round_index=0):
        """One round: lockstep batches of ``self.batch`` ants, capped by
        :func:`~repro.core.batch.effective_batch` (see
        :meth:`_run_lockstep`)."""
        obs = self.obs
        function, label, restart = tag
        state = ExplorationState(dfg, io_tables, self.params,
                                 priority=self.priority)
        if not any(state.hardware_options(uid) for uid in dfg.nodes):
            if obs:
                obs.event("round", function=function, label=label,
                          restart=restart, round=round_index,
                          iterations=0, converged=False, proposals=0,
                          tet_best=None)
            return _RoundResult([], 0)
        return self._run_lockstep(
            dfg, state, rng, effective_batch(self.batch, len(dfg.nodes)),
            tag=tag, round_index=round_index)

    def _run_lockstep(self, dfg, state, rng, batch, tag=("", "", 0),
                      round_index=0):
        """The round loop: ``batch`` ants per trail update.

        Every batch draws against the same frozen trail/merit state via
        the lockstep :class:`~repro.core.batch.BatchedAntRunner`;
        afterwards one Fig. 4.3.5 trail update and one merit sweep are
        folded over the batch, driven by the batch's best schedule
        (iteration-best update).  At ``batch == 1`` this is the thesis's
        per-ant loop: one ant, then its trail and merit updates.  Each
        ant counts as one iteration in traces, budgets and
        observability events.
        """
        obs = self.obs
        function, label, restart = tag
        runner = BatchedAntRunner(dfg, state, self.machine,
                                  self.technology, self.constraints)
        tet_old = None
        prev_order = {}
        best_schedule = None
        best_key = None
        iterations = 0
        trace = []
        budget = self.params.max_iterations
        converged = False
        while iterations < budget and not converged:
            if obs:
                mark = perf_counter()
            schedules = runner.run(rng, min(batch, budget - iterations))
            if obs:
                mark = obs.lap("round.construct", mark)
            batch_best = None
            batch_key = None
            for schedule in schedules:
                iterations += 1
                trace.append(schedule.makespan)
                key = _schedule_key(schedule)
                if batch_key is None or key < batch_key:
                    batch_key = key
                    batch_best = schedule
                if best_key is None or key < best_key:
                    best_key = key
                    best_schedule = schedule
            tet_old = update_trails(state, batch_best, prev_order, tet_old)
            prev_order = dict(batch_best.order)
            if obs:
                mark = obs.lap("round.trail", mark)
            update_merits(dfg, state, batch_best, self.constraints)
            if obs:
                obs.lap("round.merit", mark)
            converged = state.converged()
            if obs:
                floor = state.convergence_floor()
                base = iterations - len(schedules)
                for index, schedule in enumerate(schedules):
                    obs.event("iteration", function=function, label=label,
                              restart=restart, round=round_index,
                              iteration=base + index,
                              tet=schedule.makespan,
                              min_sp=floor,
                              clusters=len(schedule.clusters))
                    obs.count("iter.cluster_opens",
                              schedule.stat_cluster_opens)
                    obs.count("iter.cluster_joins",
                              schedule.stat_cluster_joins)
                    obs.count("iter.join_rejects",
                              schedule.stat_join_rejects)
                    obs.count("sched.first_fit_scans",
                              schedule.table.stat_first_fit_scans)
                    obs.count("sched.scan_cycles",
                              schedule.table.stat_scan_cycles)
        proposals = self._collect_proposals(dfg, state, best_schedule)
        if obs and batch > 1:
            # The batch.* counters describe lockstep batching; a width-1
            # round is the per-ant loop and leaves them out.
            obs.count("batch.ants_batched", runner.stat_ants_batched)
            obs.count("batch.scalar_fallbacks",
                      runner.stat_scalar_fallbacks)
            obs.count("batch.rows_vectorized",
                      runner.stat_rows_vectorized)
        self._emit_round_obs(state, tag, round_index, iterations,
                             proposals, trace)
        return _RoundResult(proposals, iterations, trace)

    def _collect_proposals(self, dfg, state, best_schedule):
        """Candidates from the converged choice AND from the best
        iteration seen: the colony's converged state occasionally
        drifts off the best schedule it constructed, so both sources
        are proposed and the caller keeps whichever evaluates better.
        """
        obs = self.obs
        if obs:
            mark = perf_counter()
        proposals = []
        seen = set()
        for chosen_hw, option_of in self._candidate_sources(
                dfg, state, best_schedule):
            for members in legalize_components(dfg, chosen_hw,
                                               self.constraints):
                if members in seen:
                    continue
                seen.add(members)
                proposals.append(
                    (members, {uid: option_of[uid] for uid in members}))
        if obs:
            obs.lap("round.proposals", mark)
        return proposals

    def _emit_round_obs(self, state, tag, round_index, iterations,
                        proposals, trace):
        obs = self.obs
        if not obs:
            return
        function, label, restart = tag
        obs.event("round", function=function, label=label,
                  restart=restart, round=round_index,
                  iterations=iterations, converged=state.converged(),
                  proposals=len(proposals),
                  tet_best=min(trace) if trace else None)
        obs.count("explore.rounds")
        obs.count("explore.iterations", iterations)
        obs.count("state.weight_row_rebuilds",
                  state.stats["weight_rebuilds"])
        obs.count("state.convergence_refreshes",
                  state.stats["conv_refreshes"])
        memo = state.round_memo
        obs.count("grouping.memo_hits", getattr(memo, "hits", 0))
        obs.count("grouping.memo_misses", getattr(memo, "misses", 0))

    def _candidate_sources(self, dfg, state, best_schedule):
        sources = [(self._final_hardware_set(dfg, state, best_schedule),
                    self._final_options(dfg, state, best_schedule))]
        if best_schedule is not None:
            option_of = {}
            for uid in dfg.nodes:
                chosen = best_schedule.chosen.get(uid)
                if chosen is not None and chosen.is_hardware:
                    option_of[uid] = chosen
            if option_of:
                sources.append((set(option_of), option_of))
        return sources

    def _final_hardware_set(self, dfg, state, best_schedule):
        """Taken-hardware nodes: converged sp winners, falling back to
        the best iteration's realized choices."""
        if state.converged():
            chosen = set()
            for uid in dfg.nodes:
                option, __ = state.taken_option(uid)
                if option.is_hardware:
                    chosen.add(uid)
            return chosen
        if best_schedule is None:
            return set()
        return set(best_schedule.hardware_chosen_set())

    def _final_options(self, dfg, state, best_schedule):
        """Hardware option per node for candidate construction."""
        options = {}
        for uid in dfg.nodes:
            hw = state.hardware_options(uid)
            if not hw:
                continue
            if state.converged():
                option, __ = state.taken_option(uid)
                if not option.is_hardware:
                    option = max(hw, key=lambda o: state.sp_of(uid)[o.label])
            else:
                chosen = (best_schedule.chosen.get(uid)
                          if best_schedule is not None else None)
                option = chosen if (chosen is not None
                                    and chosen.is_hardware) else hw[0]
            options[uid] = option
        return options

class _RoundResult:
    __slots__ = ("candidates", "iterations", "trace")

    def __init__(self, candidates, iterations, trace=()):
        self.candidates = candidates
        self.iterations = iterations
        self.trace = list(trace)


def _schedule_key(schedule):
    """Preference key over iteration schedules: lower makespan first,
    total ISE area of the clustered options as the tie-break."""
    return (schedule.makespan,
            sum(opt.area
                for c in schedule.clusters
                for opt in c.option_of.values()))
