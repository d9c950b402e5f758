"""Engine tournaments: race registered engines under equal budgets.

The fairness contract comes from the engine protocol: every engine
scores candidates through the shared metered
:meth:`~repro.engines.base.ExplorerEngine._evaluate`, so giving each
contestant the same :class:`~repro.engines.base.EvalBudget` per block
equalises the one expensive operation (contraction + list scheduling)
regardless of search style.  Cache hits are free — a search that
revisits known ground pays nothing, which rewards cache-friendly
exploration without letting anyone buy extra *new* evaluations.

:func:`run_tournament` races the engines block-by-block and returns a
:class:`TournamentResult` of per-engine :class:`EngineRow` entries
(best cycles, evaluations used, wall time, cache hit rate);
:func:`render_tournament` pretty-prints the standings and
:func:`tournament_record` flattens them for JSON persistence — the
``BENCH_tourney.json`` artefact of ``benchmarks/test_bench_tourney.py``.

Every block is scored on the race machine by one unmetered probe
engine: its baseline is the probe's no-ISE evaluation and an engine's
final is the probe's evaluation of the candidates the engine returned.
Engines that explore on their own view of the machine (``si`` believes
in a 1-issue pipeline) are therefore ranked by what their ISEs buy on
the machine actually raced, not by the cycles they believe in.

A block where an engine's budget dies before even the baseline
evaluation is scored at the block's baseline and counted in
``exhausted_blocks``; a block the engine refuses with
:class:`~repro.errors.ExplorationError` (``exact`` above its node cap)
is scored the same way and counted in ``declined_blocks``.  Either way
the engine found nothing there, but the race goes on.
"""

import time
from dataclasses import dataclass, field

from .. import engines
from ..engines import EvalBudget
from ..errors import BudgetExhausted, ExplorationError


@dataclass(frozen=True)
class EngineRow:
    """One engine's standing after a tournament."""

    engine: str
    description: str
    base_cycles: int          # summed no-ISE baselines of all blocks
    best_cycles: int          # summed final cycles achieved
    candidates: int           # ISEs fixed across all blocks
    evaluations: int          # uncached evaluations charged
    budget: int               # per-block EvalBudget limit
    wall_s: float
    cache_hit_rate: float
    exhausted_blocks: int     # blocks the budget died on pre-baseline
    declined_blocks: int      # blocks the engine refused to explore
    blocks: tuple = field(default=(), repr=False)   # per-block detail

    @property
    def saving(self):
        """Total block cycles saved versus the baselines."""
        return self.base_cycles - self.best_cycles


@dataclass(frozen=True)
class TournamentResult:
    """Full tournament outcome: rows plus the common race conditions."""

    rows: tuple               # EngineRow, best saving first
    budget: int               # per-block evaluation budget
    num_blocks: int

    @property
    def winner(self):
        """The row with the greatest total saving."""
        return self.rows[0]


def run_tournament(dfgs, machine, *, budget, names=None, params=None,
                   constraints=None, technology=None, seed=0, batch=None,
                   obs=None):
    """Race engines over ``dfgs`` under a per-block evaluation budget.

    ``names`` defaults to every registered engine.  Each contestant is
    instantiated once (its evalcache persists across blocks, exactly as
    in real use) and receives a fresh ``EvalBudget(budget)`` per block;
    blocks run serially so the process-local meter sees every charge.
    Returns a :class:`TournamentResult` with rows ordered best first
    (greatest saving, then fewest evaluations, then name).
    """
    dfgs = list(dfgs)
    names = list(names) if names is not None else list(engines.available())
    kwargs = dict(params=params, constraints=constraints,
                  technology=technology, seed=seed, batch=batch, obs=obs)
    probe = engines.create("aco", machine, **kwargs)
    tables = [probe._default_tables(dfg) for dfg in dfgs]
    baselines = [probe._evaluate(dfg, [], table)
                 for dfg, table in zip(dfgs, tables)]
    rows = []
    for name in names:
        engine = engines.create(name, machine, **kwargs)
        found = []            # per block: the candidates, or None
        exhausted = declined = 0
        spent = 0
        start = time.perf_counter()
        for dfg in dfgs:
            engine.budget = EvalBudget(budget)
            try:
                found.append(engine.explore(dfg, jobs=1).candidates)
            except BudgetExhausted:
                found.append(None)
                exhausted += 1
            except ExplorationError:
                found.append(None)
                declined += 1
            spent += engine.budget.spent
        wall = time.perf_counter() - start
        finals = [base if candidates is None
                  else probe._evaluate(dfg, candidates, table)
                  for dfg, table, base, candidates
                  in zip(dfgs, tables, baselines, found)]
        detail = [(dfg.function, dfg.label, base, final)
                  for dfg, base, final in zip(dfgs, baselines, finals)]
        stats = engine.stats()
        rows.append(EngineRow(
            engine=name, description=engines.describe(name),
            base_cycles=sum(baselines), best_cycles=sum(finals),
            candidates=sum(len(c) for c in found if c is not None),
            evaluations=spent, budget=budget,
            wall_s=wall, cache_hit_rate=stats.cache_hit_rate,
            exhausted_blocks=exhausted, declined_blocks=declined,
            blocks=tuple(detail)))
    rows.sort(key=lambda row: (-row.saving, row.evaluations, row.engine))
    return TournamentResult(rows=tuple(rows), budget=budget,
                            num_blocks=len(dfgs))


def render_tournament(result):
    """Fixed-width standings table of a :class:`TournamentResult`."""
    lines = ["engine tournament: {} block(s), budget {} eval(s)/block"
             .format(result.num_blocks, result.budget)]
    header = ("{:10s} {:>6s} {:>6s} {:>7s} {:>5s} {:>6s} {:>8s} "
              "{:>9s} {:>5s} {:>8s}").format(
                  "engine", "base", "best", "saving", "ises", "evals",
                  "wall_s", "hit_rate", "dry", "declined")
    lines.append(header)
    lines.append("-" * len(header))
    for row in result.rows:
        lines.append(
            "{:10s} {:>6d} {:>6d} {:>7d} {:>5d} {:>6d} {:>8.3f} "
            "{:>9.3f} {:>5d} {:>8d}".format(
                row.engine, row.base_cycles, row.best_cycles, row.saving,
                row.candidates, row.evaluations, row.wall_s,
                row.cache_hit_rate, row.exhausted_blocks,
                row.declined_blocks))
    return "\n".join(lines)


def tournament_record(result):
    """JSON-serialisable dict of a :class:`TournamentResult`."""
    return {
        "budget_per_block": result.budget,
        "blocks": result.num_blocks,
        "engines": [
            {
                "engine": row.engine,
                "base_cycles": row.base_cycles,
                "best_cycles": row.best_cycles,
                "saving": row.saving,
                "candidates": row.candidates,
                "evaluations": row.evaluations,
                "wall_s": round(row.wall_s, 3),
                "cache_hit_rate": round(row.cache_hit_rate, 3),
                "exhausted_blocks": row.exhausted_blocks,
                "declined_blocks": row.declined_blocks,
                "per_block": [
                    {"block": "{}:{}".format(function, label),
                     "base": base, "final": final}
                    for function, label, base, final in row.blocks
                ],
            }
            for row in result.rows
        ],
    }
