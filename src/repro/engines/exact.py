"""Exhaustive ISE exploration for small DFGs (Pozzi-style oracle [4]).

Enumerates every connected, legal (convex, port-bounded, memory-free)
subset of groupable operations, realises each with the fastest hardware
options, and — round-wise, like the other engines — fixes the subset
whose contraction minimises the block's metered list schedule.  Worst
case exponential, so blocks with more than ``max_nodes`` groupable
operations are refused with :class:`~repro.errors.ExplorationError`;
below the cap it is the optimality referee the heuristics are measured
against.  Under an :class:`~repro.engines.base.EvalBudget` the subsets
fixed in completed rounds stand.
"""

from itertools import combinations

from ..errors import BudgetExhausted, ExplorationError
from ..graph.analysis import is_legal
from ..core.candidate import ISECandidate
from .base import ExplorationResult, ExplorerEngine

#: Refuse DFGs with more groupable operations than this (2^N subsets).
MAX_EXACT_NODES = 16
#: Rounds (fixed ISEs) per block at most.
MAX_EXACT_ROUNDS = 8


class ExactEngine(ExplorerEngine):
    """Optimal (per-round) explorer for tiny DFGs.

    ``max_nodes`` lowers or raises the groupable-node cap; every other
    keyword is the engine protocol's.
    """

    name = "exact"
    description = ("exhaustive per-round optimum over legal connected "
                   "subsets (blocks of at most {} groupable nodes)"
                   .format(MAX_EXACT_NODES))

    def __init__(self, machine, params=None, *, max_nodes=MAX_EXACT_NODES,
                 **kwargs):
        super().__init__(machine, params=params, **kwargs)
        self.max_nodes = max_nodes

    def explore(self, dfg, io_tables=None, jobs=None):
        """Exhaustive per-round optimum; returns an ExplorationResult.

        ``jobs`` is accepted for protocol parity but ignored.
        """
        groupable = dfg.groupable_nodes()
        if len(groupable) > self.max_nodes:
            raise ExplorationError(
                "exact exploration limited to {} groupable nodes, got {}"
                .format(self.max_nodes, len(groupable)))
        if io_tables is None:
            io_tables = self._default_tables(dfg)
        base = self._evaluate(dfg, [], io_tables)
        candidates = []
        best_cycles = base
        rounds = 0
        try:
            while rounds < min(MAX_EXACT_ROUNDS, self.params.max_rounds):
                rounds += 1
                taken = set().union(*(c.members for c in candidates))
                best = None
                for members in self._legal_subsets(dfg, taken):
                    candidate = ISECandidate(
                        dfg, members, self._min_delay_options(dfg, members),
                        self.technology, source="EXACT")
                    cycles = self._evaluate(dfg, candidates + [candidate],
                                            io_tables)
                    key = (cycles, candidate.area)
                    if best is None or key < best[0]:
                        best = (key, candidate)
                if best is None or best[0][0] >= best_cycles:
                    break
                candidate = best[1]
                candidate.cycle_saving = best_cycles - best[0][0]
                candidates.append(candidate)
                best_cycles = best[0][0]
        except BudgetExhausted:
            pass          # everything fixed in completed rounds stands
        return ExplorationResult(dfg, candidates, base, best_cycles,
                                 rounds, rounds, engine=self.name)

    def _legal_subsets(self, dfg, taken):
        pool = [uid for uid in dfg.groupable_nodes() if uid not in taken]
        for size in range(2, len(pool) + 1):
            for subset in combinations(pool, size):
                members = set(subset)
                if _connected(dfg, members) and \
                        is_legal(dfg, members, self.constraints):
                    yield members


def _connected(dfg, members):
    """True when ``members`` is weakly connected in ``dfg``."""
    seen = {next(iter(members))}
    frontier = list(seen)
    while frontier:
        for other in dfg.neighbours(frontier.pop()):
            if other in members and other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen == members
