"""ISEGEN-style Kernighan-Lin cut growing (Biswas et al.).

Where the ACO engine *constructs* schedules and lets trails converge,
ISEGEN treats ISE identification as a min-cut partitioning problem and
improves a hardware/software cut by KL-style passes:

* a **pass** repeatedly toggles the single unlocked node (member out,
  or fringe neighbour in) whose move maximises a cheap structural
  quality function, locks it, and records the running quality;
* at pass end the move sequence is **reverted to its best prefix** —
  the KL trick that lets the search climb out of local optima by
  temporarily accepting worsening moves;
* passes repeat until one fails to improve on the incoming cut.

The quality function rewards collapsed dependence-chain length of each
connected component and penalises §4.2 violations (I/O-port excess,
non-convexity) instead of forbidding them — exactly ISEGEN's "steer,
don't clamp" approach; violations surviving the search are repaired by
the shared :func:`~repro.core.make_convex.legalize_components`
machinery before anything is scored for real.  Real scoring — which
candidate actually improves the block — goes through the shared
metered evaluator, so ISEGEN races ACO under identical budgets.

Restarts reseed the initial cut from the per-restart RNG stream
(``seed:restart:function:label``, the same derivation every engine
uses), keeping results reproducible serially and across the pool.
"""

import random

import networkx as nx

from ..errors import BudgetExhausted
from .greedy import _chain, _fringe
from ..graph.analysis import io_counts, is_convex
from ..core.candidate import ISECandidate
from ..core.make_convex import legalize_components
from .base import ExplorationResult, ExplorerEngine

#: KL passes per round before the search is declared converged.
MAX_PASSES = 4
#: Toggle moves per pass (locks run out before this on small blocks).
MAX_MOVES = 16


class IsegenEngine(ExplorerEngine):
    """KL-style toggle/lock/revert iterative improvement."""

    name = "isegen"
    description = ("ISEGEN-style Kernighan-Lin cut growing: "
                   "toggle-based iterative improvement with locking "
                   "and best-prefix reversion")

    def explore(self, dfg, io_tables=None, jobs=None):
        """Best of ``restarts`` independent KL searches on one block.

        Restarts run serially (each is cheap — the inner loop is pure
        graph arithmetic; only candidate scoring hits the evaluator),
        so an attached budget meters every charge regardless of
        ``jobs``.
        """
        if io_tables is None:
            io_tables = self._default_tables(dfg)
        results = []
        for restart in range(self.params.restarts):
            rng = random.Random("{}:{}:{}:{}".format(
                self.seed, restart, dfg.function, dfg.label))
            try:
                results.append(self._explore_once(dfg, rng, io_tables))
            except BudgetExhausted:
                break
        if not results:
            raise BudgetExhausted(
                "evaluation budget exhausted before block {}:{} "
                "could be explored".format(dfg.function, dfg.label))
        best = None
        for result in results:
            if best is None or self._better(result, best):
                best = result
        return best

    # -- one restart: round-wise KL search ---------------------------------

    def _explore_once(self, dfg, rng, io_tables):
        base = self._evaluate(dfg, [], io_tables)
        candidates = []
        best_cycles = base
        rounds = moves = 0
        dry = 0
        limit = self.constraints.max_ise_cycles
        try:
            while rounds < self.params.max_rounds and dry < 2:
                rounds += 1
                taken = set().union(*(c.members for c in candidates)) \
                    if candidates else set()
                eligible = sorted(uid for uid in dfg.groupable_nodes()
                                  if uid not in taken)
                if len(eligible) < 2:
                    break
                cut, cut_moves = self._kl_search(dfg, eligible, rng)
                moves += cut_moves
                scored = []
                for members in legalize_components(dfg, cut,
                                                   self.constraints):
                    candidate = ISECandidate(
                        dfg, members,
                        self._min_delay_options(dfg, members),
                        self.technology, source="ISEGEN")
                    if limit is not None and candidate.cycles > limit:
                        continue
                    cycles = self._evaluate(dfg, candidates + [candidate],
                                            io_tables)
                    scored.append((cycles, candidate.area, candidate))
                if not scored:
                    dry += 1
                    continue
                scored.sort(key=lambda item: (item[0], item[1],
                                              sorted(item[2].members)))
                cycles, __, winner = scored[0]
                if cycles >= best_cycles:
                    dry += 1
                    continue
                dry = 0
                winner.cycle_saving = best_cycles - cycles
                candidates.append(winner)
                best_cycles = cycles
        except BudgetExhausted:
            pass
        return ExplorationResult(dfg, candidates, base, best_cycles,
                                 rounds, moves, engine=self.name)

    # -- the KL inner loop -------------------------------------------------

    def _kl_search(self, dfg, eligible, rng):
        """Toggle/lock/revert passes; returns (best cut, moves used)."""
        eligible_set = set(eligible)
        current = {rng.choice(eligible)}
        quality = {}          # frozenset -> cached quality
        best_set = set(current)
        best_quality = self._quality(dfg, current, quality)
        moves_used = 0
        for __ in range(MAX_PASSES):
            locked = set()
            trail = []        # the pass's toggle sequence, in order
            working = set(current)
            pass_best = self._quality(dfg, working, quality)
            pass_best_len = 0
            for __ in range(MAX_MOVES):
                frontier = [uid for uid in
                            sorted(working | _fringe(dfg, working))
                            if uid in eligible_set and uid not in locked]
                if not frontier:
                    break
                move, move_quality = None, None
                for uid in frontier:
                    trial = working ^ {uid}
                    q = self._quality(dfg, trial, quality)
                    if move_quality is None or q > move_quality:
                        move, move_quality = uid, q
                working ^= {move}
                locked.add(move)
                trail.append(move)
                moves_used += 1
                if working and move_quality > pass_best:
                    pass_best = move_quality
                    pass_best_len = len(trail)
            # Best-prefix reversion: undo every toggle past the peak.
            for uid in trail[pass_best_len:]:
                working ^= {uid}
            if pass_best <= best_quality or working == current:
                break
            current = working
            best_quality = pass_best
            best_set = set(working)
        return best_set, moves_used

    def _quality(self, dfg, members, memo):
        """Cheap structural worth of a cut (memoised per round).

        Per connected component: collapsed-chain cycles saved, minus
        soft penalties for I/O-port excess and non-convexity (both
        repairable by legalisation, hence penalised rather than
        forbidden), minus a small drag per singleton so the search
        prefers compounding one region over scattering.
        """
        key = frozenset(members)
        cached = memo.get(key)
        if cached is not None:
            return cached
        score = 0.0
        if members:
            sub = dfg.graph.subgraph(members)
            for component in nx.weakly_connected_components(sub):
                component = set(component)
                if len(component) < 2:
                    score -= 0.05
                    continue
                gain = _chain(dfg, component) - 1.0
                n_in, n_out = io_counts(dfg, component)
                excess = max(0, n_in - self.constraints.n_in)
                excess += max(0, n_out - self.constraints.n_out)
                penalty = 0.75 * excess
                if not is_convex(dfg, component):
                    penalty += 1.0
                score += gain - penalty
        memo[key] = score
        return score
