"""Generational genetic search over hardware-node subsets.

The generic black-box contender of the engine tournament: a population
of membership sets (over the block's groupable, not-yet-taken nodes)
evolves by tournament selection, uniform crossover and point mutation.
Every individual is repaired through the shared
:func:`~repro.core.make_convex.legalize_components` machinery and its
best legal piece is scored with the metered evaluator — fitness *is*
real schedule improvement, so the GA pays for its population size in
budget charges like every other engine (the evalcache keeps re-scored
genotypes free).

Rounds work like the other engines': the fittest candidate of a run is
fixed, its nodes leave the gene pool, and the GA re-runs on the
remainder until a round stops improving the block.  All randomness
derives from the per-restart RNG stream
(``seed:restart:function:label``), the engine-wide determinism
contract.
"""

import random

from ..errors import BudgetExhausted
from .greedy import _fringe
from ..graph.bitset import bitset_view
from ..core.candidate import ISECandidate
from ..core.make_convex import legalize_components
from .base import ExplorationResult, ExplorerEngine

#: Individuals per generation.
POPULATION = 10
#: Membership ceiling (oversized genotypes are trimmed at random).
MAX_GENES = 12


class GeneticEngine(ExplorerEngine):
    """Generational GA over node subsets (tournament + crossover)."""

    name = "genetic"
    description = ("generational genetic search over hardware-node "
                   "subsets (tournament selection, uniform crossover)")

    def explore(self, dfg, io_tables=None, jobs=None):
        """Best of ``restarts`` independent GA runs on one block."""
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

    # -- one restart: round-wise evolution ---------------------------------

    def _explore_once(self, dfg, rng, io_tables):
        base = self._evaluate(dfg, [], io_tables)
        candidates = []
        best_cycles = base
        rounds = generations = 0
        dry = 0
        try:
            while rounds < self.params.max_rounds and dry < 2:
                rounds += 1
                taken = set().union(*(c.members for c in candidates)) \
                    if candidates else set()
                eligible = sorted(uid for uid in dfg.groupable_nodes()
                                  if uid not in taken)
                if len(eligible) < 2:
                    break
                winner, ran = self._evolve(dfg, eligible, candidates,
                                           best_cycles, rng, io_tables)
                generations += ran
                if winner is None:
                    dry += 1
                    continue
                cycles, candidate = winner
                if cycles >= best_cycles:
                    dry += 1
                    continue
                dry = 0
                candidate.cycle_saving = best_cycles - cycles
                candidates.append(candidate)
                best_cycles = cycles
        except BudgetExhausted:
            pass
        return ExplorationResult(dfg, candidates, base, best_cycles,
                                 rounds, generations, engine=self.name)

    # -- the GA ------------------------------------------------------------

    def _evolve(self, dfg, eligible, fixed, best_cycles, rng, io_tables):
        """One GA run; returns ((cycles, candidate) or None, generations).

        The generation count scales with ``params.max_iterations`` so
        the effort knob every engine shares means the same thing here.
        """
        generations = max(1, min(5, self.params.max_iterations // 3))
        memo = {}
        population = [self._seed_individual(dfg, eligible, rng)
                      for __ in range(POPULATION)]
        whole = self._screen(dfg, population, memo)
        scored = [(self._fitness(dfg, one, fixed, best_cycles, memo,
                                 io_tables, whole=whole.get(one, False)),
                   one)
                  for one in population]
        for __ in range(generations):
            scored.sort(key=_rank)
            elite = [one for __, one in scored[:2]]
            children = list(elite)
            while len(children) < POPULATION:
                mother = self._select(scored, rng)
                father = self._select(scored, rng)
                child = self._crossover(mother, father, eligible, rng)
                child = self._mutate(child, eligible, rng)
                if not child:
                    child = self._seed_individual(dfg, eligible, rng)
                children.append(child)
            whole = self._screen(dfg, children, memo)
            scored = [(self._fitness(dfg, one, fixed, best_cycles, memo,
                                     io_tables, whole=whole.get(one, False)),
                       one)
                      for one in children]
        scored.sort(key=_rank)
        fitness, __ = scored[0]
        if fitness is None:
            return None, generations
        __, cycles, candidate = fitness
        return (cycles, candidate), generations

    def _seed_individual(self, dfg, eligible, rng):
        """A random connected cone: seed plus random fringe absorption."""
        eligible_set = set(eligible)
        members = {rng.choice(eligible)}
        target = rng.randint(2, min(8, len(eligible)))
        while len(members) < target:
            frontier = sorted(_fringe(dfg, members) & eligible_set)
            if not frontier:
                break
            members.add(rng.choice(frontier))
        return frozenset(members)

    def _screen(self, dfg, population, memo):
        """Genotype -> True when it is already one legal connected
        multi-op piece, decided for the whole generation in one batched
        bitset call.

        A True verdict means :func:`legalize_components` would hand the
        genotype back unchanged (one connected component, convex,
        port-legal, >=2 nodes), so :meth:`_fitness` can skip the repair
        walk entirely.  Genotypes already memoised need no verdict, and
        everything else takes the full repair path.
        """
        fresh = []
        seen = set()
        for one in population:
            if len(one) >= 2 and one not in memo and one not in seen:
                seen.add(one)
                fresh.append(one)
        if not fresh:
            return {}
        view = bitset_view(dfg)
        legal = view.legal_rows(view.pack_rows(fresh), self.constraints)
        return {one: bool(ok) and view.is_connected(one)
                for one, ok in zip(fresh, legal)}

    def _fitness(self, dfg, members, fixed, best_cycles, memo, io_tables,
                 whole=False):
        """(saving, -area, candidate) of the best legal piece, or None.

        Memoised on the genotype so clones and elites re-score free
        even before the evalcache is consulted.  ``whole=True`` (from
        :meth:`_screen`) certifies the genotype is its own single legal
        piece, skipping the legalisation walk.
        """
        if members in memo:
            return memo[members]
        limit = self.constraints.max_ise_cycles
        best = None
        pieces = ([frozenset(members)] if whole
                  else legalize_components(dfg, members, self.constraints))
        for piece in pieces:
            candidate = ISECandidate(
                dfg, piece, self._min_delay_options(dfg, piece),
                self.technology, source="GA")
            if limit is not None and candidate.cycles > limit:
                continue
            cycles = self._evaluate(dfg, fixed + [candidate], io_tables)
            entry = (best_cycles - cycles, cycles, candidate)
            if best is None or _rank((entry, None)) < _rank((best, None)):
                best = entry
        memo[members] = best
        return best

    @staticmethod
    def _select(scored, rng):
        """Binary tournament: two uniform draws, the fitter wins."""
        a = scored[rng.randrange(len(scored))]
        b = scored[rng.randrange(len(scored))]
        return min([a, b], key=_rank)[1]

    @staticmethod
    def _crossover(mother, father, eligible, rng):
        """Uniform crossover: shared genes kept, disputed ones coin-flipped."""
        child = set(mother & father)
        for uid in sorted(mother ^ father):
            if rng.random() < 0.5:
                child.add(uid)
        while len(child) > MAX_GENES:
            child.discard(rng.choice(sorted(child)))
        return frozenset(child)

    @staticmethod
    def _mutate(members, eligible, rng):
        """Point mutation: each eligible gene flips with rate 1/|pool|."""
        rate = 1.0 / max(4, len(eligible))
        flipped = set(members)
        for uid in eligible:
            if rng.random() < rate:
                flipped ^= {uid}
        while len(flipped) > MAX_GENES:
            flipped.discard(rng.choice(sorted(flipped)))
        return frozenset(flipped)


def _rank(scored_entry):
    """Sort key over (fitness, individual): fitter first, None last.

    Fitness is ``(saving, cycles, candidate)``; higher saving then
    lower cycles then smaller area wins, with the member set as the
    deterministic tie-break.
    """
    fitness = scored_entry[0]
    if fitness is None:
        return (1, 0, 0, 0, ())
    saving, cycles, candidate = fitness
    return (0, -saving, cycles, candidate.area, sorted(candidate.members))
