"""Greedy cone growth as a pluggable engine (Clark-style [6]).

The classic deterministic baseline behind the
:class:`~repro.engines.base.ExplorerEngine` protocol: grow a candidate
cone from every groupable seed by absorbing the legal neighbour that
maximises collapsed-chain gain, keep the cone whose fixing improves the
block's metered list schedule the most, repeat round-wise until nothing
helps.  Fully deterministic — ``seed`` and ``restarts`` change nothing
— which makes it the cheapest yard-stick in engine tournaments and the
``GREEDY`` column of the chapter-5 tables: any stochastic engine
burning a real evaluation budget should beat it.

:func:`_fringe` and :func:`_chain` are shared with the ISEGEN and
genetic engines.
"""

from ..errors import BudgetExhausted
from ..graph.analysis import is_legal
from ..graph.bitset import bitset_view
from ..core.candidate import ISECandidate
from .base import ExplorationResult, ExplorerEngine


def _fringe(dfg, members):
    """Operations adjacent to ``members`` but not in it."""
    fringe = set()
    for uid in members:
        fringe.update(dfg.predecessors(uid))
        fringe.update(dfg.successors(uid))
    return fringe - set(members)


def _chain(dfg, members):
    """Longest dependence chain inside ``members``, in operations.

    One pass in the DFG's topological rank (a recursive closure would
    refer to itself and wait for the cyclic collector)."""
    longest = {}
    for uid in sorted(members, key=dfg.tables().rank.__getitem__):
        longest[uid] = 1 + max((longest[pred]
                                for pred in dfg.predecessors(uid)
                                if pred in members), default=0)
    return max(longest.values(), default=0)


class GreedyEngine(ExplorerEngine):
    """Deterministic greedy cone growth (single-pass baseline)."""

    name = "greedy"
    description = ("deterministic greedy cone growth around each seed "
                   "node (the classic single-pass baseline)")

    #: Cone size ceiling.
    max_size = 8

    def explore(self, dfg, io_tables=None, jobs=None):
        """Round-wise greedy cone growth; returns an ExplorationResult.

        ``jobs`` is accepted for protocol parity but ignored — the
        search is a single deterministic pass, there is nothing to fan
        out inside one block.
        """
        if io_tables is None:
            io_tables = self._default_tables(dfg)
        base = self._evaluate(dfg, [], io_tables)
        candidates = []
        best_cycles = base
        rounds = 0
        try:
            while rounds < self.params.max_rounds:
                rounds += 1
                taken = set().union(*(c.members for c in candidates)) \
                    if candidates else set()
                proposal = self._best_candidate(dfg, taken)
                if proposal is None:
                    break
                cycles = self._evaluate(dfg, candidates + [proposal],
                                        io_tables)
                if cycles >= best_cycles:
                    break
                proposal.cycle_saving = best_cycles - cycles
                candidates.append(proposal)
                best_cycles = cycles
        except BudgetExhausted:
            # Budget died mid-round; everything fixed so far stands.
            pass
        return ExplorationResult(dfg, candidates, base, best_cycles,
                                 rounds, rounds, engine=self.name)

    # -- internals ---------------------------------------------------------

    def _best_candidate(self, dfg, taken):
        """Best cone over all untaken seeds by the static score."""
        limit = self.constraints.max_ise_cycles
        best = None
        best_score = 0.0
        for seed in dfg.groupable_nodes():
            if seed in taken:
                continue
            members = self._grow(dfg, seed, taken)
            if len(members) < 2:
                continue
            candidate = ISECandidate(
                dfg, members, self._min_delay_options(dfg, members),
                self.technology, source="GREEDY")
            if limit is not None and candidate.cycles > limit:
                continue          # pipestage timing constraint
            score = self._score(dfg, members, candidate)
            if score > best_score:
                best, best_score = candidate, score
        return best

    def _grow(self, dfg, seed, taken):
        """Absorb legal fringe neighbours by collapsed-chain gain.

        The per-step legality filter over the grow frontier runs as one
        batched bitset call; candidates are kept in fringe iteration
        order, so the strict ``>`` tie-break picks the first of equal
        gains.
        """
        members = {seed}
        view = bitset_view(dfg)
        while len(members) < self.max_size:
            nodes = [node for node in _fringe(dfg, members)
                     if node not in taken and dfg.op(node).groupable]
            trials = [members | {node} for node in nodes]
            legal = view.legal_rows(view.pack_rows(trials),
                                    self.constraints)
            nodes = [node for node, ok in zip(nodes, legal) if ok]
            best_next, best_gain = None, 0.0
            for node in nodes:
                trial = members | {node}
                gain = (_chain(dfg, trial) - _chain(dfg, members))
                # Prefer chain-lengthening absorptions; allow width-only
                # growth at low priority.
                gain = gain + 0.1
                if gain > best_gain:
                    best_next, best_gain = node, gain
            if best_next is None:
                break
            members.add(best_next)
        if not is_legal(dfg, members, self.constraints):
            return {seed}
        return members

    def _score(self, dfg, members, candidate):
        """Static ranking: collapsed cycles saved, tiny area tie-break."""
        saving = _chain(dfg, members) - candidate.cycles
        if saving <= 0:
            return 0.0
        return saving + 1.0 / (1.0 + candidate.area)
