"""Simulated-annealing ISE exploration as a pluggable engine.

§2.2 of the thesis argues for ant-colony optimisation over other
evolutionary models (simulated annealing, genetic) on mapping-ease
grounds.  This engine makes that an experiment: the same solution space
— one implementation option per operation, hardware components becoming
ISEs — searched by classic simulated annealing over option flips.

A state's hardware components are legalised exactly like the ACO
engine's round output and scored through the shared metered
:meth:`~repro.engines.base.ExplorerEngine._evaluate`.  Energy is
lexicographic: block cycles first, summed candidate area as a tiny
tie-break.  Under an :class:`~repro.engines.base.EvalBudget` the best
state seen so far is returned.
"""

import math
import random

from ..errors import BudgetExhausted
from ..core.candidate import ISECandidate
from ..core.make_convex import legalize_components
from .base import ExplorationResult, ExplorerEngine


class AnnealingEngine(ExplorerEngine):
    """Option-flip simulated annealing over one basic block.

    ``steps``, ``initial_temperature`` and ``cooling`` set the annealing
    schedule; every other keyword is the engine protocol's.
    """

    name = "annealing"
    description = ("simulated annealing over per-operation option flips "
                   "(§2.2's model-choice comparator)")

    def __init__(self, machine, params=None, *, steps=400,
                 initial_temperature=2.0, cooling=0.99, **kwargs):
        super().__init__(machine, params=params, **kwargs)
        self.steps = int(steps)
        self.initial_temperature = float(initial_temperature)
        self.cooling = float(cooling)

    def explore(self, dfg, io_tables=None, jobs=None):
        """Anneal over option flips; returns an ExplorationResult.

        ``jobs`` is accepted for protocol parity but ignored — one
        annealing chain is inherently serial.
        """
        if io_tables is None:
            io_tables = self._default_tables(dfg)
        rng = random.Random("{}:{}:{}".format(self.seed, dfg.function,
                                              dfg.label))
        flippable = [uid for uid in dfg.nodes
                     if len(tuple(io_tables[uid])) > 1]
        state = {uid: tuple(io_tables[uid])[0] for uid in dfg.nodes}
        base_cycles, __ = self._energy(dfg, state, io_tables)
        best_state = dict(state)
        best_energy = (base_cycles, 0.0)
        current_energy = best_energy
        temperature = self.initial_temperature
        iterations = 0
        try:
            for __ in range(self.steps):
                if not flippable:
                    break
                iterations += 1
                uid = rng.choice(flippable)
                options = tuple(io_tables[uid])
                new_option = rng.choice(
                    [o for o in options if o is not state[uid]])
                old_option = state[uid]
                state[uid] = new_option
                energy = self._energy(dfg, state, io_tables)
                delta = ((energy[0] - current_energy[0])
                         + (energy[1] - current_energy[1]) / 1e7)
                if delta <= 0 or rng.random() < math.exp(
                        -delta / max(temperature, 1e-9)):
                    current_energy = energy
                    if energy < best_energy:
                        best_energy = energy
                        best_state = dict(state)
                else:
                    state[uid] = old_option
                temperature *= self.cooling
        except BudgetExhausted:
            pass          # the best state seen so far stands
        return ExplorationResult(dfg, self._candidates(dfg, best_state),
                                 base_cycles, best_energy[0], rounds=1,
                                 iterations=iterations, engine=self.name)

    # -- internals -----------------------------------------------------------

    def _candidates(self, dfg, state):
        """The state's legalised hardware components as ISE candidates."""
        chosen = {uid for uid, option in state.items()
                  if option.is_hardware}
        return [ISECandidate(dfg, members,
                             {uid: state[uid] for uid in members},
                             self.technology, source="SA")
                for members in legalize_components(dfg, chosen,
                                                   self.constraints)]

    def _energy(self, dfg, state, io_tables):
        candidates = self._candidates(dfg, state)
        return (self._evaluate(dfg, candidates, io_tables),
                sum(c.area for c in candidates))
