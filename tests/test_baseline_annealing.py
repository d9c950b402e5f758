"""Tests for the simulated-annealing comparator engine."""

from repro import engines
from repro.graph import check_candidate
from repro.sched import MachineConfig

from conftest import chain_dfg, diamond_dfg, memory_dfg


def make_explorer(seed=3, steps=300, **kwargs):
    return engines.create("annealing", MachineConfig(2, "4/2"), seed=seed,
                          steps=steps, **kwargs)


class TestAnnealing:
    def test_improves_chain(self):
        result = make_explorer().explore(chain_dfg(8))
        assert result.final_cycles < result.base_cycles
        assert result.candidates
        assert result.engine == "annealing"

    def test_candidates_legal(self):
        dfg = diamond_dfg()
        explorer = make_explorer()
        result = explorer.explore(dfg)
        for candidate in result.candidates:
            assert candidate.source == "SA"
            check_candidate(dfg, candidate.members, explorer.constraints)

    def test_memory_never_grouped(self):
        dfg = memory_dfg()
        result = make_explorer().explore(dfg)
        for candidate in result.candidates:
            assert all(not dfg.op(uid).is_memory
                       for uid in candidate.members)

    def test_deterministic_under_seed(self):
        dfg = diamond_dfg()
        a = make_explorer(seed=9).explore(dfg)
        b = make_explorer(seed=9).explore(dfg)
        assert a.final_cycles == b.final_cycles
        assert [c.members for c in a.candidates] == \
            [c.members for c in b.candidates]

    def test_zero_steps_is_all_software(self):
        result = make_explorer(steps=0).explore(chain_dfg(5))
        assert result.final_cycles == result.base_cycles
        assert result.candidates == []

    def test_more_steps_never_worse(self):
        dfg = diamond_dfg()
        short = make_explorer(seed=4, steps=50).explore(dfg)
        long = make_explorer(seed=4, steps=600).explore(dfg)
        assert long.final_cycles <= short.final_cycles

    def test_iterations_reported(self):
        result = make_explorer(steps=120).explore(chain_dfg(4))
        assert 0 < result.iterations <= 120
