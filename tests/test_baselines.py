"""Tests for the comparator algorithms: SI, greedy, exact oracle."""

import pytest

from repro.baselines import (
    ExactExplorer,
    GreedyExplorer,
    SingleIssueExplorer,
)
from repro.config import ExplorationParams, ISEConstraints
from repro.engines.aco import AcoEngine
from repro.errors import ExplorationError
from repro.graph import check_candidate
from repro.sched import MachineConfig

from conftest import chain_dfg, diamond_dfg, memory_dfg


TINY = dict(max_iterations=60, restarts=1, max_rounds=4)


class TestSingleIssue:
    def test_believes_single_issue(self):
        explorer = SingleIssueExplorer(MachineConfig(4, "10/5"))
        assert explorer.machine.issue_width == 1
        assert explorer.machine.register_file.spec == "10/5"

    def test_locality_disabled(self):
        explorer = SingleIssueExplorer(
            MachineConfig(2, "4/2"), params=ExplorationParams(**TINY))
        params = explorer._inner.params
        assert not params.use_critical_path_boost
        assert not params.use_slack_window

    def test_finds_legal_candidates(self):
        dfg = diamond_dfg()
        explorer = SingleIssueExplorer(
            MachineConfig(2, "4/2"), params=ExplorationParams(**TINY),
            seed=2)
        result = explorer.explore(dfg)
        for candidate in result.candidates:
            assert candidate.source == "SI"
            check_candidate(dfg, candidate.members, explorer.constraints)

    def test_base_cycles_are_sequential(self):
        dfg = diamond_dfg()
        explorer = SingleIssueExplorer(
            MachineConfig(2, "4/2"), params=ExplorationParams(**TINY))
        result = explorer.explore(dfg)
        # On a 1-issue machine the baseline is one op per cycle.
        assert result.base_cycles == len(dfg)


class TestGreedy:
    def test_compresses_chain(self):
        dfg = chain_dfg(6)
        explorer = GreedyExplorer(MachineConfig(2, "4/2"))
        result = explorer.explore(dfg)
        assert result.final_cycles < result.base_cycles
        assert all(c.source == "GREEDY" for c in result.candidates)

    def test_deterministic(self):
        dfg = diamond_dfg()
        a = GreedyExplorer(MachineConfig(2, "4/2")).explore(dfg)
        b = GreedyExplorer(MachineConfig(2, "4/2")).explore(dfg)
        assert [c.members for c in a.candidates] == \
            [c.members for c in b.candidates]

    def test_candidates_legal(self):
        dfg = diamond_dfg()
        explorer = GreedyExplorer(MachineConfig(2, "4/2"))
        result = explorer.explore(dfg)
        for candidate in result.candidates:
            check_candidate(dfg, candidate.members, explorer.constraints)

    def test_respects_memory_rule(self):
        dfg = memory_dfg()
        result = GreedyExplorer(MachineConfig(2, "4/2")).explore(dfg)
        for candidate in result.candidates:
            assert all(not dfg.op(uid).is_memory
                       for uid in candidate.members)

    def test_max_size_cap(self):
        dfg = chain_dfg(8)
        explorer = GreedyExplorer(MachineConfig(2, "4/2"), max_size=3)
        result = explorer.explore(dfg)
        assert all(c.size <= 3 for c in result.candidates)


class TestExact:
    def test_size_guard(self):
        dfg = chain_dfg(8)
        explorer = ExactExplorer(MachineConfig(2, "4/2"), max_nodes=4)
        with pytest.raises(ExplorationError):
            explorer.explore(dfg)

    def test_optimal_on_chain(self):
        dfg = chain_dfg(5)
        exact = ExactExplorer(MachineConfig(2, "4/2")).explore(dfg)
        assert exact.final_cycles < exact.base_cycles
        for candidate in exact.candidates:
            assert candidate.source == "EXACT"

    def test_dominates_greedy(self):
        for dfg in (chain_dfg(5), diamond_dfg()):
            machine = MachineConfig(2, "4/2")
            exact = ExactExplorer(machine).explore(dfg)
            greedy = GreedyExplorer(machine).explore(dfg)
            assert exact.final_cycles <= greedy.final_cycles

    def test_aco_close_to_exact(self):
        dfg = diamond_dfg()
        machine = MachineConfig(2, "4/2")
        exact = ExactExplorer(machine).explore(dfg)
        aco = AcoEngine(
            machine, params=ExplorationParams(
                max_iterations=150, restarts=3, max_rounds=4),
            seed=4).explore(dfg)
        # The heuristic may trail the oracle by at most one cycle on
        # this 9-node example.
        assert aco.final_cycles <= exact.final_cycles + 1
