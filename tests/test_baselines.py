"""Tests for the comparator engines: SI, greedy, exact oracle."""

import random

import networkx as nx
import pytest

from repro import engines
from repro.config import ExplorationParams, ISEConstraints
from repro.engines.aco import AcoEngine
from repro.engines.greedy import _chain
from repro.errors import ExplorationError
from repro.graph import check_candidate
from repro.graph.fuzz import random_dfg
from repro.sched import MachineConfig

from conftest import chain_dfg, diamond_dfg, memory_dfg


TINY = dict(max_iterations=60, restarts=1, max_rounds=4)


def _si(machine=None, **kwargs):
    return engines.create("si", machine or MachineConfig(2, "4/2"),
                          **kwargs)


class TestSingleIssue:
    def test_believes_single_issue(self):
        explorer = _si(MachineConfig(4, "10/5"))
        assert explorer.machine.issue_width == 1
        assert explorer.machine.register_file.spec == "10/5"
        assert set(explorer.machine.fu_counts.values()) == {1}

    def test_locality_disabled(self):
        explorer = _si(params=ExplorationParams(**TINY))
        assert not explorer.params.use_critical_path_boost
        assert not explorer.params.use_slack_window
        assert explorer.params.max_iterations == TINY["max_iterations"]

    def test_finds_legal_candidates(self):
        dfg = diamond_dfg()
        explorer = _si(params=ExplorationParams(**TINY), seed=2)
        result = explorer.explore(dfg)
        assert result.engine == "si"
        for candidate in result.candidates:
            assert candidate.source == "SI"
            check_candidate(dfg, candidate.members, explorer.constraints)

    def test_base_cycles_are_sequential(self):
        dfg = diamond_dfg()
        result = _si(params=ExplorationParams(**TINY)).explore(dfg)
        # On a 1-issue machine the baseline is one op per cycle.
        assert result.base_cycles == len(dfg)

    def test_constraints_clamped_to_register_file(self):
        explorer = _si(MachineConfig(4, "4/2"),
                       constraints=ISEConstraints(n_in=8, n_out=4))
        assert (explorer.constraints.n_in, explorer.constraints.n_out) \
            == (4, 2)

    def test_explore_many_tags_every_block(self):
        explorer = _si(params=ExplorationParams(**TINY), seed=2)
        results = explorer.explore_many([diamond_dfg(), chain_dfg(6)],
                                        jobs=1)
        sources = {c.source for r in results for c in r.candidates}
        assert sources == {"SI"}


class TestGreedy:
    def test_compresses_chain(self):
        dfg = chain_dfg(6)
        explorer = engines.create("greedy", MachineConfig(2, "4/2"))
        result = explorer.explore(dfg)
        assert result.final_cycles < result.base_cycles
        assert all(c.source == "GREEDY" for c in result.candidates)

    def test_deterministic(self):
        dfg = diamond_dfg()
        a = engines.create("greedy", MachineConfig(2, "4/2")).explore(dfg)
        b = engines.create("greedy", MachineConfig(2, "4/2")).explore(dfg)
        assert [c.members for c in a.candidates] == \
            [c.members for c in b.candidates]

    def test_candidates_legal(self):
        dfg = diamond_dfg()
        explorer = engines.create("greedy", MachineConfig(2, "4/2"))
        result = explorer.explore(dfg)
        for candidate in result.candidates:
            check_candidate(dfg, candidate.members, explorer.constraints)

    def test_respects_memory_rule(self):
        dfg = memory_dfg()
        result = engines.create("greedy",
                                MachineConfig(2, "4/2")).explore(dfg)
        for candidate in result.candidates:
            assert all(not dfg.op(uid).is_memory
                       for uid in candidate.members)

    def test_max_size_cap(self):
        dfg = chain_dfg(8)
        explorer = engines.create("greedy", MachineConfig(2, "4/2"))
        explorer.max_size = 3
        result = explorer.explore(dfg)
        assert result.candidates
        assert all(c.size <= 3 for c in result.candidates)

    def test_chain_matches_topological_reference(self):
        def reference(dfg, members):
            longest = {}
            for uid in nx.topological_sort(dfg.graph.subgraph(members)):
                longest[uid] = 1 + max(
                    (longest[p] for p in dfg.predecessors(uid)
                     if p in members), default=0)
            return max(longest.values(), default=0)

        rng = random.Random(5)
        for seed in range(20):
            dfg = random_dfg(seed, n_nodes=rng.choice([8, 24, 48]))
            nodes = list(dfg.nodes)
            for __ in range(20):
                members = set(rng.sample(nodes,
                                         rng.randint(0, len(nodes))))
                assert _chain(dfg, members) == reference(dfg, members)


class TestExact:
    def test_size_guard(self):
        dfg = chain_dfg(8)
        explorer = engines.create("exact", MachineConfig(2, "4/2"),
                                  max_nodes=4)
        with pytest.raises(ExplorationError):
            explorer.explore(dfg)

    def test_optimal_on_chain(self):
        dfg = chain_dfg(5)
        exact = engines.create("exact", MachineConfig(2, "4/2")).explore(dfg)
        assert exact.final_cycles < exact.base_cycles
        for candidate in exact.candidates:
            assert candidate.source == "EXACT"

    def test_dominates_greedy(self):
        for dfg in (chain_dfg(5), diamond_dfg()):
            machine = MachineConfig(2, "4/2")
            exact = engines.create("exact", machine).explore(dfg)
            greedy = engines.create("greedy", machine).explore(dfg)
            assert exact.final_cycles <= greedy.final_cycles

    def test_aco_close_to_exact(self):
        dfg = diamond_dfg()
        machine = MachineConfig(2, "4/2")
        exact = engines.create("exact", machine).explore(dfg)
        aco = AcoEngine(
            machine, params=ExplorationParams(
                max_iterations=150, restarts=3, max_rounds=4),
            seed=4).explore(dfg)
        # The heuristic may trail the oracle by at most one cycle on
        # this 9-node example.
        assert aco.final_cycles <= exact.final_cycles + 1
