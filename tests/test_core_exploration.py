"""Tests for the multi-issue ACO exploration driver."""

import pytest

from repro.config import ExplorationParams, ISEConstraints
from repro.engines.aco import AcoEngine
from repro.errors import ConfigError
from repro.graph import check_candidate
from repro.sched import MachineConfig

from conftest import chain_dfg, diamond_dfg, memory_dfg, wide_dfg


def make_explorer(machine=None, seed=1, **param_overrides):
    machine = machine or MachineConfig(2, "4/2")
    defaults = dict(max_iterations=60, restarts=1, max_rounds=4)
    defaults.update(param_overrides)
    params = ExplorationParams(**defaults)
    return AcoEngine(machine, params=params, seed=seed)


class TestExploration:
    def test_chain_gets_compressed(self):
        dfg = chain_dfg(6)
        result = make_explorer().explore(dfg)
        assert result.final_cycles < result.base_cycles
        assert result.candidates

    def test_candidates_are_legal(self):
        dfg = diamond_dfg()
        explorer = make_explorer()
        result = explorer.explore(dfg)
        for candidate in result.candidates:
            check_candidate(dfg, candidate.members, explorer.constraints)

    def test_memory_ops_never_grouped(self):
        dfg = memory_dfg()
        result = make_explorer().explore(dfg)
        for candidate in result.candidates:
            assert all(not dfg.op(uid).is_memory
                       for uid in candidate.members)

    def test_deterministic_under_seed(self):
        dfg = diamond_dfg()
        r1 = make_explorer(seed=5).explore(dfg)
        r2 = make_explorer(seed=5).explore(dfg)
        assert [c.members for c in r1.candidates] == \
            [c.members for c in r2.candidates]
        assert r1.final_cycles == r2.final_cycles

    def test_no_hardware_options_no_candidates(self):
        dfg = memory_dfg()
        # Keep only the memory ops' subgraph: lw/addu/sw/lw/xor — the
        # ALU ops do have options, so instead test a loads-only DFG.
        from conftest import dfg_from_block

        def body(b):
            v1 = b.lw("a")
            v2 = b.lw("a", 4)
            b.sw(v1, "b")
            return v2
        loads_only = dfg_from_block(body)
        result = make_explorer().explore(loads_only)
        assert result.candidates == []
        assert result.final_cycles == result.base_cycles
        del dfg

    def test_cycle_saving_accounting(self):
        dfg = chain_dfg(6)
        result = make_explorer().explore(dfg)
        total = sum(c.cycle_saving for c in result.candidates)
        assert total == result.cycle_saving

    def test_constraints_clamped_to_machine_ports(self):
        machine = MachineConfig(2, "4/2")
        explorer = AcoEngine(
            machine, constraints=ISEConstraints(n_in=16, n_out=8))
        assert explorer.constraints.n_in == 4
        assert explorer.constraints.n_out == 2

    def test_restarts_pick_best(self):
        dfg = diamond_dfg()
        single = make_explorer(seed=3, restarts=1).explore(dfg)
        multi = make_explorer(seed=3, restarts=3).explore(dfg)
        assert multi.final_cycles <= single.final_cycles

    def test_wider_issue_smaller_gain(self):
        # With infinite-ish width, only dependence chains matter, so
        # base cycles shrink and the explorer's saving opportunity too.
        dfg = wide_dfg(8)
        narrow = make_explorer(MachineConfig(2, "10/5")).explore(dfg)
        wide = make_explorer(MachineConfig(4, "10/5")).explore(dfg)
        assert wide.base_cycles <= narrow.base_cycles

    def test_priority_variants_run(self):
        dfg = diamond_dfg()
        for priority in ("children", "mobility", "depth"):
            machine = MachineConfig(2, "4/2")
            params = ExplorationParams(max_iterations=40, restarts=1,
                                       max_rounds=2)
            explorer = AcoEngine(machine, params=params,
                                 priority=priority, seed=2)
            result = explorer.explore(dfg)
            assert result.final_cycles <= result.base_cycles

    def test_bad_priority_rejected(self):
        dfg = diamond_dfg()
        explorer = AcoEngine(MachineConfig(2, "4/2"),
                             priority="bogus")
        with pytest.raises(ConfigError):
            explorer.explore(dfg)

    def test_result_repr(self):
        dfg = chain_dfg(4)
        result = make_explorer().explore(dfg)
        text = repr(result)
        assert "ISEs" in text and "cycles" in text
