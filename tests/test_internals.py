"""Third coverage batch: internals of exploration, partitioning fit,
export quoting, parser operand forms."""

import pytest

from repro.config import ExplorationParams, ISEConstraints
from repro.core.batch import BatchedAntRunner
from repro.engines.aco import AcoEngine
from repro.hwlib import DEFAULT_DATABASE, DEFAULT_TECHNOLOGY
from repro.sched import MachineConfig

from conftest import chain_dfg, diamond_dfg, lockstep_draw


class TestRoulette:
    """The ant runner's roulette draw over a ready operation's options."""

    def test_proportional_selection(self):
        weights = [1.0, 3.0]
        assert lockstep_draw(weights, 0.0)[0] == "a"
        assert lockstep_draw(weights, 0.5)[0] == "b"
        assert lockstep_draw(weights, 0.99)[0] == "b"

    def test_single_entry(self):
        assert lockstep_draw([0.5], 0.7)[0] == "a"


class TestExplorerInternals:
    def _explorer(self):
        return AcoEngine(
            MachineConfig(2, "4/2"),
            params=ExplorationParams(max_iterations=40, restarts=1,
                                     max_rounds=2),
            seed=2)

    @staticmethod
    def _one_ant(explorer, dfg, state):
        import random
        runner = BatchedAntRunner(dfg, state, explorer.machine,
                                  explorer.technology, explorer.constraints)
        return runner.run(random.Random(1), 1)[0]

    def test_run_iteration_schedules_everything(self):
        from repro.core.state import ExplorationState
        from repro.hwlib import default_io_table
        dfg = diamond_dfg()
        explorer = self._explorer()
        tables = {uid: default_io_table(dfg.op(uid), DEFAULT_DATABASE)
                  for uid in dfg.nodes}
        state = ExplorationState(dfg, tables, explorer.params)
        schedule = self._one_ant(explorer, dfg, state)
        assert set(schedule.start) == set(dfg.nodes)
        assert schedule.makespan >= 1

    def test_candidate_sources_include_best_schedule(self):
        from repro.core.state import ExplorationState
        from repro.hwlib import default_io_table
        dfg = chain_dfg(4)
        explorer = self._explorer()
        tables = {uid: default_io_table(dfg.op(uid), DEFAULT_DATABASE)
                  for uid in dfg.nodes}
        state = ExplorationState(dfg, tables, explorer.params)
        schedule = self._one_ant(explorer, dfg, state)
        sources = explorer._candidate_sources(dfg, state, schedule)
        assert 1 <= len(sources) <= 2
        for chosen_hw, option_of in sources:
            assert chosen_hw <= set(dfg.nodes)
            for uid in chosen_hw:
                assert option_of[uid].is_hardware

    def test_evaluate_empty_candidates(self):
        dfg = chain_dfg(3)
        explorer = self._explorer()
        assert explorer._evaluate(dfg, []) == 3


class TestPartitionFit:
    def test_fit_shrinks_to_budget(self):
        from repro.ext.partitioning import TaskGraph, partition
        tg = TaskGraph("t")
        tg.add_task("a", 6, hw_bins=[(1.0, 500.0)])
        tg.add_task("b", 6, hw_bins=[(1.0, 500.0)], deps=["a"])
        tg.add_task("c", 6, hw_bins=[(1.0, 500.0)], deps=["b"])
        tg.add_task("d", 2, deps=["c"])
        unlimited = partition(tg, seed=1)
        assert unlimited.hardware_area == 1500.0
        limited = partition(tg, seed=1, max_area=1000.0)
        assert 0 < limited.hardware_area <= 1000.0
        assert limited.makespan_partitioned <= \
            limited.makespan_software

    def test_fit_gives_up_below_two_tasks(self):
        from repro.ext.partitioning import TaskGraph, partition
        tg = TaskGraph("t")
        tg.add_task("a", 6, hw_bins=[(1.0, 500.0)])
        tg.add_task("b", 6, hw_bins=[(1.0, 500.0)], deps=["a"])
        tg.add_task("c", 2, deps=["b"])
        limited = partition(tg, seed=1, max_area=400.0)
        assert limited.hardware_area == 0.0


class TestExportQuoting:
    def test_dot_escapes_quotes(self):
        from repro.graph.export import _quote
        assert _quote('say "hi"') == r'"say \"hi\""'

    def test_dot_title_override(self):
        from repro.graph.export import dfg_to_dot
        dfg = chain_dfg(2)
        dot = dfg_to_dot(dfg, title="custom title")
        assert "custom title" in dot


class TestParserOperandForms:
    def test_shift_register_and_immediate_forms(self):
        from repro.ir import parse_functions, Program, run_program
        text = """
func f(a, n):
entry:
    x = sll a, 4
    y = sllv a, n
    z = sra x, 2
    w = srlv y, n
    out = or z, w
    ret out
"""
        program = Program("p")
        program.add_function(parse_functions(text)[0])
        result, __, ___ = run_program(program, args=(0x10, 1))
        expected = ((0x10 << 4) >> 2) | ((0x10 << 1) >> 1)
        assert result == expected

    def test_nor_and_compare_ops(self):
        from repro.ir import parse_functions, Program, run_program
        text = """
func f(a, b):
entry:
    n = nor a, b
    c = sltu a, b
    d = slt a, b
    s = addu c, d
    out = xor n, s
    ret out
"""
        program = Program("p")
        program.add_function(parse_functions(text)[0])
        result, __, ___ = run_program(program, args=(1, 2))
        expected = (~(1 | 2) & 0xFFFFFFFF) ^ 2
        assert result == expected


class TestMergedISEProperties:
    def test_all_candidates_and_cycles(self):
        from repro.core.candidate import ISECandidate
        from repro.core.merging import MergedISE
        dfg = chain_dfg(3)
        option = DEFAULT_DATABASE.hardware_options("addu")[0]
        rep = ISECandidate(dfg, {0, 1}, {0: option, 1: option},
                           DEFAULT_TECHNOLOGY)
        entry = MergedISE(rep)
        assert entry.all_candidates() == [rep]
        assert entry.cycles == rep.cycles
        assert entry.area == rep.area
        assert "MergedISE" in repr(entry)
