"""Additional coverage: memory model, data segments, reservation
introspection, flow lowering internals, exploration traces, reporting."""

import pytest

from repro.config import ExplorationParams, ISEConstraints
from repro.core.flow import ISEDesignFlow, _lower_segments
from repro.engines.aco import AcoEngine
from repro.errors import TrapError
from repro.eval import render_per_workload
from repro.ir import DataSegment, FunctionBuilder
from repro.ir.analysis import liveness
from repro.ir.interp import Memory
from repro.sched import MachineConfig, Needs, ReservationTable

from conftest import chain_dfg


class TestMemoryModel:
    def test_default_zero(self):
        mem = Memory()
        assert mem.load_word(0x100) == 0
        assert mem.load_byte(0xFFFF) == 0

    def test_word_byte_consistency(self):
        mem = Memory()
        mem.store_word(0x40, 0xA1B2C3D4)
        assert [mem.load_byte(0x40 + i) for i in range(4)] == \
            [0xD4, 0xC3, 0xB2, 0xA1]

    def test_half_word_alignment(self):
        mem = Memory()
        with pytest.raises(TrapError):
            mem.load_half(0x41)
        with pytest.raises(TrapError):
            mem.store_half(0x43, 1)

    def test_words_helper(self):
        mem = Memory()
        for i in range(3):
            mem.store_word(0x10 + 4 * i, i + 1)
        assert mem.words(0x10, 3) == [1, 2, 3]

    def test_image_constructor(self):
        mem = Memory({0x20: 0xFF, 0x21: 0x01})
        assert mem.load_half(0x20) == 0x01FF


class TestDataSegment:
    def test_word_alignment(self):
        data = DataSegment(base=0x101)
        addr = data.place_words("w", [7])
        assert addr % 4 == 0

    def test_reserve_zeroes(self):
        data = DataSegment()
        addr = data.reserve_words("buf", 4)
        image = data.image
        assert all(image[addr + i] == 0 for i in range(16))

    def test_sequential_layout(self):
        data = DataSegment(base=0x1000)
        a = data.place_words("a", [1, 2])
        b = data.place_words("b", [3])
        assert b == a + 8

    def test_unknown_symbol(self):
        from repro.errors import IRError
        data = DataSegment()
        with pytest.raises(IRError):
            data.address_of("ghost")


class TestReservationIntrospection:
    def test_usage_snapshot(self):
        table = ReservationTable(MachineConfig(2, "4/2"))
        table.place(3, Needs(reads=2, writes=1, fu_kind="alu"))
        issue, reads, writes, fus = table.usage(3)
        assert (issue, reads, writes) == (1, 2, 1)
        assert fus == {"alu": 1}
        assert table.usage(4) == (0, 0, 0, {})

    def test_zero_issue_needs(self):
        table = ReservationTable(MachineConfig(1, "4/2"))
        table.place(0, Needs(issue=1, reads=1))
        # A zero-issue, zero-FU revision (cluster bookkeeping) fits even
        # when the issue slot is taken.
        assert table.fits(0, Needs(issue=0, reads=1, fu_count=0))
        assert not table.fits(0, Needs(issue=1, reads=1, fu_count=0))


class TestLowerSegments:
    def _func_with_call(self):
        b = FunctionBuilder("main", params=("v",))
        b.label("entry")
        t = b.addu("v", "v")
        r = b.call("helper", (t,))
        u = b.xor(r, "v")
        b.ret(u)
        return b.finish()

    def test_split_at_call(self):
        func = self._func_with_call()
        __, live_out = liveness(func)
        segments, calls = _lower_segments(
            func, func.block("entry"), live_out["entry"])
        assert calls == 1
        assert len(segments) == 2
        assert len(segments[0]) == 1   # addu
        assert len(segments[1]) == 1   # xor

    def test_no_call_single_segment_keeps_label(self):
        b = FunctionBuilder("f", params=("a",))
        b.label("bb")
        t = b.addu("a", "a")
        b.ret(t)
        func = b.finish()
        __, live_out = liveness(func)
        segments, calls = _lower_segments(
            func, func.block("bb"), live_out["bb"])
        assert calls == 0
        assert segments[0].label == "bb"

    def test_empty_block(self):
        b = FunctionBuilder("f", params=("a",))
        b.label("bb")
        b.ret("a")
        func = b.finish()
        __, live_out = liveness(func)
        segments, calls = _lower_segments(
            func, func.block("bb"), live_out["bb"])
        assert len(segments) == 1 and len(segments[0]) == 0


class TestExplorationTraces:
    def test_traces_recorded(self):
        dfg = chain_dfg(5)
        params = ExplorationParams(max_iterations=30, restarts=1,
                                   max_rounds=2)
        explorer = AcoEngine(MachineConfig(2, "4/2"),
                             params=params, seed=1)
        result = explorer.explore(dfg)
        assert result.traces
        assert len(result.traces) == result.rounds
        assert sum(len(t) for t in result.traces) == result.iterations
        # Rounds on fully-contracted DFGs legitimately record empty
        # traces; non-empty ones hold per-iteration makespans.
        assert all(all(c >= 1 for c in t) for t in result.traces)
        assert any(t for t in result.traces)


class TestRenderPerWorkload:
    def test_layout(self):
        table = {"crc32": {"MI": (50.0, 2, 1000.0),
                           "SI": (40.0, 3, 2000.0)}}
        text = render_per_workload(table, "title")
        assert "crc32" in text
        assert "50.00%" in text and "40.00%" in text
        assert "title" in text


class TestFlowEdgeCases:
    def test_unprofiled_program_yields_no_hot_blocks(self):
        # A program whose main never loops: every block freq 1, zero
        # weight blocks are still explorable but hot selection works.
        b = FunctionBuilder("main", params=("a",))
        b.label("entry")
        t = b.addu("a", "a")
        b.ret(t)
        from repro.ir import Program
        program = Program("p")
        program.add_function(b.finish())
        flow = ISEDesignFlow(MachineConfig(2, "4/2"),
                             params=ExplorationParams(
                                 max_iterations=20, restarts=1,
                                 max_rounds=1))
        report = flow.run(program, args=(1,),
                          constraints=ISEConstraints(max_ises=1))
        assert report.baseline_cycles >= 1
        assert report.final_cycles <= report.baseline_cycles

    def test_opt_level_none_means_as_is(self):
        from repro.workloads import get_workload
        program, args = get_workload("dijkstra").build()
        flow = ISEDesignFlow(MachineConfig(2, "4/2"),
                             params=ExplorationParams(
                                 max_iterations=20, restarts=1,
                                 max_rounds=1))
        explored = flow.explore_application(program, args=args,
                                            opt_level=None)
        assert explored.program is program
