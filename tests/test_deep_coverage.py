"""Second deep-coverage batch: corner cases across all subsystems."""

import pytest

from repro.config import ExplorationParams, ISEConstraints
from repro.errors import ConfigError
from repro.hwlib import DEFAULT_DATABASE, DEFAULT_TECHNOLOGY
from repro.sched import MachineConfig

from conftest import chain_dfg, dfg_from_block, diamond_dfg


class TestInterpreterSignExtension:
    def _run(self, emit, args=(), params=()):
        from repro.ir import FunctionBuilder, Program, run_program
        b = FunctionBuilder("main", params=params)
        b.label("entry")
        result = emit(b)
        b.ret(result)
        program = Program("p")
        program.add_function(b.finish())
        value, __, ___ = run_program(program, args=args)
        return value

    def test_lb_sign_extends(self):
        def emit(b):
            addr = b.li(0x100)
            val = b.li(0x80)
            b.sb(val, addr)
            return b.emit("lb", dest=b.fresh(), sources=(addr,), imm=0)
        assert self._run(emit) == 0xFFFFFF80

    def test_lh_sign_extends(self):
        def emit(b):
            addr = b.li(0x100)
            val = b.li(0x8001)
            b.sh(val, addr)
            return b.emit("lh", dest=b.fresh(), sources=(addr,), imm=0)
        assert self._run(emit) == 0xFFFF8001

    def test_lbu_lhu_zero_extend(self):
        def emit(b):
            addr = b.li(0x100)
            val = b.li(0xFFFF)
            b.sh(val, addr)
            h = b.lhu(addr)
            byte = b.lbu(addr)
            return b.subu(h, byte)
        assert self._run(emit) == 0xFFFF - 0xFF

    def test_lui_shifts(self):
        def emit(b):
            return b.emit("lui", dest=b.fresh(), imm=0x1234)
        assert self._run(emit) == 0x12340000


class TestWorkloadParameterisation:
    def test_crc32_custom_length(self):
        from repro.ir import run_program
        from repro.workloads import crc32
        program, args = crc32.build(length=16)
        result, __, ___ = run_program(program, args=args)
        assert result == crc32.reference(length=16)

    def test_bitcount_custom_count(self):
        from repro.ir import run_program
        from repro.workloads import bitcount
        program, args = bitcount.build(count=8)
        result, __, ___ = run_program(program, args=args)
        assert result == bitcount.reference(count=8)

    def test_dijkstra_custom_source(self):
        from repro.ir import run_program
        from repro.workloads import dijkstra
        program, args = dijkstra.build(source=3)
        result, __, ___ = run_program(program, args=args)
        assert result == dijkstra.reference(source=3)

    def test_blowfish_custom_blocks(self):
        from repro.ir import run_program
        from repro.workloads import blowfish
        program, args = blowfish.build(count=2)
        result, __, ___ = run_program(program, args=args)
        assert result == blowfish.reference(count=2)


class TestStateDetails:
    def _state(self, dfg, **overrides):
        from repro.core.state import ExplorationState
        from repro.hwlib import default_io_table
        tables = {uid: default_io_table(dfg.op(uid), DEFAULT_DATABASE)
                  for uid in dfg.nodes}
        return ExplorationState(dfg, tables,
                                ExplorationParams(**overrides))

    @staticmethod
    def _weights(state, uids):
        """``{(uid, option): Eq. 1 weight}`` of the options of ``uids``."""
        weights = state.cp_weights_batch().tolist()
        return {pair: weight
                for pair, weight in zip(state.slot_pairs(), weights)
                if pair[0] in uids}

    def test_lambda_zero_ignores_sp(self):
        dfg = diamond_dfg()
        state = self._state(dfg, lam=0.0)
        entries = self._weights(state, (0, 2))
        # With identical option tables and no SP term, weights match
        # across operations.
        by_label = {}
        for (uid, option), weight in entries.items():
            by_label.setdefault(option.label, set()).add(round(weight, 9))
        assert all(len(values) == 1 for values in by_label.values())

    def test_lambda_boosts_high_fanout(self):
        dfg = diamond_dfg()
        state = self._state(dfg, lam=1.0)
        entries = self._weights(state, (2, 3))
        w3 = max(w for (uid, __), w in entries.items() if uid == 3)
        w2 = max(w for (uid, __), w in entries.items() if uid == 2)
        assert w3 > w2            # node 3 has two children

    def test_sp_uniform_when_all_zero(self):
        dfg = chain_dfg(2)
        state = self._state(dfg)
        for key in state.trail:
            state.trail[key] = 0.0
        for key in state.merit:
            state.merit[key] = 0.0
        sp = state.sp_of(0)
        values = set(round(v, 9) for v in sp.values())
        assert len(values) == 1


class TestMeritCase4Branches:
    def test_fast_option_preferred_on_critical_path(self):
        """On a pure chain (everything critical) the fast adder ends up
        with more merit than the slow one after grouping succeeds."""
        from repro.core.iteration import IterationSchedule
        from repro.core.merit import update_merits
        from repro.core.state import ExplorationState
        from repro.hwlib import default_io_table

        dfg = chain_dfg(4)
        tables = {uid: default_io_table(dfg.op(uid), DEFAULT_DATABASE)
                  for uid in dfg.nodes}
        state = ExplorationState(dfg, tables, ExplorationParams())
        sched = IterationSchedule(dfg, MachineConfig(2, "4/2"),
                                  DEFAULT_TECHNOLOGY, ISEConstraints())
        # Everyone picks the FAST hardware option -> one cluster.
        for uid in dfg.nodes:
            fast = min(state.hardware_options(uid),
                       key=lambda o: o.delay_ns)
            sched.schedule_hardware(uid, fast)
        update_merits(dfg, state, sched.verify(), ISEConstraints())
        fast_label = min(state.hardware_options(1),
                         key=lambda o: o.delay_ns).label
        slow_label = max(state.hardware_options(1),
                         key=lambda o: o.delay_ns).label
        assert state.merit[(1, fast_label)] >= state.merit[(1, slow_label)]


class TestMachineParsing:
    @pytest.mark.parametrize("spec,issue,ports", [
        ("2-issue 4/2", 2, "4/2"),
        ("(6/3, 3IS)", 3, "6/3"),
        ("4is 10/5", 4, "10/5"),
    ])
    def test_spec_forms(self, spec, issue, ports):
        machine = MachineConfig.from_paper_case(spec)
        assert machine.issue_width == issue
        assert machine.register_file.spec == ports

    def test_fu_override(self):
        machine = MachineConfig(2, "8/4", fu_counts={"mem": 2})
        assert machine.fu_counts["mem"] == 2
        with pytest.raises(ConfigError):
            MachineConfig(2, "8/4", fu_counts={"mem": -1})


class TestFindMatchCaps:
    def test_mapping_cap_limits_work(self):
        from repro.graph import find_matches, pattern_graph
        # Many identical independent pairs -> combinatorially many
        # monomorphisms; the cap keeps the result bounded.
        def body(b):
            outs = []
            for __ in range(6):
                t = b.addu("a", "b")
                outs.append(b.xor(t, "c"))
            acc = outs[0]
            for other in outs[1:]:
                acc = b.or_(acc, other)
            return acc
        dfg = dfg_from_block(body)
        pattern = pattern_graph(dfg, {0, 1})
        capped = find_matches(dfg, pattern, max_matches=3)
        assert len(capped) <= 3
        full = find_matches(dfg, pattern)
        assert len(full) >= 6


class TestCliSelftest:
    def test_selftest_passes(self, capsys):
        from repro.cli import main
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all ok" in out
        assert "sha1" in out


class TestHotBlockSelection:
    def test_coverage_knob(self):
        from repro.core.flow import ISEDesignFlow
        from repro.workloads import get_workload
        program, args = get_workload("adpcm").build()
        narrow = ISEDesignFlow(MachineConfig(2, "4/2"), coverage=0.4,
                               max_blocks=8)
        wide = ISEDesignFlow(MachineConfig(2, "4/2"), coverage=0.999,
                             max_blocks=8)
        blocks_n = narrow._select_hot_blocks(
            narrow.profile_blocks(program, args=args))
        blocks_w = wide._select_hot_blocks(
            wide.profile_blocks(program, args=args))
        assert len(blocks_n) <= len(blocks_w)

    def test_max_blocks_cap(self):
        from repro.core.flow import ISEDesignFlow
        from repro.workloads import get_workload
        program, args = get_workload("dijkstra").build()
        flow = ISEDesignFlow(MachineConfig(2, "4/2"), coverage=0.9999,
                             max_blocks=2)
        chosen = flow._select_hot_blocks(
            flow.profile_blocks(program, args=args))
        assert len(chosen) <= 2
