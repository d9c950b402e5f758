"""Tests for the multi-issue machine model and list scheduler."""

import networkx as nx
import pytest

from repro.errors import ConfigError, SchedulingError
from repro.hwlib import DEFAULT_TECHNOLOGY, HardwareOption
from repro.sched import (
    MachineConfig,
    Needs,
    ReservationTable,
    SchedUnit,
    contract_dfg,
    get_priority,
    list_schedule,
    paper_machines,
    priority_names,
    software_needs,
)
from repro.isa import Operation

from conftest import chain_dfg, diamond_dfg, wide_dfg


class TestMachineConfig:
    def test_defaults(self):
        m = MachineConfig(2, "4/2")
        assert m.issue_width == 2
        assert m.register_file.read_ports == 4
        assert m.fu_counts["alu"] == 2
        assert m.fu_counts["asfu"] == 1

    def test_paper_cases(self):
        machines = paper_machines()
        assert len(machines) == 6
        assert machines[0].label == "(4/2, 2IS)"
        assert machines[-1].label == "(10/5, 4IS)"

    def test_from_paper_case_spec(self):
        m = MachineConfig.from_paper_case("3-issue 8/4")
        assert m.issue_width == 3
        assert m.register_file.spec == "8/4"
        m2 = MachineConfig.from_paper_case("(6/3, 2IS)")
        assert m2.issue_width == 2

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            MachineConfig.from_paper_case("huge")

    def test_invalid_width(self):
        with pytest.raises(ConfigError):
            MachineConfig(0, "4/2")

    def test_equality_hash(self):
        assert MachineConfig(2, "4/2") == MachineConfig(2, "4/2")
        assert MachineConfig(2, "4/2") != MachineConfig(3, "4/2")


class TestReservationTable:
    def test_issue_width_enforced(self):
        table = ReservationTable(MachineConfig(2, "8/4"))
        needs = Needs(reads=1, writes=1)
        table.place(0, needs)
        table.place(0, needs)
        assert not table.fits(0, needs)
        assert table.fits(1, needs)

    def test_read_ports_enforced(self):
        table = ReservationTable(MachineConfig(4, "4/2"))
        needs = Needs(reads=2, writes=1)
        table.place(0, needs)
        table.place(0, needs)
        assert not table.fits(0, Needs(reads=1))

    def test_fu_kind_enforced(self):
        table = ReservationTable(MachineConfig(4, "8/4"))
        mul = Needs(reads=2, writes=1, fu_kind="mul")
        table.place(0, mul)
        assert not table.fits(0, mul)         # one multiplier
        assert table.fits(0, Needs(fu_kind="alu"))

    def test_release_and_refill(self):
        table = ReservationTable(MachineConfig(1, "4/2"))
        needs = Needs(reads=2, writes=1)
        table.place(0, needs)
        table.release(0, needs)
        assert table.fits(0, needs)

    def test_release_without_place_raises(self):
        table = ReservationTable(MachineConfig(1, "4/2"))
        with pytest.raises(SchedulingError):
            table.release(0, Needs(reads=1))

    def test_first_fit_skips_full_cycles(self):
        table = ReservationTable(MachineConfig(1, "4/2"))
        needs = Needs(reads=1, writes=1)
        table.place(0, needs)
        table.place(1, needs)
        assert table.reserve(needs) == 2
        assert table.reserve(needs, not_before=5) == 5
        assert table.usage(2)[1:3] == table.usage(5)[1:3] == (1, 1)


class TestPriorities:
    def test_registry(self):
        assert set(priority_names()) == {"children", "depth", "mobility"}
        with pytest.raises(ConfigError):
            get_priority("nope")

    def test_children_count(self):
        dfg = diamond_dfg()
        sp = get_priority("children")(dfg.graph)
        assert sp[3] == 2          # node 3 feeds 5 and 6

    def test_depth_longest_tail(self):
        dfg = chain_dfg(4)
        sp = get_priority("depth")(dfg.graph)
        assert sp[0] == 4 and sp[3] == 1

    def test_mobility_critical_first(self):
        dfg = diamond_dfg()
        sp = get_priority("mobility")(dfg.graph)
        assert sp[0] == 0               # critical: zero slack
        assert sp[2] < 0                # slack: lower priority


class TestContraction:
    def _fast_option(self):
        return HardwareOption("HW", delay_ns=2.0, area=100.0)

    def test_plain_contraction(self):
        dfg = chain_dfg(4)
        graph, units = contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        assert len(units) == 4
        assert all(not u.is_ise for u in units.values())

    def test_group_becomes_supernode(self):
        dfg = chain_dfg(4)
        option_of = {1: self._fast_option(), 2: self._fast_option()}
        graph, units = contract_dfg(
            dfg, [({1, 2}, option_of)], DEFAULT_TECHNOLOGY)
        assert len(units) == 3
        ise = units["ise0"]
        assert ise.is_ise and ise.latency == 1
        assert ise.area == 200.0
        assert graph.has_edge(0, "ise0") and graph.has_edge("ise0", 3)

    def test_overlapping_groups_rejected(self):
        dfg = chain_dfg(4)
        option_of = {1: self._fast_option(), 2: self._fast_option()}
        with pytest.raises(SchedulingError):
            contract_dfg(dfg, [({1, 2}, option_of), ({2, 3}, option_of)],
                         DEFAULT_TECHNOLOGY)

    def test_nonconvex_group_rejected(self):
        dfg = chain_dfg(3)
        option_of = {0: self._fast_option(), 2: self._fast_option()}
        with pytest.raises(SchedulingError):
            contract_dfg(dfg, [({0, 2}, option_of)], DEFAULT_TECHNOLOGY)

    def test_software_needs_kinds(self):
        op = Operation(0, "mult", sources=("a", "b"), dests=("c",))
        assert software_needs(op).fu_kind == "mul"
        op2 = Operation(1, "lw", sources=("p",), dests=("v",))
        assert software_needs(op2).fu_kind == "mem"


class TestListScheduler:
    def test_chain_serializes(self):
        dfg = chain_dfg(4)
        graph, units = contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        schedule = list_schedule(graph, units, MachineConfig(4, "10/5"))
        assert schedule.makespan == 4

    def test_wide_parallelism_uses_issue_width(self):
        dfg = wide_dfg(6)
        graph, units = contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        two = list_schedule(graph, units, MachineConfig(2, "10/5")).makespan
        four = list_schedule(graph, units, MachineConfig(4, "10/5")).makespan
        assert four <= two

    def test_schedule_verifies(self, dual_issue):
        dfg = diamond_dfg()
        graph, units = contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        schedule = list_schedule(graph, units, dual_issue)
        schedule.verify(dual_issue)       # must not raise

    def test_multicycle_ise_blocks_successors(self):
        dfg = chain_dfg(4)
        slow = HardwareOption("HW", delay_ns=25.0, area=10.0)  # 3 cycles
        option_of = {1: slow, 2: slow}
        graph, units = contract_dfg(
            dfg, [({1, 2}, option_of)], DEFAULT_TECHNOLOGY)
        schedule = list_schedule(graph, units, MachineConfig(2, "8/4"))
        ise_start = schedule.start["ise0"]
        assert schedule.start[3] >= ise_start + units["ise0"].latency

    def test_infeasible_demand_raises(self):
        graph = nx.DiGraph()
        graph.add_node("x")
        units = {"x": SchedUnit("x", 1, Needs(reads=9), ("x",))}
        with pytest.raises(SchedulingError):
            list_schedule(graph, units, MachineConfig(2, "4/2"))

    def test_priority_dict_accepted(self):
        dfg = wide_dfg(4)
        graph, units = contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        schedule = list_schedule(graph, units, MachineConfig(2, "8/4"),
                                 priority={uid: 0 for uid in units})
        assert schedule.makespan >= 1

    def test_cyclic_graph_rejected(self):
        graph = nx.DiGraph([("a", "b"), ("b", "a")])
        units = {u: SchedUnit(u, 1, Needs(reads=1), (u,)) for u in "ab"}
        with pytest.raises(SchedulingError):
            list_schedule(graph, units, MachineConfig(2, "8/4"))

    def test_at_cycle_listing(self):
        dfg = wide_dfg(4)
        graph, units = contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        schedule = list_schedule(graph, units, MachineConfig(2, "8/4"))
        issued = [schedule.at_cycle(c) for c in range(schedule.makespan)]
        assert sum(len(batch) for batch in issued) == len(units)
        assert all(len(batch) <= 2 for batch in issued)
