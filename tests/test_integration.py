"""End-to-end integration tests: whole flow on every workload.

These run the complete pipeline (build → optimize → profile → explore →
merge → select → replace → schedule) at a reduced ACO effort, asserting
the system-level invariants the paper's evaluation rests on.
"""

import pytest

from repro.config import ExplorationParams, ISEConstraints
from repro.core.flow import ISEDesignFlow
from repro.sched import MachineConfig
from repro.workloads import all_workloads, get_workload

TINY = ExplorationParams(max_iterations=50, restarts=1, max_rounds=4)


@pytest.fixture(scope="module")
def crc_reports():
    """One exploration reused by several assertions."""
    program, args = get_workload("crc32").build()
    flow = ISEDesignFlow(MachineConfig(2, "4/2"), params=TINY, seed=5,
                         max_blocks=3)
    explored = flow.explore_application(program, args=args, opt_level="O3")
    return flow, explored


class TestFullFlowPerWorkload:
    @pytest.mark.parametrize("name", [w.name for w in all_workloads()])
    def test_flow_improves_or_holds(self, name):
        program, args = get_workload(name).build()
        flow = ISEDesignFlow(MachineConfig(2, "4/2"), params=TINY, seed=5,
                             max_blocks=3, max_dfg_nodes=150)
        report = flow.run(program, args=args, opt_level="O3",
                          constraints=ISEConstraints(max_area=80_000))
        assert report.final_cycles <= report.baseline_cycles
        assert 0.0 <= report.reduction < 1.0
        assert report.area <= 80_000

    @pytest.mark.parametrize("opt", ["O0", "O3"])
    def test_both_opt_levels_work(self, opt):
        program, args = get_workload("adpcm").build()
        flow = ISEDesignFlow(MachineConfig(2, "4/2"), params=TINY, seed=5,
                             max_blocks=3)
        report = flow.run(program, args=args, opt_level=opt,
                          constraints=ISEConstraints(max_ises=2))
        assert report.final_cycles <= report.baseline_cycles


class TestCrossAlgorithm:
    def test_si_factory_in_flow(self):
        program, args = get_workload("dijkstra").build()
        flow = ISEDesignFlow(MachineConfig(2, "4/2"), params=TINY, seed=5,
                             max_blocks=3, engine="si")
        report = flow.run(program, args=args, opt_level="O0",
                          constraints=ISEConstraints(max_ises=2))
        assert report.final_cycles <= report.baseline_cycles
        assert all(c.source == "SI"
                   for c in report.explored.candidates)


class TestBudgetSemantics:
    def test_budget_sweep_reuses_exploration(self, crc_reports):
        flow, explored = crc_reports
        r1 = flow.evaluate(explored, ISEConstraints(max_ises=1))
        r2 = flow.evaluate(explored, ISEConstraints(max_ises=4))
        assert r2.reduction >= r1.reduction - 1e-9
        assert r1.num_ises <= 1

    def test_single_ise_double_digit_on_crc(self, crc_reports):
        flow, explored = crc_reports
        report = flow.evaluate(explored, ISEConstraints(max_ises=1))
        # CRC32's bit chain is the paper's best case: one ISE buys a
        # large reduction.
        assert report.reduction > 0.10

    def test_area_accounting_consistent(self, crc_reports):
        flow, explored = crc_reports
        report = flow.evaluate(explored, ISEConstraints(max_area=30_000))
        assert report.area <= 30_000
        assert report.num_ises == len(report.selection.selected)

    def test_sharing_never_increases_area(self, crc_reports):
        flow, explored = crc_reports
        shared = flow.evaluate(explored, ISEConstraints(max_ises=4),
                               enable_sharing=True)
        unshared = flow.evaluate(explored, ISEConstraints(max_ises=4),
                                 enable_sharing=False)
        assert shared.area <= unshared.area + 1e-9


class TestMachineTrends:
    def test_wider_issue_lower_baseline(self):
        program, args = get_workload("fft").build()
        baselines = {}
        for width, ports in ((2, "8/4"), (4, "8/4")):
            flow = ISEDesignFlow(MachineConfig(width, ports), params=TINY,
                                 seed=5, max_blocks=3)
            blocks = flow.profile_blocks(program, args=args)
            baselines[width] = sum(
                b.freq * (b.base_cycles + 1) for b in blocks if b.freq > 0)
        assert baselines[4] <= baselines[2]
