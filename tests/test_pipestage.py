"""Tests for the pipestage-timing constraint (max_ise_cycles)."""

import pytest

from repro.config import ExplorationParams, ISEConstraints
from repro.core.candidate import ISECandidate
from repro.core.flow import ISEDesignFlow
from repro.engines.aco import AcoEngine
from repro.errors import ConfigError, ConstraintError
from repro.hwlib import DEFAULT_DATABASE, DEFAULT_TECHNOLOGY
from repro.sched import MachineConfig
from repro.workloads import get_workload

from conftest import chain_dfg

TINY = dict(max_iterations=60, restarts=1, max_rounds=4)


def slow_candidate(dfg, members):
    """Realize with the slowest options (4.04 ns adders)."""
    option_of = {uid: max(DEFAULT_DATABASE.hardware_options("addu"),
                          key=lambda o: o.delay_ns)
                 for uid in members}
    return ISECandidate(dfg, members, option_of, DEFAULT_TECHNOLOGY)


class TestConstraint:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ISEConstraints(max_ise_cycles=0)
        assert ISEConstraints(max_ise_cycles=1).max_ise_cycles == 1

    def test_candidate_validate(self):
        dfg = chain_dfg(4)
        candidate = slow_candidate(dfg, {0, 1, 2})  # 12.12 ns -> 2 cycles
        assert candidate.cycles == 2
        candidate.validate(ISEConstraints())            # unbounded ok
        candidate.validate(ISEConstraints(max_ise_cycles=2))
        with pytest.raises(ConstraintError):
            candidate.validate(ISEConstraints(max_ise_cycles=1))

    def test_exploration_respects_limit(self):
        dfg = chain_dfg(8)
        params = ExplorationParams(**TINY)
        machine = MachineConfig(2, "4/2")
        constrained = AcoEngine(
            machine, params=params, seed=2,
            constraints=ISEConstraints(max_ise_cycles=1))
        result = constrained.explore(dfg)
        assert all(c.cycles <= 1 for c in result.candidates)

    def test_limit_reduces_compression(self):
        dfg = chain_dfg(10)
        params = ExplorationParams(**TINY)
        machine = MachineConfig(2, "4/2")
        free = AcoEngine(machine, params=params, seed=2).explore(dfg)
        tight = AcoEngine(
            machine, params=params, seed=2,
            constraints=ISEConstraints(max_ise_cycles=1)).explore(dfg)
        assert tight.final_cycles >= free.final_cycles

    def test_flow_end_to_end_with_limit(self):
        program, args = get_workload("crc32").build()
        params = ExplorationParams(**TINY)
        flow = ISEDesignFlow(
            MachineConfig(2, "4/2"), params=params, seed=2, max_blocks=2,
            constraints=ISEConstraints(max_ise_cycles=1))
        report = flow.run(program, args=args, opt_level="O3",
                          constraints=ISEConstraints(max_ise_cycles=1,
                                                     max_ises=4))
        for entry in report.selection.selected:
            assert entry.representative.cycles <= 1
        assert report.final_cycles <= report.baseline_cycles
