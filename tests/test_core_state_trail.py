"""Tests for the ACO state: trails, merits, cp/sp probabilities."""

import gc
import weakref

import pytest

from repro.config import ExplorationParams, ISEConstraints
from repro.core.iteration import IterationSchedule
from repro.core.state import ExplorationState
from repro.core.trail import update_trails
from repro.hwlib import DEFAULT_DATABASE, DEFAULT_TECHNOLOGY, \
    default_io_table
from repro.sched import MachineConfig

from conftest import chain_dfg, diamond_dfg


def make_state(dfg, **overrides):
    params = ExplorationParams(**overrides)
    tables = {uid: default_io_table(dfg.op(uid), DEFAULT_DATABASE)
              for uid in dfg.nodes}
    return ExplorationState(dfg, tables, params)


def greedy_schedule(dfg, state, hardware=()):
    """Deterministic schedule: given nodes pick their first hw option."""
    machine = MachineConfig(2, "4/2")
    sched = IterationSchedule(dfg, machine, DEFAULT_TECHNOLOGY,
                              ISEConstraints())
    for uid in dfg.nodes:                      # program order = topological
        options = state.options[uid]
        if uid in hardware:
            option = next(o for o in options if o.is_hardware)
            sched.schedule_hardware(uid, option)
        else:
            option = next(o for o in options if o.is_software)
            sched.schedule_software(uid, option)
    return sched.verify()


class TestStateInit:
    def test_initial_values(self):
        dfg = chain_dfg(3)
        state = make_state(dfg)
        sw_key = (0, "SW")
        assert state.trail[sw_key] == 0.0
        assert state.merit[sw_key] == 100.0
        hw_keys = [k for k in state.merit if k[0] == 0 and k[1] != "SW"]
        assert all(state.merit[k] == 200.0 for k in hw_keys)

    def test_sp_term_tracks_children(self):
        dfg = diamond_dfg()
        state = make_state(dfg)
        assert state.sp_term[3] == max(state.sp_term.values())

    def test_option_lookup(self):
        dfg = chain_dfg(2)
        state = make_state(dfg)
        assert state.option(0, "SW").is_software
        assert all(o.is_hardware for o in state.hardware_options(0))

    def test_dropped_state_is_freed_without_the_cyclic_collector(self):
        from repro.core.merit import update_merits

        dfg = diamond_dfg()
        enabled = gc.isenabled()
        gc.disable()
        try:
            state = make_state(dfg)
            update_merits(dfg, state, greedy_schedule(dfg, state, {1, 2}),
                          ISEConstraints())
            state.trail[(0, "SW")] = 1.0
            assert state.round_memo is not None
            ref = weakref.ref(state)
            del state
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestProbabilities:
    def test_cp_weights_cover_ready_matrix(self):
        dfg = chain_dfg(3)
        state = make_state(dfg)
        weights = state.cp_weights_batch().tolist()
        pairs = state.slot_pairs()
        assert len(weights) == len(pairs)
        assert {uid for uid, __ in pairs} == set(dfg.nodes)
        assert all(w > 0 for w in weights)

    def test_sp_sums_to_one(self):
        dfg = chain_dfg(2)
        state = make_state(dfg)
        sp = state.sp_of(0)
        assert sum(sp.values()) == pytest.approx(1.0)

    def test_taken_option_follows_trail(self):
        dfg = chain_dfg(2)
        state = make_state(dfg)
        label = state.options[0][1].label       # a hardware option
        state.trail[(0, label)] = 1e6
        option, prob = state.taken_option(0)
        assert option.label == label
        assert prob > 0.9

    def test_convergence_detection(self):
        dfg = chain_dfg(2)
        state = make_state(dfg, p_end=0.9)
        assert not state.converged()
        for uid in dfg.nodes:
            state.trail[(uid, "SW")] = 1e9
        assert state.converged()

    def test_normalize_merits_scale(self):
        dfg = chain_dfg(2)
        state = make_state(dfg)
        state.merit[(0, "SW")] = 1e9
        state.normalize_merits()
        keys = state.keys_of(0)
        total = sum(state.merit[k] for k in keys)
        assert total == pytest.approx(state.params.merit_scale * len(keys))

    def test_normalize_handles_zero_vector(self):
        dfg = chain_dfg(2)
        state = make_state(dfg)
        for key in state.keys_of(0):
            state.merit[key] = 0.0
        state.normalize_merits()
        assert all(state.merit[k] == pytest.approx(100.0)
                   for k in state.keys_of(0))


class TestTrailUpdate:
    def test_improvement_rewards_chosen(self):
        dfg = chain_dfg(3)
        state = make_state(dfg)
        schedule = greedy_schedule(dfg, state)
        tet = update_trails(state, schedule, {}, None)
        assert tet == schedule.makespan
        assert state.trail[(0, "SW")] == state.params.rho1
        hw_label = state.options[0][1].label
        assert state.trail[(0, hw_label)] == 0.0      # clipped at zero

    def test_regression_punishes_chosen(self):
        dfg = chain_dfg(3)
        state = make_state(dfg)
        schedule = greedy_schedule(dfg, state)
        # Pretend previous iteration was much faster.
        new_ref = update_trails(state, schedule, dict(schedule.order), 0)
        assert new_ref == 0                      # reference kept
        hw_label = state.options[0][1].label
        assert state.trail[(0, hw_label)] == state.params.rho4

    def test_reorder_penalty(self):
        dfg = chain_dfg(3)
        state = make_state(dfg)
        schedule = greedy_schedule(dfg, state)
        prev_order = {uid: order + 10 for uid, order
                      in schedule.order.items()}
        update_trails(state, schedule, prev_order, 0)  # regression + moved
        hw_label = state.options[0][1].label
        expected = state.params.rho4 - state.params.rho5
        assert state.trail[(0, hw_label)] == pytest.approx(expected)

    def test_equal_time_counts_as_improvement(self):
        dfg = chain_dfg(2)
        state = make_state(dfg)
        schedule = greedy_schedule(dfg, state)
        tet = update_trails(state, schedule, {}, schedule.makespan)
        assert tet == schedule.makespan
        assert state.trail[(0, "SW")] == state.params.rho1
