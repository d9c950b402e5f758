"""Tests for the engine tournament harness (:mod:`repro.eval.tournament`).

Covers the race mechanics on a real crc32 hot block: every registered
engine appears exactly once, rows are ordered best-saving first, the
per-block budget is respected, renders are well-formed, and the JSON
record round-trips through :mod:`json`.
"""

import json

import pytest

from repro import engines
from repro.config import ExplorationParams
from repro.core.flow import ISEDesignFlow
from repro.engines import EvalBudget
from repro.engines.exact import MAX_EXACT_NODES
from repro.errors import ReproError
from repro.eval.tournament import (EngineRow, TournamentResult,
                                   render_tournament, run_tournament,
                                   tournament_record)
from repro.ir.passes.pipeline import optimize
from repro.sched import MachineConfig
from repro.workloads import get_workload

MACHINE = MachineConfig(2, "4/2")
FAST = ExplorationParams(max_iterations=10, restarts=1, max_rounds=2)


@pytest.fixture(scope="module")
def hot_dfgs():
    """Hot explorable crc32 blocks."""
    program, args = get_workload("crc32").build()
    flow = ISEDesignFlow(MACHINE, seed=3, max_blocks=2)
    blocks = flow.profile_blocks(optimize(program, "O3"), args=args)
    return [b.dfg for b in flow._select_hot_blocks(blocks)]


@pytest.fixture(scope="module")
def tourney(hot_dfgs):
    """One small full-field tournament shared by the read-only tests."""
    return run_tournament(hot_dfgs, MACHINE, budget=15, params=FAST,
                          seed=3, batch=1)


class TestRace:
    def test_every_registered_engine_races_once(self, tourney):
        raced = [row.engine for row in tourney.rows]
        assert sorted(raced) == sorted(engines.available())
        assert len(raced) == len(set(raced))

    def test_rows_ordered_best_saving_first(self, tourney):
        savings = [row.saving for row in tourney.rows]
        assert savings == sorted(savings, reverse=True)
        assert tourney.winner is tourney.rows[0]

    def test_budget_respected_per_block(self, tourney, hot_dfgs):
        assert tourney.budget == 15
        assert tourney.num_blocks == len(hot_dfgs)
        for row in tourney.rows:
            assert row.budget == 15
            assert row.evaluations <= 15 * len(hot_dfgs)
            assert row.evaluations > 0

    def test_rows_are_consistent(self, tourney, hot_dfgs):
        for row in tourney.rows:
            assert isinstance(row, EngineRow)
            assert row.best_cycles <= row.base_cycles
            assert row.saving == row.base_cycles - row.best_cycles
            assert 0.0 <= row.cache_hit_rate <= 1.0
            assert row.wall_s >= 0.0
            assert 0 <= row.exhausted_blocks <= len(hot_dfgs)
            assert 0 <= row.declined_blocks <= len(hot_dfgs)
            assert len(row.blocks) == len(hot_dfgs)
            assert sum(base for __, __, base, __ in row.blocks) == \
                row.base_cycles
            assert sum(final for __, __, __, final in row.blocks) == \
                row.best_cycles

    def test_common_baseline_across_engines(self, tourney):
        bases = {row.base_cycles for row in tourney.rows}
        assert len(bases) == 1

    def test_finals_rederived_on_race_machine(self, tourney, hot_dfgs):
        # ``si`` explores on a 1-issue view of the machine; its row
        # reports what its ISEs buy on the raced 2-issue machine.
        row = next(row for row in tourney.rows if row.engine == "si")
        probe = engines.create("aco", MACHINE, params=FAST, seed=3,
                               batch=1)
        si = engines.create("si", MACHINE, params=FAST, seed=3, batch=1)
        believed, rederived = [], []
        for dfg in hot_dfgs:
            si.budget = EvalBudget(15)
            result = si.explore(dfg, jobs=1)
            believed.append(result.final_cycles)
            rederived.append(probe._evaluate(
                dfg, result.candidates, probe._default_tables(dfg)))
        assert [final for __, __, __, final in row.blocks] == rederived
        assert rederived != believed

    def test_exact_declines_blocks_above_its_cap(self, tourney, hot_dfgs):
        row = next(row for row in tourney.rows if row.engine == "exact")
        too_big = [dfg for dfg in hot_dfgs
                   if len(dfg.groupable_nodes()) > MAX_EXACT_NODES]
        assert row.declined_blocks == len(too_big) > 0
        assert row.exhausted_blocks == 0
        declined = {(dfg.function, dfg.label) for dfg in too_big}
        for function, label, base, final in row.blocks:
            if (function, label) in declined:
                assert final == base
        assert all(r.declined_blocks == 0 for r in tourney.rows
                   if r.engine != "exact")

    def test_subset_of_names(self, hot_dfgs):
        result = run_tournament(hot_dfgs[:1], MACHINE, budget=8,
                                names=["greedy", "isegen"], params=FAST,
                                seed=3, batch=1)
        assert sorted(row.engine for row in result.rows) == \
            ["greedy", "isegen"]

    def test_unknown_name_raises(self, hot_dfgs):
        with pytest.raises(ReproError, match="unknown engine"):
            run_tournament(hot_dfgs[:1], MACHINE, budget=8,
                           names=["nope"], params=FAST, seed=3)

    def test_deterministic_rerun(self, hot_dfgs, tourney):
        again = run_tournament(hot_dfgs, MACHINE, budget=15, params=FAST,
                               seed=3, batch=1)
        key = lambda r: [(row.engine, row.base_cycles, row.best_cycles,
                          row.candidates, row.evaluations)
                         for row in r.rows]
        assert key(again) == key(tourney)


class TestReporting:
    def test_render_contains_every_engine(self, tourney):
        text = render_tournament(tourney)
        assert "budget 15 eval(s)/block" in text
        for row in tourney.rows:
            assert row.engine in text
        assert len(text.splitlines()) == 3 + len(tourney.rows)

    def test_record_round_trips_through_json(self, tourney):
        record = tournament_record(tourney)
        clone = json.loads(json.dumps(record))
        assert clone["budget_per_block"] == 15
        assert clone["blocks"] == tourney.num_blocks
        assert len(clone["engines"]) == len(tourney.rows)
        for entry, row in zip(clone["engines"], tourney.rows):
            assert entry["engine"] == row.engine
            assert entry["saving"] == row.saving
            assert entry["declined_blocks"] == row.declined_blocks
            assert len(entry["per_block"]) == len(row.blocks)
            assert all(":" in block["block"]
                       for block in entry["per_block"])

    def test_result_is_frozen(self, tourney):
        with pytest.raises(Exception):
            tourney.rows[0].engine = "other"
        assert isinstance(tourney, TournamentResult)
