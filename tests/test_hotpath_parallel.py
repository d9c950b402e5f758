"""Parity and edge cases for the hot-path overhaul.

The array-backed state, incremental cluster geometry and the process
pool are pure performance work: at any ``jobs`` setting the engine must
return *bit-identical* results to a serial run — same candidates, same
per-iteration TET traces, same reports.  These tests pin that contract,
plus the edge cases of the roulette draw, merit normalisation and jobs
resolution.
"""

import pytest

from repro.config import ExplorationParams
from repro.core import parallel
from repro.core.flow import ISEDesignFlow
from repro.core.parallel import parallel_map, resolve_jobs
from repro.core.state import ExplorationState
from repro.engines.aco import AcoEngine
from repro.errors import ConfigError, ReproError
from repro.eval.runner import EvalContext
from repro.hwlib import DEFAULT_DATABASE, default_io_table
from repro.sched import MachineConfig
from repro.workloads import get_workload

from conftest import chain_dfg, diamond_dfg, lockstep_draw


def _result_signature(result):
    """Everything observable about an exploration outcome."""
    return {
        "final": result.final_cycles,
        "base": result.base_cycles,
        "rounds": result.rounds,
        "iterations": result.iterations,
        "traces": result.traces,
        "candidates": [
            (sorted(c.members),
             sorted((uid, c.option_of[uid].label) for uid in c.members),
             c.cycles, repr(c.delay_ns), repr(c.area), c.cycle_saving)
            for c in result.candidates
        ],
    }


def _hot_dfgs(workload_name, max_blocks=2):
    """The hot explorable block DFGs of one workload at -O3."""
    program, args = get_workload(workload_name).build()
    flow = ISEDesignFlow(MachineConfig(2, "4/2"), seed=3,
                        max_blocks=max_blocks)
    from repro.ir.passes.pipeline import optimize
    blocks = flow.profile_blocks(optimize(program, "O3"), args=args)
    hot = flow._select_hot_blocks(blocks)
    return [b.dfg for b in hot]


class TestParallelParity:
    def test_explore_serial_vs_jobs2(self):
        dfgs = _hot_dfgs("crc32")
        params = ExplorationParams(max_iterations=40, restarts=2,
                                   max_rounds=3)
        explorer = AcoEngine(MachineConfig(2, "4/2"),
                             params=params, seed=11)
        for dfg in dfgs:
            serial = explorer.explore(dfg, jobs=1)
            pooled = explorer.explore(dfg, jobs=2)
            assert _result_signature(serial) == _result_signature(pooled)

    def test_explore_many_matches_blockwise(self):
        dfgs = _hot_dfgs("bitcount")
        params = ExplorationParams(max_iterations=30, restarts=2,
                                   max_rounds=3)
        explorer = AcoEngine(MachineConfig(2, "4/2"),
                             params=params, seed=5)
        serial = [explorer.explore(dfg, jobs=1) for dfg in dfgs]
        pooled = explorer.explore_many(dfgs, jobs=2)
        assert ([_result_signature(r) for r in serial]
                == [_result_signature(r) for r in pooled])

    def test_flow_report_identical_across_jobs(self):
        program, args = get_workload("crc32").build()
        params = ExplorationParams(max_iterations=30, restarts=2,
                                   max_rounds=3)
        reports = []
        for jobs in (1, 2):
            flow = ISEDesignFlow(MachineConfig(2, "4/2"), params=params,
                                 seed=9, max_blocks=2, jobs=jobs)
            explored = flow.explore_application(program, args=args,
                                                opt_level="O3")
            report = flow.evaluate(explored)
            reports.append((report.baseline_cycles, report.final_cycles,
                            report.num_ises, repr(report.area)))
        assert reports[0] == reports[1]


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(parallel.JOBS_ENV, raising=False)
        assert resolve_jobs() == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setattr(parallel, "_available_cpus", lambda: 8)
        monkeypatch.setenv(parallel.JOBS_ENV, "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(2) == 2            # explicit beats env

    def test_auto_uses_cpu_count(self):
        assert resolve_jobs("auto") >= 1
        assert resolve_jobs(0) == resolve_jobs("auto")

    def test_clamps_to_available_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "_available_cpus", lambda: 2)
        assert resolve_jobs(16) == 2
        assert resolve_jobs(2) == 2
        assert resolve_jobs(1) == 1
        monkeypatch.setenv(parallel.JOBS_ENV, "64")
        assert resolve_jobs() == 2             # env requests clamp too

    def test_clamp_emits_effective_gauge(self, monkeypatch):
        from repro.obs.observer import Observer

        monkeypatch.setattr(parallel, "_available_cpus", lambda: 4)
        obs = Observer()
        assert resolve_jobs(32, obs=obs) == 4
        assert obs.metrics.snapshot()["gauges"]["jobs.effective"] == 4

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            resolve_jobs("many")
        with pytest.raises(ConfigError):
            resolve_jobs(-2)

    def test_workers_never_nest(self, monkeypatch):
        monkeypatch.setattr(parallel, "_in_worker", True)
        assert resolve_jobs(8) == 1

    def test_parallel_map_keeps_order(self):
        tasks = [(index,) for index in range(7)]
        assert parallel_map(_square, tasks, 3) == \
            [index * index for index in range(7)]


def _square(value):
    return value * value


class TestRouletteEdges:
    """Edges of the ant runner's draw (one ready operation, options
    ``a``/``b``/``c`` weighted as given)."""

    WEIGHTS = [1.0, 2.0, 1.0]

    def test_extremes_hit_first_and_last(self):
        assert lockstep_draw(self.WEIGHTS, 0.0)[0] == "a"
        assert lockstep_draw(self.WEIGHTS, 1.0)[0] == "c"

    def test_mass_proportionality(self):
        assert lockstep_draw(self.WEIGHTS, 0.5)[0] == "b"

    def test_single_entry(self):
        assert lockstep_draw([0.25], 0.7)[0] == "a"

    def test_all_zero_weights_draws_uniformly(self):
        # Degenerate wheel: the draw must spread over the entries, not
        # collapse onto one of them.
        weights = [0.0, 0.0]
        assert lockstep_draw(weights, 0.0)[0] == "a"
        assert lockstep_draw(weights, 0.49)[0] == "a"
        assert lockstep_draw(weights, 0.51)[0] == "b"
        assert lockstep_draw(weights, 0.9)[0] == "b"
        # rng.random() beyond [0, 1) (only possible from a fake) still
        # lands on a valid entry.
        assert lockstep_draw(weights, 1.0)[0] == "b"

    def test_all_zero_weights_consumes_one_draw(self):
        # The degenerate path must consume exactly one rng.random(),
        # like the proportional path, so later draws are unshifted.
        assert lockstep_draw([0.0, 0.0], 0.25)[1] == 1
        assert lockstep_draw([1.0, 1.0], 0.25)[1] == 1


class TestStateEdges:
    @staticmethod
    def _state(dfg, **overrides):
        params = ExplorationParams(**overrides)
        tables = {uid: default_io_table(dfg.op(uid), DEFAULT_DATABASE)
                  for uid in dfg.nodes}
        return ExplorationState(dfg, tables, params)

    def test_normalize_merits_all_zero_uses_floor(self):
        state = self._state(chain_dfg(2))
        for uid in (0, 1):
            for key in state.keys_of(uid):
                state.merit[key] = 0.0
        state.normalize_merits()
        for uid in (0, 1):
            keys = state.keys_of(uid)
            values = [state.merit[k] for k in keys]
            assert all(v == values[0] > 0.0 for v in values)
            total = sum(values)
            assert total == pytest.approx(
                state.params.merit_scale * len(keys))

    def test_option_map_lookup_matches_tables(self):
        dfg = diamond_dfg()
        state = self._state(dfg)
        for uid in dfg.nodes:
            for option in state.options[uid]:
                assert state.option(uid, option.label) is option
        from repro.errors import ExplorationError
        with pytest.raises(ExplorationError):
            state.option(0, "NO-SUCH-LABEL")


class TestEvalContextGuards:
    def test_empty_workloads_raise(self):
        with pytest.raises(ReproError):
            EvalContext(workload_names=[])

    def test_unknown_profile_raises(self):
        with pytest.raises(ReproError):
            EvalContext(profile="warp")
