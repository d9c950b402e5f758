"""Tests for the pluggable engine protocol (:mod:`repro.engines`).

Four contracts, checked on all seven built-in engines:

* **registry** — registration, lazy lookup, error paths (unknown names
  raise :class:`~repro.errors.ReproError` listing the valid set);
* **budget metering** — an engine stopped at ``EvalBudget(N)`` performed
  exactly ``N`` uncached evaluations (cache hits free, charge before
  compute);
* **determinism** — same seed → same result per engine, serially and
  with the work fanned over ``jobs=2`` pool workers;
* **protocol conformance** — every registered engine explores a real
  hot block end-to-end, returns a well-formed
  :class:`~repro.engines.base.ExplorationResult` stamped with its name,
  and only ever fixes constraint-legal candidates.

``exact`` refuses blocks above its groupable-node cap, so it runs on
small fuzz blocks (``small_dfgs``) wherever the others run on crc32.
"""

import warnings

import pytest

from repro import engines
from repro.config import ExplorationParams
from repro.core.flow import ISEDesignFlow
from repro.engines import EvalBudget, ExplorerEngine
from repro.engines.aco import AcoEngine
from repro.engines.base import EngineStats
from repro.errors import (BudgetExhausted, ConfigError,
                          ExplorationError, ReproError)
from repro.graph.fuzz import random_dfg
from repro.ir.passes.pipeline import optimize
from repro.sched import MachineConfig
from repro.workloads import get_workload

MACHINE = MachineConfig(2, "4/2")
FAST = ExplorationParams(max_iterations=12, restarts=2, max_rounds=3)
ENGINES = ["aco", "si", "isegen", "greedy", "annealing", "exact",
           "genetic"]


@pytest.fixture(scope="module")
def hot_dfgs():
    """Hot explorable crc32 blocks (one real, one trivial)."""
    program, args = get_workload("crc32").build()
    flow = ISEDesignFlow(MACHINE, seed=3, max_blocks=2)
    blocks = flow.profile_blocks(optimize(program, "O3"), args=args)
    return [b.dfg for b in flow._select_hot_blocks(blocks)]


@pytest.fixture(scope="module")
def small_dfgs():
    """Fuzz blocks inside ``exact``'s groupable-node cap."""
    return [random_dfg(seed, n_nodes=12) for seed in (1, 3)]


@pytest.fixture
def blocks(name, hot_dfgs, small_dfgs):
    """The blocks engine ``name`` is exercised on."""
    return small_dfgs if name == "exact" else hot_dfgs


def _engine(name, **kwargs):
    kwargs.setdefault("params", FAST)
    kwargs.setdefault("seed", 3)
    kwargs.setdefault("batch", 1)
    return engines.create(name, MACHINE, **kwargs)


def _signature(result):
    return (result.base_cycles, result.final_cycles, result.rounds,
            result.iterations,
            tuple(tuple(sorted(c.members)) for c in result.candidates))


class TestRegistry:
    def test_builtins_registered(self):
        names = engines.available()
        assert set(ENGINES) <= set(names)
        assert names == tuple(sorted(names))

    def test_describe_and_lazy_class(self):
        assert "ant-colony" in engines.describe("aco")
        assert engines.engine_class("aco") is AcoEngine
        assert issubclass(engines.engine_class("isegen"), ExplorerEngine)

    def test_unknown_name_lists_valid_set(self):
        with pytest.raises(ReproError, match="unknown engine 'nope'"):
            engines.create("nope", MACHINE)
        with pytest.raises(ReproError, match="aco"):
            engines.describe("nope")
        with pytest.raises(ReproError):
            engines.engine_class("nope")
        with pytest.raises(ReproError):
            engines.unregister("nope")

    def test_register_and_unregister_custom(self):
        class MyEngine(ExplorerEngine):
            """Test-only engine."""
            name = "custom-test"
            description = "a throwaway test engine"

        engines.register("custom-test", MyEngine)
        try:
            assert "custom-test" in engines.available()
            assert engines.describe("custom-test") == \
                "a throwaway test engine"
            instance = engines.create("custom-test", MACHINE)
            assert isinstance(instance, MyEngine)
            with pytest.raises(ReproError, match="already registered"):
                engines.register("custom-test", MyEngine)
            engines.register("custom-test", MyEngine, replace=True,
                             description="replaced")
            assert engines.describe("custom-test") == "replaced"
        finally:
            engines.unregister("custom-test")
        assert "custom-test" not in engines.available()

    def test_register_rejects_bad_names(self):
        with pytest.raises(ReproError):
            engines.register("", ExplorerEngine)
        with pytest.raises(ReproError):
            engines.register(None, ExplorerEngine)

    def test_flow_and_api_validate_engine_early(self):
        with pytest.raises(ReproError, match="unknown engine"):
            ISEDesignFlow(MACHINE, engine="nope")
        import repro
        with pytest.raises(ReproError, match="unknown engine"):
            repro.explore("crc32", engine="nope")

    def test_list_engines_matches_registry(self):
        import repro
        listed = repro.list_engines()
        assert tuple(name for name, __ in listed) == engines.available()
        assert all(description for __, description in listed)


class TestBudget:
    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            EvalBudget(0)
        budget = EvalBudget(2)
        assert budget.remaining == 2 and not budget.exhausted
        budget.charge()
        budget.charge()
        assert budget.exhausted and not budget.denied
        with pytest.raises(BudgetExhausted):
            budget.charge()
        assert budget.denied and budget.spent == 2

    @pytest.mark.parametrize("name", ENGINES)
    @pytest.mark.parametrize("limit", [1, 5])
    def test_stopped_engine_spent_exactly_n(self, blocks, name, limit):
        budget = EvalBudget(limit)
        engine = _engine(name, budget=budget)
        try:
            engine.explore(blocks[0])
        except BudgetExhausted:
            pass          # died before the block baseline: still metered
        assert engine.stat_evaluations == budget.spent
        assert budget.spent <= limit
        if budget.denied:
            assert budget.spent == limit

    def test_unbudgeted_stats_have_no_budget_fields(self, hot_dfgs):
        engine = _engine("greedy")
        engine.explore(hot_dfgs[0])
        stats = engine.stats()
        assert isinstance(stats, EngineStats)
        assert stats.budget_spent is None and stats.budget_limit is None
        assert stats.evaluations == engine.stat_evaluations > 0
        assert 0.0 <= stats.cache_hit_rate <= 1.0

    def test_budget_outcome_no_worse_with_more_evals(self, hot_dfgs):
        tight = _engine("isegen", budget=EvalBudget(3))
        roomy = _engine("isegen", budget=EvalBudget(200))
        a = tight.explore(hot_dfgs[0])
        b = roomy.explore(hot_dfgs[0])
        assert b.final_cycles <= a.final_cycles


class TestDeterminism:
    @pytest.mark.parametrize("name", ENGINES)
    def test_same_seed_same_result(self, blocks, name):
        first = _engine(name).explore(blocks[0])
        second = _engine(name).explore(blocks[0])
        assert _signature(first) == _signature(second)

    @pytest.mark.parametrize("name", ENGINES)
    def test_serial_matches_pooled(self, blocks, name):
        serial = _engine(name).explore_many(blocks, jobs=1)
        pooled = _engine(name).explore_many(blocks, jobs=2)
        assert [_signature(r) for r in serial] == \
            [_signature(r) for r in pooled]

    def test_different_seeds_allowed_to_differ(self, hot_dfgs):
        # Not an equality assertion — just that seed reaches the RNG:
        # both runs are valid explorations of the same block.
        a = _engine("aco", seed=3).explore(hot_dfgs[0])
        b = _engine("aco", seed=4).explore(hot_dfgs[0])
        assert a.base_cycles == b.base_cycles


class TestProtocolConformance:
    @pytest.mark.parametrize("name", ENGINES)
    def test_explore_contract(self, blocks, name):
        engine = _engine(name)
        assert engine.name == name
        assert engine.description
        result = engine.explore(blocks[0])
        assert result.engine == name
        assert result.final_cycles <= result.base_cycles
        assert result.cycle_saving == \
            result.base_cycles - result.final_cycles
        for candidate in result.candidates:
            candidate.validate(engine.constraints)
            assert candidate.members <= set(blocks[0].nodes)

    @pytest.mark.parametrize("name", ENGINES)
    def test_explore_many_matches_per_block(self, blocks, name):
        engine = _engine(name)
        many = engine.explore_many(blocks, jobs=1)
        singles = [_engine(name).explore(dfg) for dfg in blocks]
        assert [_signature(r) for r in many] == \
            [_signature(r) for r in singles]

    @pytest.mark.parametrize("name", ["si", "isegen", "greedy",
                                      "annealing", "genetic"])
    def test_flow_runs_with_engine(self, name):
        program, args = get_workload("bitcount").build()
        flow = ISEDesignFlow(MACHINE, params=FAST, seed=3, max_blocks=1,
                             engine=name)
        report = flow.run(program, args=args, opt_level="O3")
        assert report.final_cycles <= report.baseline_cycles
        assert 0.0 <= report.reduction < 1.0


    def test_flow_refuses_blocks_above_exact_cap(self):
        program, args = get_workload("crc32").build()
        flow = ISEDesignFlow(MACHINE, params=FAST, seed=3, max_blocks=1,
                             engine="exact")
        with pytest.raises(ExplorationError, match="groupable nodes"):
            flow.explore_application(program, args=args, opt_level="O3")


class _TypeErrorEngine(ExplorerEngine):
    """Test-only engine whose batch entry point fails with TypeError."""

    name = "typeerror-test"
    calls = 0

    def explore_many(self, dfgs, jobs=None, costs=None):
        type(self).calls += 1
        raise TypeError("raised inside the engine")


class TestFlowEngine:
    def test_default_flow_engine_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            flow = ISEDesignFlow(MACHINE, params=FAST, seed=3)
            engine = flow._create_explorer()
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]
        assert type(engine) is AcoEngine

    def test_engine_type_error_propagates_after_one_call(self):
        # The flow calls explore_many once; an error from inside the
        # engine is never mistaken for a missing ``costs`` keyword.
        engines.register("typeerror-test", _TypeErrorEngine)
        _TypeErrorEngine.calls = 0
        try:
            program, args = get_workload("crc32").build()
            flow = ISEDesignFlow(MACHINE, seed=3, max_blocks=2,
                                 engine="typeerror-test")
            with pytest.raises(TypeError, match="inside the engine"):
                flow.explore_application(program, args=args,
                                         opt_level="O3")
        finally:
            engines.unregister("typeerror-test")
        assert _TypeErrorEngine.calls == 1
