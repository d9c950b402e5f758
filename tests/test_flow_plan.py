"""The evaluation plan: budget-invariant work done once per exploration.

:meth:`ISEDesignFlow.evaluate` caches merging and every (block, merged
ISE) match proposal on the explored application, and memoises each
block's schedule per ordered selection.  These tests pin that the cache
never changes an answer: warm reports equal cold ones and the pre-plan
one-shot computation at every budget and in any order, tied proposals
keep their selection-order winner, the expensive steps run once, the
pickled bundle is unchanged and concurrent evaluates agree with serial.
"""

import pickle
import random
import sys
import threading

import pytest

from repro import api
from repro.config import ExplorationParams, ISEConstraints
from repro.core import flow as flow_module
from repro.core import replacement
from repro.core.candidate import ISECandidate
from repro.core.flow import ISEDesignFlow
from repro.core.merging import is_single_asfu, merge_candidates
from repro.core.replacement import (
    ReplacementPlan,
    plan_block_replacements,
    replace_and_schedule,
    schedule_with_ises,
)
from repro.core.selection import select_ises
from repro.hwlib import DEFAULT_DATABASE, DEFAULT_TECHNOLOGY
from repro.sched import MachineConfig
from repro.workloads import get_workload

from conftest import dfg_from_block

#: Every (area, ISE count) pair of the paper's budget sweeps.
BUDGETS = [(area, ises) for area in (20_000, 80_000, 320_000)
           for ises in (1, 2, 4, None)]

PARAMS = ExplorationParams(max_iterations=20, restarts=1, max_rounds=4)

#: name -> (machine, flow constraints)
CONFIGS = {
    "single-asfu": (lambda: MachineConfig(2, "4/2"), None),
    "two-asfu": (lambda: MachineConfig(3, "6/3", fu_counts={"asfu": 2}),
                 None),
    "one-cycle": (lambda: MachineConfig(2, "4/2"),
                  ISEConstraints(max_ise_cycles=1)),
}


def _explore(config, workload="adpcm"):
    make_machine, constraints = CONFIGS[config]
    program, args = get_workload(workload).build()
    flow = ISEDesignFlow(make_machine(), params=PARAMS, seed=2,
                         max_blocks=3, constraints=constraints)
    return flow, flow.explore_application(program, args=args,
                                          opt_level="O3")


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def explored_case(request):
    return _explore(request.param)


def _summary(report):
    return (report.final_cycles, report.area, report.num_ises,
            [entry.representative.describe()
             for entry in report.selection.selected],
            sorted(report.block_results.items()))


def _one_shot(flow, explored, constraints, enable_sharing):
    """The evaluation without any plan: merge, select, replace per block."""
    merged = merge_candidates(explored.candidates,
                              single_asfu=is_single_asfu(flow.machine))
    selection = select_ises(merged, constraints,
                            enable_sharing=enable_sharing)
    final = 0
    blocks = {}
    for instance in explored.blocks:
        if instance.freq <= 0:
            continue
        cycles = instance.base_cycles
        if instance.explorable and selection.selected:
            schedule, __ = replace_and_schedule(
                instance.dfg, selection.selected, flow.machine,
                flow.technology, flow.constraints, priority=flow.priority)
            cycles = min(schedule.makespan, cycles)
        blocks[(instance.function, instance.label)] = cycles
        final += instance.freq * (cycles + 1)
    return (final, selection.area, selection.count,
            [entry.representative.describe()
             for entry in selection.selected],
            sorted(blocks.items()))


class TestColdWarmParity:
    @pytest.mark.parametrize("enable_sharing", [True, False])
    def test_every_budget_in_shuffled_orders(self, explored_case,
                                             enable_sharing):
        flow, explored = explored_case
        cold = {}
        for area, ises in BUDGETS:
            constraints = ISEConstraints(max_area=area, max_ises=ises)
            fresh = pickle.loads(pickle.dumps(explored))   # no plan
            cold[area, ises] = _summary(flow.evaluate(
                fresh, constraints, enable_sharing=enable_sharing))
            assert cold[area, ises] == _one_shot(
                flow, explored, constraints, enable_sharing)
        for order_seed in range(3):
            order = list(BUDGETS)
            random.Random(order_seed).shuffle(order)
            for area, ises in order:
                warm = flow.evaluate(
                    explored, ISEConstraints(max_area=area, max_ises=ises),
                    enable_sharing=enable_sharing)
                assert _summary(warm) == cold[area, ises]

    def test_plan_is_keyed_on_replacement_inputs(self, explored_case):
        flow, explored = explored_case
        plan = flow.replacement_plan(explored)
        assert flow.replacement_plan(explored) is plan
        other = ISEDesignFlow(flow.machine, params=PARAMS,
                              constraints=flow.constraints,
                              priority="depth")
        assert other.replacement_plan(explored) is not plan


def _tie_dfg():
    """Three addu -> addu -> xor sites: one cycle with the fastest
    adders, two with the slowest."""
    def body(b):
        tails = []
        for x, y, z, w in (("a", "b", "c", "d"), ("c", "d", "a", "b"),
                           ("b", "d", "a", "c")):
            tails.append(b.xor(b.addu(b.addu(x, y), z), w))
        return b.or_(b.or_(tails[0], tails[1]), tails[2])
    return dfg_from_block(body)


def _candidate(dfg, members, pick):
    option_of = {uid: pick(DEFAULT_DATABASE.hardware_options(
        dfg.op(uid).name), key=lambda option: option.delay_ns)
        for uid in members}
    return ISECandidate(dfg, members, option_of, DEFAULT_TECHNOLOGY)


class TestTiedProposals:
    def test_earlier_selected_ise_wins_ties(self):
        dfg = _tie_dfg()
        fast, slow = merge_candidates(
            [_candidate(dfg, {0, 1, 2}, min), _candidate(dfg, {0, 1, 2}, max)],
            single_asfu=False)
        assert fast.representative.option_of \
            != slow.representative.option_of
        constraints = ISEConstraints()
        # Three ASFUs run the sites side by side, so ISE latency shows.
        machine = MachineConfig(4, "10/5", fu_counts={"asfu": 3})
        plan = ReplacementPlan([fast, slow], constraints, DEFAULT_TECHNOLOGY,
                               machine=machine)
        makespans = set()
        for order in ([fast, slow], [slow, fast], [fast, slow]):
            winner = order[0].representative
            by_opcode = {dfg.op(uid).name: winner.option_of[uid]
                         for uid in winner.members}
            expected = [(frozenset(sites),
                         {uid: by_opcode[dfg.op(uid).name] for uid in sites})
                        for sites in ({0, 1, 2}, {3, 4, 5}, {6, 7, 8})]
            assert plan.groups(dfg, order) == expected
            assert plan_block_replacements(dfg, order, constraints) \
                == expected
            # The schedule memo is keyed on the selection order too.
            makespan = schedule_with_ises(dfg, expected, machine,
                                          DEFAULT_TECHNOLOGY).makespan
            assert plan.makespan(dfg, order) == makespan
            makespans.add(makespan)
        assert len(makespans) == 2


class TestRunsOnce:
    def test_matching_and_merging_once_across_budgets(self, monkeypatch):
        flow, explored = _explore("single-asfu")
        matches = {}
        merges = []
        find_matches = replacement.find_matches
        merge = flow_module.merge_candidates

        def counting_find_matches(dfg, pattern, *args, **kwargs):
            key = (id(dfg), id(pattern))
            matches[key] = matches.get(key, 0) + 1
            return find_matches(dfg, pattern, *args, **kwargs)

        def counting_merge(*args, **kwargs):
            merges.append(1)
            return merge(*args, **kwargs)

        monkeypatch.setattr(replacement, "find_matches",
                            counting_find_matches)
        monkeypatch.setattr(flow_module, "merge_candidates", counting_merge)
        for enable_sharing in (True, False):
            for area, ises in BUDGETS:
                flow.evaluate(explored,
                              ISEConstraints(max_area=area, max_ises=ises),
                              enable_sharing=enable_sharing)
        plan = flow.replacement_plan(explored)
        segments = sum(1 for b in explored.blocks
                       if b.freq > 0 and b.explorable)
        assert len(merges) == 1
        assert matches and set(matches.values()) == {1}
        assert len(matches) <= segments * len(plan.merged)


class TestPickles:
    def test_bundle_pickle_unchanged_by_evaluates(self):
        flow, explored = _explore("single-asfu", workload="crc32")
        before = pickle.dumps(explored)
        for area, ises in BUDGETS:
            flow.evaluate(explored, ISEConstraints(max_area=area,
                                                   max_ises=ises))
        assert explored._plans
        assert pickle.dumps(explored) == before
        assert pickle.loads(before)._plans == {}


class TestConcurrentEvaluates:
    def test_threads_sharing_one_result_match_serial(self):
        fast = dict(profile="quick", iterations=10, restarts=1, seed=4)
        reference = api.explore("crc32", **fast)
        serial = {(area, ises): api.evaluate(reference, max_area=area,
                                             max_ises=ises)
                  for area, ises in BUDGETS}
        shared = api.explore("crc32", **fast)
        barrier = threading.Barrier(4)
        results, errors = [], []

        def worker(order_seed):
            order = list(BUDGETS)
            random.Random(order_seed).shuffle(order)
            try:
                barrier.wait()
                for area, ises in order:
                    results.append(((area, ises), api.evaluate(
                        shared, max_area=area, max_ises=ises)))
            except Exception as error:     # noqa: BLE001 - recorded
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)        # interleave the plan fills
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 4 * len(BUDGETS)
        for budget, selection in results:
            assert selection == serial[budget]
