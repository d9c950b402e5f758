"""Parity of ISE replacement with the frozen networkx oracle.

``replacement_oracle`` keeps the proposal matching, chain lengths and
greedy pick replacement used before each pick extended an open prefix
contraction and before legal matches were memoised per DFG.  These
tests hold the production code to it: the same proposals, groups and
makespans on every explored block of the seven workloads, the same
groups on fuzz proposals built to include mutually entangled groups,
and match-memo hits that return what a cold match returns.
"""

import functools
import pickle
import random
from operator import itemgetter

import pytest

import replacement_oracle as oracle
import sched_oracle
from repro.config import ExplorationParams, ISEConstraints
from repro.core import replacement
from repro.core.flow import ISEDesignFlow
from repro.core.replacement import (
    ReplacementPlan,
    legal_matches,
    replace_and_schedule,
)
from repro.core.selection import select_ises
from repro.graph.analysis import is_convex, is_legal
from repro.graph.fuzz import random_dfg
from repro.graph.subgraph import find_matches, match_memo, pattern_graph
from repro.hwlib import DEFAULT_TECHNOLOGY, HardwareOption
from repro.sched import MachineConfig
from repro.sched.units import block_skeleton
from repro.workloads import get_workload, workload_names

from conftest import dfg_from_block

PARAMS = ExplorationParams(max_iterations=20, restarts=1, max_rounds=4)
MACHINE = MachineConfig(2, "4/2")

#: Every (area, ISE count) pair of the paper's budget sweeps.
BUDGETS = [(area, ises) for area in (20_000, 80_000, 320_000)
           for ises in (1, 2, 4, None)]


@pytest.fixture(scope="module")
def explored_workloads():
    explored = []
    for name in workload_names():
        program, args = get_workload(name).build()
        flow = ISEDesignFlow(MACHINE, params=PARAMS, seed=2)
        explored.append((flow, flow.explore_application(
            program, args=args, opt_level="O3")))
    return explored


def _oracle_makespan(dfg, groups, machine, technology, priority):
    graph, units = sched_oracle.contract_dfg(dfg, groups, technology)
    start = sched_oracle.list_schedule(graph, units, machine,
                                       priority=priority)
    return max((start[uid] + units[uid].latency for uid in start),
               default=0)


def _selections(plan):
    """Every budget's selection plus all merged ISEs in both orders."""
    selections = [list(plan.merged), list(reversed(plan.merged))]
    for area, ises in BUDGETS:
        for sharing in (True, False):
            selections.append(select_ises(
                plan.merged, ISEConstraints(max_area=area, max_ises=ises),
                enable_sharing=sharing).selected)
    return [selected for selected in selections if selected]


class TestWorkloadParity:
    def test_proposals_groups_and_makespans_match_oracle(
            self, explored_workloads):
        checked = picked = 0
        for flow, explored in explored_workloads:
            plan = flow.replacement_plan(explored)
            selections = _selections(plan)
            for instance in explored.blocks:
                if instance.freq <= 0 or not instance.explorable:
                    continue
                dfg = instance.dfg
                expected = {}
                for index, entry in enumerate(plan.merged):
                    expected[id(entry)] = oracle.match_proposals(
                        dfg, entry.representative, flow.constraints,
                        flow.technology)
                    # Within one ISE the sort keys are distinct, and the
                    # pick sorts on them: the matchers' orders may differ.
                    assert sorted(plan.proposals(dfg, index),
                                  key=itemgetter(0)) == sorted(
                        expected[id(entry)], key=itemgetter(0))
                for selected in selections:
                    groups = oracle.choose_groups(dfg, [
                        proposal for entry in selected
                        for proposal in expected[id(entry)]])
                    assert plan.groups(dfg, selected) == groups
                    makespan = _oracle_makespan(
                        dfg, groups, flow.machine, flow.technology,
                        flow.priority)
                    assert plan.makespan(dfg, selected) == makespan
                    schedule, one_shot = replace_and_schedule(
                        dfg, selected, flow.machine, flow.technology,
                        flow.constraints, priority=flow.priority)
                    assert one_shot == groups
                    assert schedule.makespan == makespan
                    checked += 1
                    picked += len(groups)
        assert checked > 100 and picked > 100

    def test_one_shot_opens_only_the_bare_prefix(self, explored_workloads):
        # The one-shot path schedules the contraction its pick built: it
        # contracts nothing a second time through the prefix memo.
        flow, explored = explored_workloads[0]
        plan = flow.replacement_plan(explored)
        fresh = pickle.loads(pickle.dumps(explored))   # empty memos
        for copy in fresh.blocks:
            if copy.freq <= 0 or not copy.explorable:
                continue
            __, groups = replace_and_schedule(
                copy.dfg, plan.merged, flow.machine, flow.technology,
                flow.constraints, priority=flow.priority)
            assert list(block_skeleton(copy.dfg).open_memo) == [
                ((), flow.technology, id(None))]
            if len(groups) > 1:
                return
        pytest.fail("no block took two replacements")


def _connected_convex_groups(dfg, rng, count):
    """Up to ``count`` random connected groups of 2-4 nodes, each convex
    in ``dfg`` on its own."""
    nodes = list(dfg.nodes)
    groups = []
    for __ in range(count):
        members = {rng.choice(nodes)}
        for __ in range(rng.randint(1, 3)):
            frontier = sorted({node for member in members
                               for node in dfg.neighbours(member)
                               if node not in members})
            if not frontier:
                break
            members.add(rng.choice(frontier))
        if len(members) > 1 and is_convex(dfg, members):
            groups.append(frozenset(members))
    return groups


def _entangled_rejections(dfg, proposals):
    """Disjoint picks the oracle rejects only for a joint cycle."""
    used = set()
    picked = []
    rejected = 0
    for __, members, __ in sorted(proposals, key=itemgetter(0)):
        if members & used:
            continue
        if not oracle.jointly_acyclic(dfg, picked + [members]):
            rejected += 1
            continue
        picked.append(members)
        used |= members
    return rejected


class TestFuzzProposals:
    def test_entangled_groups_rejected_like_oracle(self):
        rng = random.Random(2026)
        option = HardwareOption("HW", delay_ns=2.0, area=1.0)
        rejected = 0
        for seed in range(40):
            dfg = random_dfg(seed, n_nodes=rng.choice((16, 32, 48)))
            proposals = []
            for members in _connected_convex_groups(dfg, rng, 40):
                key = (-rng.randint(1, 4), -len(members), sorted(members))
                proposals.append((key, members,
                                  dict.fromkeys(members, option)))
            expected = oracle.choose_groups(dfg, proposals)
            groups, contraction = replacement._choose_groups(
                dfg, proposals, DEFAULT_TECHNOLOGY)
            assert groups == expected
            graph = contraction.graph()
            assert list(graph.nodes) == list(sched_oracle.contract_dfg(
                dfg, expected, DEFAULT_TECHNOLOGY)[0].nodes)
            # Without a technology the pick is the same and the
            # contraction keeps its structure but no units.
            bare, structure = replacement._choose_groups(dfg, proposals)
            assert bare == expected and structure.units is None
            assert structure.graph().edges == graph.edges
            rejected += _entangled_rejections(dfg, proposals)
        assert rejected > 0


def _pairs_dfg():
    """Six identical addu -> xor pairs: combinatorially many matches."""
    def body(b):
        outs = []
        for __ in range(6):
            t = b.addu("a", "b")
            outs.append(b.xor(t, "c"))
        acc = outs[0]
        for other in outs[1:]:
            acc = b.or_(acc, other)
        return acc
    return dfg_from_block(body)


def _cold(dfg, pattern, constraints, **caps):
    return [members for members in find_matches(dfg, pattern, constraints,
                                                 **caps)
            if is_legal(dfg, members, constraints)]


class TestMatchMemo:
    def test_hit_returns_the_cold_matches(self):
        dfg = _pairs_dfg()
        constraints = ISEConstraints()
        first = pattern_graph(dfg, {0, 1})
        same_shape = pattern_graph(dfg, {2, 3})
        assert first is not same_shape
        matches, hit = legal_matches(dfg, first, constraints)
        assert not hit and list(matches) == _cold(dfg, first, constraints)
        again, hit = legal_matches(dfg, same_shape, constraints)
        assert hit and again is matches
        assert list(again) == _cold(dfg, same_shape, constraints)
        # Legality reads the port limits, so they are part of the key.
        narrow = ISEConstraints(n_in=1)
        __, hit = legal_matches(dfg, first, narrow)
        assert not hit

    def test_capped_enumerations_cut_at_the_same_point(self, monkeypatch):
        monkeypatch.setattr(replacement, "find_matches", functools.partial(
            find_matches, max_matches=3))
        dfg = _pairs_dfg()
        constraints = ISEConstraints()
        first = pattern_graph(dfg, {0, 1})
        same_shape = pattern_graph(dfg, {4, 5})
        capped, hit = legal_matches(dfg, first, constraints)
        assert not hit and 0 < len(capped) <= 3
        again, hit = legal_matches(dfg, same_shape, constraints)
        assert hit
        assert list(again) == _cold(dfg, same_shape, constraints,
                                    max_matches=3)

    def test_warm_plan_proposals_equal_a_cold_plan(self, explored_workloads):
        flow, explored = explored_workloads[0]
        warm = flow.replacement_plan(explored)
        fresh = pickle.loads(pickle.dumps(explored))   # empty match memos
        cold = ReplacementPlan(warm.merged, flow.constraints,
                               flow.technology)
        for instance, copy in zip(explored.blocks, fresh.blocks):
            if instance.freq <= 0 or not instance.explorable:
                continue
            assert copy.dfg._matches is None
            for index in range(len(warm.merged)):
                assert warm.proposals(instance.dfg, index) == \
                    cold.proposals(copy.dfg, index)
        assert cold.match_misses > 0
        assert warm.match_hits + warm.match_misses > 0

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(replacement, "MATCH_MEMO_CAP", 3)
        dfg = _pairs_dfg()
        pattern = pattern_graph(dfg, {0, 1})
        memo = match_memo(dfg)
        # The port limits are part of the key: each limit is a new entry.
        for n_in in range(1, 9):
            matches, hit = legal_matches(dfg, pattern,
                                         ISEConstraints(n_in=n_in))
            assert not hit and len(memo.matches) <= 3
            assert list(matches) == _cold(dfg, pattern,
                                          ISEConstraints(n_in=n_in))
        # The first key was cleared out: it is matched cold again.
        matches, hit = legal_matches(dfg, pattern, ISEConstraints(n_in=1))
        assert not hit and len(memo.matches) <= 3
        assert list(matches) == _cold(dfg, pattern, ISEConstraints(n_in=1))

    def test_mutation_and_output_edits_refresh_the_memo(self):
        dfg = _pairs_dfg()
        memo = match_memo(dfg)
        assert match_memo(dfg) is memo
        dfg.output_nodes.add(0)
        refreshed = match_memo(dfg)
        assert refreshed is not memo
        dfg.add_order_edge(0, max(dfg.nodes))
        assert dfg._matches is None
        assert pickle.loads(pickle.dumps(dfg))._matches is None
