"""Parity of the skeleton-based scheduling core with the networkx oracle.

``sched_oracle`` keeps the contraction, list scheduler and Make-Convex
the project used before blocks were compiled once into a
:class:`~repro.sched.units.BlockSkeleton`.  These tests hold the
production code to it on seeded random DFGs: same units, same unit
edges, same start cycles under every SP function and issue width, same
Make-Convex pieces in the same order, and the same errors.
"""

import pickle
import random

import networkx as nx
import pytest

import sched_oracle as oracle
from repro.config import ISEConstraints
from repro.core.make_convex import legalize_components, make_convex
from repro.errors import SchedulingError
from repro.graph.fuzz import random_dfg
from repro.hwlib import DEFAULT_DATABASE, DEFAULT_TECHNOLOGY, HardwareOption
from repro.hwlib.technology import Technology
from repro.sched import MachineConfig, SchedUnit, contract_dfg, list_schedule
from repro.sched import units as units_module
from repro.sched.priorities import get_priority, priority_names
from repro.sched.resources import Needs
from repro.sched.units import UnitGraph, block_skeleton

from conftest import chain_dfg, diamond_dfg

MACHINES = (MachineConfig(1, "4/2"), MachineConfig(2, "4/2"),
            MachineConfig(4, "8/4"))


def _random_groups(dfg, rng):
    """Disjoint, convex, port-legal groups whose joint contraction is a
    DAG, each with randomly drawn hardware options."""
    nodes = dfg.groupable_nodes()
    if not nodes:
        return []
    members = set(rng.sample(nodes, rng.randint(1, len(nodes))))
    constraints = ISEConstraints(n_in=rng.choice((2, 3, 4)),
                                 n_out=rng.choice((1, 2)))
    groups = []
    for piece in legalize_components(dfg, members, constraints):
        option_of = {uid: rng.choice(
            DEFAULT_DATABASE.hardware_options(dfg.op(uid).name))
            for uid in piece}
        groups.append((piece, option_of))
    while groups:
        try:
            oracle.contract_dfg(dfg, groups, DEFAULT_TECHNOLOGY)
            break
        except SchedulingError:
            groups.pop()
    return groups


def _cases(count):
    rng = random.Random(2008)
    for seed in range(count):
        dfg = random_dfg(seed, n_nodes=rng.choice((6, 16, 32, 48)))
        for __ in range(2):
            yield dfg, _random_groups(dfg, rng)


def _unit_view(units):
    return [(uid, u.latency, u.area, u.is_ise, sorted(u.members),
             u.needs.issue, u.needs.reads, u.needs.writes, u.needs.fu_kind)
            for uid, u in units.items()]


class TestContractionParity:
    def test_units_and_edges_match_oracle(self):
        for dfg, groups in _cases(40):
            graph, units = contract_dfg(dfg, groups, DEFAULT_TECHNOLOGY)
            ref_graph, ref_units = oracle.contract_dfg(
                dfg, groups, DEFAULT_TECHNOLOGY)
            assert isinstance(graph, UnitGraph)
            assert _unit_view(units) == _unit_view(ref_units)
            assert list(graph.nodes) == list(ref_graph.nodes)
            assert list(graph.edges) == list(ref_graph.edges)
            for uid in units:
                assert (tuple(graph.predecessors(uid))
                        == tuple(ref_graph.predecessors(uid)))
                assert graph.in_degree(uid) == ref_graph.in_degree(uid)
                assert graph.out_degree(uid) == ref_graph.out_degree(uid)

    def test_start_cycles_match_oracle(self):
        checked = 0
        for dfg, groups in _cases(40):
            graph, units = contract_dfg(dfg, groups, DEFAULT_TECHNOLOGY)
            ref_graph, ref_units = oracle.contract_dfg(
                dfg, groups, DEFAULT_TECHNOLOGY)
            for machine in MACHINES:
                for priority in priority_names():
                    start = list_schedule(graph, units, machine,
                                          priority=priority).start
                    assert start == oracle.list_schedule(
                        ref_graph, ref_units, machine, priority=priority)
                    checked += 1
        assert checked == 40 * 2 * len(MACHINES) * 3

    def test_software_latencies_match_oracle(self):
        rng = random.Random(7)
        for dfg, groups in _cases(10):
            cycles = {uid: rng.randint(1, 3) for uid in dfg.nodes}
            graph, units = contract_dfg(dfg, groups, DEFAULT_TECHNOLOGY,
                                        software_cycles=cycles)
            ref_graph, ref_units = oracle.contract_dfg(
                dfg, groups, DEFAULT_TECHNOLOGY, software_cycles=cycles)
            machine = MACHINES[1]
            assert list_schedule(graph, units, machine).start == \
                oracle.list_schedule(ref_graph, ref_units, machine)

    def test_networkx_input_still_scheduled(self):
        dfg = random_dfg(3, n_nodes=24)
        __, units = contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        ref_graph, __ = oracle.contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        for priority in priority_names():
            assert list_schedule(ref_graph, units, MACHINES[1],
                                 priority=priority).start == \
                oracle.list_schedule(ref_graph, units, MACHINES[1],
                                     priority=priority)

    def test_priorities_agree_across_graph_types(self):
        dfg = random_dfg(11, n_nodes=32)
        graph, units = contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        ref_graph, __ = oracle.contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        latency_of = lambda uid: units[uid].latency
        for name in priority_names():
            assert get_priority(name)(graph, latency_of) == \
                get_priority(name)(ref_graph, latency_of)


class TestMakeConvexParity:
    def test_pieces_and_their_order_match_oracle(self):
        # In 200-node blocks a set's iteration order depends on its
        # insertion order, so only the oracle's exact visiting order
        # (successors before predecessors) passes.
        rng = random.Random(5)
        for seed in range(30):
            dfg = random_dfg(seed, n_nodes=rng.choice((16, 200)))
            nodes = list(dfg.nodes)
            for __ in range(3):
                members = set(rng.sample(nodes, rng.randint(1, len(nodes))))
                pieces = make_convex(dfg, members)
                expected = oracle.make_convex(dfg, members)
                # Same pieces, same order, same element iteration order.
                assert [tuple(p) for p in pieces] == \
                    [tuple(p) for p in expected]


class TestErrorsUnchanged:
    def _fast(self):
        return HardwareOption("HW", delay_ns=2.0, area=100.0)

    def _both(self, call):
        """Error type and message from production and from the oracle."""
        raised = []
        for module in (units_module, oracle):
            with pytest.raises(SchedulingError) as info:
                call(module)
            raised.append(str(info.value))
        return raised

    def test_overlapping_groups(self):
        dfg = chain_dfg(4)
        option_of = {uid: self._fast() for uid in (1, 2, 3)}
        groups = [({1, 2}, option_of), ({2, 3}, option_of)]
        new, ref = self._both(lambda m: m.contract_dfg(
            dfg, groups, DEFAULT_TECHNOLOGY))
        assert new == ref == "ISE groups overlap on nodes [2]"

    def test_non_convex_group(self):
        dfg = chain_dfg(3)
        option_of = {0: self._fast(), 2: self._fast()}
        new, ref = self._both(lambda m: m.contract_dfg(
            dfg, [({0, 2}, option_of)], DEFAULT_TECHNOLOGY))
        assert new == ref == ("contraction produced a cycle "
                              "(non-convex ISE group)")

    def test_cyclic_networkx_graph(self):
        graph = nx.DiGraph([("a", "b"), ("b", "a")])
        units = {u: SchedUnit(u, 1, Needs(reads=1), (u,)) for u in "ab"}
        with pytest.raises(SchedulingError) as new:
            list_schedule(graph, units, MACHINES[1])
        with pytest.raises(SchedulingError) as ref:
            oracle.list_schedule(graph, units, MACHINES[1])
        assert str(new.value) == str(ref.value) == \
            "unit graph contains a cycle"

    def test_verify_rechecks_dependences(self):
        dfg = chain_dfg(3)
        graph, units = contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        schedule = list_schedule(graph, units, MACHINES[1])
        schedule.start[2] = schedule.start[1]
        with pytest.raises(SchedulingError, match="dependence 1 -> 2"):
            schedule.verify(MACHINES[1])


class TestSkeleton:
    def test_scoring_leaves_pickles_unchanged(self):
        dfg = random_dfg(4, n_nodes=32)
        dfg.nodes  # build the adjacency cache, which pickles
        before = pickle.dumps(dfg)
        rng = random.Random(1)
        for __ in range(5):
            graph, units = contract_dfg(dfg, _random_groups(dfg, rng),
                                        DEFAULT_TECHNOLOGY)
            list_schedule(graph, units, MACHINES[1])
        assert dfg._skeleton is not None
        assert pickle.dumps(dfg) == before
        assert pickle.loads(before)._skeleton is None

    def test_memo_never_answers_across_technologies(self):
        dfg = chain_dfg(4)
        slow = HardwareOption("HW", delay_ns=8.0, area=10.0)
        groups = [({1, 2}, {1: slow, 2: slow})]
        fast_clock = Technology(clock_mhz=100.0)    # 16 ns -> 2 cycles
        slow_clock = Technology(clock_mhz=50.0)     # 16 ns -> 1 cycle
        for technology, cycles in ((fast_clock, 2), (slow_clock, 1),
                                   (fast_clock, 2)):
            __, units = contract_dfg(dfg, groups, technology)
            __, ref_units = oracle.contract_dfg(dfg, groups, technology)
            assert units["ise0"].latency == ref_units["ise0"].latency \
                == cycles
        assert len(block_skeleton(dfg).ise_geometry) == 2

    def test_memo_is_capped(self, monkeypatch):
        monkeypatch.setattr(units_module, "ISE_MEMO_CAP", 3)
        dfg = chain_dfg(6)
        option = HardwareOption("HW", delay_ns=2.0, area=1.0)
        for first in range(5):
            group = {first, first + 1}
            contract_dfg(dfg, [(group, dict.fromkeys(group, option))],
                         DEFAULT_TECHNOLOGY)
            assert len(block_skeleton(dfg).ise_geometry) <= 3

    def test_mutation_and_output_edits_refresh_the_skeleton(self):
        dfg = diamond_dfg()
        option = HardwareOption("HW", delay_ns=2.0, area=1.0)
        group = {0, 1}
        groups = [(group, dict.fromkeys(group, option))]
        skeleton = block_skeleton(dfg)
        contract_dfg(dfg, groups, DEFAULT_TECHNOLOGY)
        dfg.output_nodes.add(0)
        __, units = contract_dfg(dfg, groups, DEFAULT_TECHNOLOGY)
        __, ref_units = oracle.contract_dfg(dfg, groups, DEFAULT_TECHNOLOGY)
        assert block_skeleton(dfg) is not skeleton
        assert _unit_view(units) == _unit_view(ref_units)
        dfg.add_order_edge(0, max(dfg.nodes))
        assert dfg._skeleton is None


# -- trial scoring on the per-block tables -------------------------------------

def _trials(dfg, rng, count):
    """``count`` trial candidate lists of one DFG, built like the engines
    build them: legal pieces, each list fixing earlier winners first."""
    from repro.core.candidate import ISECandidate

    trials = []
    for __ in range(count):
        candidates = [ISECandidate(dfg, members, option_of,
                                   DEFAULT_TECHNOLOGY)
                      for members, option_of in _random_groups(dfg, rng)]
        trials.append(candidates)
    return trials


def _oracle_cycles(dfg, candidates, tables, machine):
    cycles = {uid: tables[uid].software[0].cycles for uid in dfg.nodes}
    graph, units = oracle.contract_dfg(
        dfg, [(c.members, c.option_of) for c in candidates],
        DEFAULT_TECHNOLOGY, software_cycles=cycles)
    start = oracle.list_schedule(graph, units, machine)
    return max(start[uid] + units[uid].latency for uid in start)


def _frozen_key(dfg, candidates, tables):
    """The evaluation-cache key as ``_evaluate`` built it per call."""
    from repro.core.evalcache import candidate_fingerprint, dfg_fingerprint

    cycles = {uid: tables[uid].software[0].cycles
              for uid in dfg.nodes if uid in tables}
    return (dfg_fingerprint(dfg),
            tuple(candidate_fingerprint(c.members, c.option_of)
                  for c in candidates),
            tuple(sorted(cycles.items())))


class TestTrialScoring:
    def test_evaluate_matches_oracle(self):
        """Every trial is scored twice: the first pass scores each
        candidate list uncached, the second reads the memo."""
        from repro.engines.aco import AcoEngine

        rng = random.Random(17)
        checked = 0
        for seed in range(12):
            dfg = random_dfg(seed, n_nodes=rng.choice((6, 16, 32, 48)))
            machine = MACHINES[seed % len(MACHINES)]
            engine = AcoEngine(machine, seed=0, batch=1)
            tables = engine._default_tables(dfg)
            for candidates in _trials(dfg, rng, 6) * 2:
                assert (engine._evaluate(dfg, candidates, tables)
                        == _oracle_cycles(dfg, candidates, tables, machine))
                checked += 1
        assert checked == 12 * 12

    def test_adjacent_groups_keep_neighbour_order(self):
        dfg = chain_dfg(8)
        option = HardwareOption("HW", delay_ns=2.0, area=1.0)
        groups = [(members, dict.fromkeys(members, option))
                  for members in ({2, 3}, {4, 5}, {0, 1})]
        for count in range(1, 4):
            graph, units = contract_dfg(dfg, groups[:count],
                                        DEFAULT_TECHNOLOGY)
            ref_graph, ref_units = oracle.contract_dfg(
                dfg, groups[:count], DEFAULT_TECHNOLOGY)
            assert list(graph.nodes) == list(ref_graph.nodes)
            for uid in units:
                assert (tuple(graph.successors(uid))
                        == tuple(ref_graph.successors(uid)))
                assert (tuple(graph.predecessors(uid))
                        == tuple(ref_graph.predecessors(uid)))
            for machine in MACHINES:
                assert (list_schedule(graph, units, machine).start
                        == oracle.list_schedule(ref_graph, ref_units,
                                                machine))

    def test_cache_keys_equal_the_per_call_formula(self):
        from repro.core.evalcache import EvalCache
        from repro.core.pool import shared_key_bytes
        from repro.engines.base import ExplorerEngine

        rng = random.Random(5)
        dfg = random_dfg(6, n_nodes=32)
        engine = ExplorerEngine(MACHINES[1])
        tables = engine._default_tables(dfg)
        cache = EvalCache("scope")
        for candidates in _trials(dfg, rng, 8):
            __, latencies = block_skeleton(dfg).latencies(tables)
            key = cache.key(dfg, candidates, latencies)
            assert key == _frozen_key(dfg, candidates, tables)
            assert (shared_key_bytes("scope", key) == shared_key_bytes(
                "scope", _frozen_key(dfg, candidates, tables)))

    def test_budget_charges_once_per_uncached_evaluation(self):
        from repro.engines.base import EvalBudget
        from repro.engines.aco import AcoEngine

        rng = random.Random(9)
        dfg = random_dfg(8, n_nodes=32)
        trials = _trials(dfg, rng, 5)
        distinct = len({_frozen_key(dfg, c, {}) for c in trials})
        budget = EvalBudget(100)
        engine = AcoEngine(MACHINES[1], seed=0, batch=1, budget=budget)
        tables = engine._default_tables(dfg)
        for candidates in trials * 3:
            engine._evaluate(dfg, candidates, tables)
        assert budget.spent == engine.stat_evaluations == distinct

    def test_memos_stay_out_of_pickles(self):
        from repro.core.evalcache import dfg_fingerprint
        from repro.engines.aco import AcoEngine

        rng = random.Random(3)
        dfg = random_dfg(2, n_nodes=32)
        # The adjacency cache and the structural digest pickle with the
        # DFG by design; build both first.
        dfg.nodes
        dfg_fingerprint(dfg)
        trials = _trials(dfg, rng, 4)
        engine = AcoEngine(MACHINES[1], seed=0, batch=1)
        tables = engine._default_tables(dfg)
        before = pickle.dumps(dfg)
        candidate_bytes = [pickle.dumps(c) for c in trials[0]]
        engine_bytes = pickle.dumps(engine)
        for candidates in trials:
            engine._evaluate(dfg, candidates, tables)
        assert block_skeleton(dfg).latencies(tables)
        assert pickle.dumps(dfg) == before
        assert [pickle.dumps(c) for c in trials[0]] == candidate_bytes
        # The engine pickle changes only by its evaluation-cache
        # entries and its evaluation tally.
        engine._evalcache._entries.clear()
        engine.stat_evaluations = 0
        assert pickle.dumps(engine) == engine_bytes

    def test_verify_rechecks_resources(self):
        dfg = random_dfg(5, n_nodes=16)
        graph, units = contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        schedule = list_schedule(graph, units, MACHINES[0])
        for uid in schedule.start:
            schedule.start[uid] = 0
        with pytest.raises(SchedulingError, match="dependence|resources"):
            schedule.verify(MACHINES[0])
        schedule.graph = UnitGraph({uid: () for uid in units},
                                   {uid: () for uid in units})
        with pytest.raises(SchedulingError,
                           match="resources exhausted at cycle 0"):
            schedule.verify(MACHINES[0])


# -- open prefix contractions ---------------------------------------------------

def _hot_blocks():
    """The crc32 and blowfish hot blocks at -O3."""
    from repro.core.flow import ISEDesignFlow
    from repro.ir.passes.pipeline import optimize
    from repro.workloads import get_workload

    dfgs = []
    for name in ("crc32", "blowfish"):
        program, args = get_workload(name).build()
        flow = ISEDesignFlow(MACHINES[1], seed=0, max_blocks=3)
        blocks = flow.profile_blocks(optimize(program, "O3"), args=args)
        dfgs.extend(block.dfg for block in flow._select_hot_blocks(blocks))
    return dfgs


def _open_cases():
    """Fresh fuzz and hot-block DFGs, each with several jointly legal
    group lists: every prefix of a list is a prefix of the next trial."""
    rng = random.Random(2020)
    hot = [pickle.loads(pickle.dumps(dfg)) for dfg in _hot_blocks()]
    fuzz = [random_dfg(seed, n_nodes=rng.choice((16, 32, 48, 82)))
            for seed in range(16)]
    for dfg in hot + fuzz:
        for __ in range(3):
            groups = _random_groups(dfg, rng)
            if groups:
                yield dfg, groups, rng


def _graph_view(graph):
    """Insertion order, neighbour tuples and the default rank order."""
    return (list(graph.nodes),
            [(uid, tuple(graph.successors(uid)),
              tuple(graph.predecessors(uid))) for uid in graph.nodes],
            list(graph.children_ranked()
                 if isinstance(graph, UnitGraph) else sorted(
                     graph.nodes, key=lambda uid: (-graph.out_degree(uid),
                                                   str(uid)))))


class TestOpenContraction:
    def test_extensions_match_oracle(self):
        checked = 0
        hits = 0
        for dfg, groups, rng in _open_cases():
            cycles = {uid: rng.randint(1, 3) for uid in dfg.nodes}
            skeleton = block_skeleton(dfg)
            for software_cycles in (None, cycles):
                before = skeleton.prefix_hits
                # Trials: each prefix of the list plus one more group.
                for count in range(1, len(groups) + 1):
                    trial = groups[:count]
                    graph, units = contract_dfg(
                        dfg, trial, DEFAULT_TECHNOLOGY,
                        software_cycles=software_cycles)
                    ref_graph, ref_units = oracle.contract_dfg(
                        dfg, trial, DEFAULT_TECHNOLOGY,
                        software_cycles=software_cycles)
                    assert _graph_view(graph) == _graph_view(ref_graph)
                    assert _unit_view(units) == _unit_view(ref_units)
                    machine = MACHINES[count % len(MACHINES)]
                    assert list_schedule(graph, units, machine).start == \
                        oracle.list_schedule(ref_graph, ref_units, machine)
                    checked += 1
                hits += skeleton.prefix_hits - before
        assert checked > 100 and hits > 50

    def test_prefix_hit_equals_cold_build(self):
        for dfg, groups, rng in _open_cases():
            cold = pickle.loads(pickle.dumps(dfg))
            assert cold._skeleton is None
            warm_skeleton = block_skeleton(dfg)
            contract_dfg(dfg, groups, DEFAULT_TECHNOLOGY)
            before = warm_skeleton.prefix_hits
            warm_graph, warm_units = contract_dfg(dfg, groups,
                                                  DEFAULT_TECHNOLOGY)
            assert warm_skeleton.prefix_hits > before
            cold_graph, cold_units = contract_dfg(cold, groups,
                                                  DEFAULT_TECHNOLOGY)
            assert block_skeleton(cold).prefix_hits == 0
            assert _graph_view(warm_graph) == _graph_view(cold_graph)
            assert _unit_view(warm_units) == _unit_view(cold_units)

    def test_cycle_walk_agrees_with_the_oracle(self):
        # Random node sets, convex or not, on a held-open prefix: the
        # walk from the group's successors must reject exactly the sets
        # whose joint contraction has a cycle.
        rng = random.Random(4080)
        outcomes = set()
        for seed in range(24):
            dfg = random_dfg(seed, n_nodes=rng.choice((16, 32, 48)))
            option = HardwareOption("HW", delay_ns=2.0, area=1.0)
            for __ in range(6):
                prefix = _random_groups(dfg, rng)
                taken = set().union(*(members for members, __ in prefix))
                free = [uid for uid in dfg.nodes if uid not in taken]
                if len(free) < 2:
                    continue
                for __ in range(8):
                    members = set(rng.sample(free, rng.randint(
                        2, min(5, len(free)))))
                    trial = prefix + [(members,
                                       dict.fromkeys(members, option))]
                    try:
                        oracle.contract_dfg(dfg, trial, DEFAULT_TECHNOLOGY)
                        expected = None
                    except SchedulingError as error:
                        expected = str(error)
                    try:
                        contract_dfg(dfg, trial, DEFAULT_TECHNOLOGY)
                        raised = None
                    except SchedulingError as error:
                        raised = str(error)
                    assert raised == expected
                    outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_errors_after_an_open_prefix(self):
        dfg = chain_dfg(6)
        option = HardwareOption("HW", delay_ns=2.0, area=1.0)

        def group(*members):
            return (set(members), dict.fromkeys(members, option))

        cases = (
            ([group(2, 3), group(3, 4)], "ISE groups overlap on nodes [3]"),
            ([group(2, 3), group(1, 4)],
             "contraction produced a cycle (non-convex ISE group)"),
            # A bad prefix: a whole contraction reports the overlap of
            # a later group before the cycle of an earlier one.
            ([group(0, 2), group(2, 4)], "ISE groups overlap on nodes [2]"),
            ([group(0, 2), group(4, 5)],
             "contraction produced a cycle (non-convex ISE group)"),
        )
        skeleton = block_skeleton(dfg)
        for groups, text in cases:
            before = skeleton.prefix_hits
            for __ in range(2):       # a cold prefix, then a memo hit
                for module in (units_module, oracle):
                    with pytest.raises(SchedulingError) as info:
                        module.contract_dfg(dfg, groups, DEFAULT_TECHNOLOGY)
                    assert str(info.value) == text
            if groups[0][0] == {2, 3}:
                assert skeleton.prefix_hits > before

    def test_memo_is_capped_and_stays_out_of_pickles(self, monkeypatch):
        monkeypatch.setattr(units_module, "OPEN_MEMO_CAP", 3)
        dfg = chain_dfg(12)
        dfg.nodes
        before = pickle.dumps(dfg)
        option = HardwareOption("HW", delay_ns=2.0, area=1.0)
        groups = [({first, first + 1}, dict.fromkeys((first, first + 1),
                                                    option))
                  for first in range(0, 12, 2)]
        for count in range(1, len(groups) + 1):
            contract_dfg(dfg, groups[:count], DEFAULT_TECHNOLOGY)
            assert len(block_skeleton(dfg).open_memo) <= 3
        assert pickle.dumps(dfg) == before
