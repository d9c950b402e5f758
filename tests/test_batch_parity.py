"""The table-driven lockstep step against its frozen numpy oracle.

``tests/batch_oracle.py`` keeps the matrix step (successor matrix,
masked ``cumsum`` roulette, staged first-fit probes) and the kernels it
used; it places through ``tests/placement_oracle.py``, the frozen
tracker-based placement path with a separate first-fit and commit.
Here the production runner and kernels are held to them: the same
schedules — cluster ports, delays and growth ceilings, reservation rows
and placement tallies included — and the same RNG position on random
and real DFGs at widths 1, 4 and 16 with trail/merit feedback between
batches, the same reservation-table results, the same ASFU delays and
the same shedding choice.
"""

import pickle
import random

import pytest

import batch_oracle as oracle
import placement_oracle
from repro.config import ExplorationParams, ISEConstraints
from repro.core import iteration
from repro.core.batch import BatchedAntRunner
from repro.core.candidate import ISECandidate
from repro.core.contract import contract_candidate
from repro.core.flow import ISEDesignFlow
from repro.core.make_convex import _worst_boundary_node, legalize_components
from repro.core.merit import update_merits
from repro.core.state import ExplorationState
from repro.core.trail import update_trails
from repro.engines.aco import AcoEngine, _schedule_key
from repro.errors import ConfigError, SchedulingError
from repro.graph import DFG
from repro.graph.analysis import input_values, output_values
from repro.graph.fuzz import random_dfg
from repro.hwlib import (
    DEFAULT_DATABASE,
    DEFAULT_TECHNOLOGY,
    HardwareOption,
    default_io_table,
)
from repro.hwlib.asfu import subgraph_delay_ns
from repro.ir.passes.pipeline import optimize
from repro.isa.instruction import Operation
from repro.sched import MachineConfig
from repro.sched.resources import Needs, ReservationTable
from repro.workloads import get_workload

MACHINES = (MachineConfig(2, "4/2"), MachineConfig(4, "8/4"),
            MachineConfig(1, "2/1"))


def _hot_dfgs(workload_name):
    program, args = get_workload(workload_name).build()
    flow = ISEDesignFlow(MachineConfig(2, "4/2"), seed=3, max_blocks=2)
    blocks = flow.profile_blocks(optimize(program, "O3"), args=args)
    return [b.dfg for b in flow._select_hot_blocks(blocks)]


def _tables(dfg):
    return {uid: default_io_table(dfg.op(uid), DEFAULT_DATABASE)
            for uid in dfg.nodes}


def _signature(schedule):
    table = schedule.table
    return (
        dict(schedule.start),
        {uid: option.label for uid, option in schedule.chosen.items()},
        [(sorted(c.members), c.start, c.cycles, c.needs.reads,
          c.needs.writes, c.delay_ns, c.min_ext_start)
         for c in schedule.clusters],
        dict(schedule.order),
        schedule.makespan,
        table._use[:, :table._hi].tolist(),
        (table.stat_first_fit_scans, table.stat_scan_cycles,
         schedule.stat_cluster_opens, schedule.stat_cluster_joins,
         schedule.stat_join_rejects),
    )


def _assert_runner_parity(dfg, machine, width, seed, batches=4):
    """Both runners over ``batches`` lockstep batches, each followed by
    the engine's batch-best trail and merit update on its own state."""
    tables = _tables(dfg)
    params = ExplorationParams()
    engine = AcoEngine(machine, params=params, seed=0, batch=width)
    sides = []
    for runner_class in (BatchedAntRunner, oracle.NumpyAntRunner):
        state = ExplorationState(dfg, tables, params,
                                 priority=engine.priority)
        runner = runner_class(dfg, state, machine, engine.technology,
                              engine.constraints)
        sides.append((state, runner, random.Random(seed)))
    feedback = [(None, {}), (None, {})]
    for __ in range(batches):
        built = []
        for side, (state, runner, rng) in enumerate(sides):
            schedules = runner.run(rng, width)
            best = min(schedules, key=_schedule_key)
            tet_old, prev_order = feedback[side]
            tet_old = update_trails(state, best, prev_order, tet_old)
            feedback[side] = (tet_old, dict(best.order))
            update_merits(dfg, state, best, engine.constraints)
            built.append([_signature(schedule) for schedule in schedules])
        assert built[0] == built[1]
    assert sides[0][2].random() == sides[1][2].random()


class TestRunnerParity:
    @pytest.mark.parametrize("width", [1, 4, 16])
    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_dfgs(self, width, seed):
        dfg = random_dfg(seed, n_nodes=8 + 7 * seed)
        _assert_runner_parity(dfg, MACHINES[seed % len(MACHINES)],
                              width, seed)

    @pytest.mark.parametrize("width", [1, 4, 16])
    @pytest.mark.parametrize("workload", ["crc32", "blowfish"])
    def test_hot_blocks(self, workload, width):
        for index, dfg in enumerate(_hot_dfgs(workload)):
            _assert_runner_parity(dfg, MACHINES[0], width, 11 + index)

    def test_construction_leaves_dfg_pickles_unchanged(self):
        """Ant construction, legalisation and ASFU delays build the
        walk tables but never change what the DFG pickles to."""
        dfg = _hot_dfgs("crc32")[0]
        params = ExplorationParams()
        engine = AcoEngine(MachineConfig(2, "4/2"), params=params, seed=0)
        # The state's set-up builds the adjacency cache and networkx's
        # cached views, both of which pickle.
        state = ExplorationState(dfg, _tables(dfg), params)
        before = pickle.dumps(dfg)
        runner = BatchedAntRunner(dfg, state, engine.machine,
                                  engine.technology, engine.constraints)
        for schedule in runner.run(random.Random(2), 16):
            for members, option_of in schedule.ise_groups():
                subgraph_delay_ns(dfg, members, option_of.__getitem__)
            legalize_components(dfg, schedule.hardware_chosen_set(),
                                engine.constraints)
        assert dfg._tables is not None
        assert pickle.dumps(dfg) == before
        assert pickle.loads(before)._tables is None

    def test_exploration_never_pickles_the_walk_tables(self):
        dfg = _hot_dfgs("crc32")[0]
        params = ExplorationParams(max_iterations=20, restarts=1,
                                   max_rounds=2)
        AcoEngine(MachineConfig(2, "4/2"), params=params,
                  seed=1).explore(dfg, jobs=1)
        assert dfg._tables is not None
        explored = pickle.dumps(dfg)
        dfg._tables = None
        assert pickle.dumps(dfg) == explored
        assert pickle.loads(explored)._tables is None

    def test_mutation_drops_the_walk_tables(self):
        dfg = random_dfg(3, n_nodes=12)
        tables = dfg.tables()
        assert dfg.tables() is tables
        src, dst = dfg.edge_pairs()[0]
        dfg.add_data_edge(src, dst, "fresh")
        assert dfg.tables() is not tables
        assert "fresh" in dict(dfg.tables().data_out[src])[dst]
        # A direct output_nodes edit is caught by the freshness check.
        tables = dfg.tables()
        uid = next(uid for uid in dfg.nodes if uid not in dfg.output_nodes)
        dfg.output_nodes.add(uid)
        assert dfg.tables() is not tables
        assert dfg.tables().output_flags[dfg.tables().index[uid]]


# -- join-path geometry recounted over bit rows ---------------------------------

class TestTrackerReadsWalkTables:
    def test_counts_match_the_set_formulas(self):
        """Members added in random (not topological) order, on fuzz
        DFGs whose value names have several producers: every join
        preview's ``IN``/``OUT`` recount over the grown bit row equals
        ``IN``/``OUT`` of the grown set, its member-consumes test names
        the members consuming the new node, and the previewed cluster's
        row is unchanged until the join commits."""
        multi_producer = 0
        for seed in range(60):
            rng = random.Random(seed)
            dfg = random_dfg(seed, n_nodes=rng.randrange(4, 48))
            producers = {}
            for uid in dfg.nodes:
                for value in dfg.op(uid).dests:
                    producers.setdefault(value, set()).add(uid)
            multi_producer += any(len(uids) > 1
                                  for uids in producers.values())
            tables = dfg.tables()
            order = rng.sample(dfg.nodes, rng.randrange(1, len(dfg) + 1))
            members, row, idxs = set(), 0, ()
            for uid in order:
                index = tables.index[uid]
                grown_row, grown_idxs = row | (1 << index), idxs + (index,)
                grown = members | {uid}
                assert tables.in_count(grown_row, grown_idxs) == len(
                    input_values(dfg, grown))
                assert tables.out_count(grown_row, grown_idxs) == len(
                    output_values(dfg, grown))
                consumers = tables.dsucc_bits[index] & row
                assert {member for member in members
                        if consumers >> tables.index[member] & 1} == {
                    succ for succ in dfg.data_successors(uid)
                    if succ in members}
                assert tables.in_count(row, idxs) == len(
                    input_values(dfg, members))
                members, row, idxs = grown, grown_row, grown_idxs
        assert multi_producer

    def test_rejected_join_leaves_the_cluster_unchanged(self):
        """Random hardware/software walks over fuzz DFGs: a join probe
        that rejects changes no cluster field, reservation row or
        membership, and the walk's schedule equals the frozen tracker
        placement's on the same walk."""
        rejected = 0
        for seed in range(40):
            rng = random.Random(seed)
            dfg = random_dfg(seed, n_nodes=rng.randrange(6, 40))
            machine = MACHINES[seed % len(MACHINES)]
            engine = AcoEngine(machine, seed=0)
            tables = _tables(dfg)
            schedule, frozen = (
                module.IterationSchedule(dfg, machine, engine.technology,
                                         engine.constraints)
                for module in (iteration, placement_oracle))
            try_join = schedule._try_join

            def checked(cluster, uid, option):
                before = _cluster_state(schedule, cluster)
                if try_join(cluster, uid, option):
                    return True
                assert _cluster_state(schedule, cluster) == before
                nonlocal rejected
                rejected += 1
                return False

            schedule._try_join = checked
            remaining = {uid: len(dfg.predecessors(uid))
                         for uid in dfg.nodes}
            ready = sorted(uid for uid, n in remaining.items() if not n)
            while ready:
                uid = ready.pop(rng.randrange(len(ready)))
                option = rng.choice(tables[uid].hardware
                                    + tables[uid].software)
                for side in (schedule, frozen):
                    if option.is_hardware:
                        side.schedule_hardware(uid, option)
                    else:
                        side.schedule_software(uid, option)
                for succ in dfg.successors(uid):
                    remaining[succ] -= 1
                    if not remaining[succ]:
                        ready.append(succ)
            assert _signature(schedule) == _signature(frozen)
        assert rejected


def _cluster_state(schedule, cluster):
    table = schedule.table
    return (set(cluster.members), cluster.row, cluster.idxs,
            dict(cluster.option_of), cluster.start, cluster.cycles,
            cluster.delay_ns, cluster.needs, dict(cluster.longest),
            cluster.min_ext_start, table._use[:, :table._hi].tolist(),
            dict(schedule.cluster_of))


# -- reservation-table kernels ------------------------------------------------

def _random_table(rng, machine, placements):
    table = ReservationTable(machine)
    placed = []
    for __ in range(placements):
        needs = Needs(reads=rng.randrange(3), writes=rng.randrange(2),
                      fu_kind=rng.choice(["alu", "asfu", "mul"]))
        cycle = table.reserve(needs, not_before=rng.randrange(6))
        placed.append((cycle, needs))
    return table, placed


def _copy(table):
    return pickle.loads(pickle.dumps(table))


def _usage(table):
    return [table.usage(cycle) for cycle in range(table._hi + 2)]


class TestTryResize:
    def test_matches_release_fits_place(self):
        rng = random.Random(5)
        outcomes = set()
        for trial in range(400):
            machine = MACHINES[trial % len(MACHINES)]
            table, placed = _random_table(rng, machine, rng.randrange(1, 14))
            cycle, old = rng.choice(placed)
            new = Needs(reads=rng.randrange(6), writes=rng.randrange(4),
                        fu_kind=rng.choice(["asfu", old.fu_kind, "alu"]))
            reference = _copy(table)
            expected = oracle.resize(reference, cycle, old, new)
            assert table.try_resize(cycle, old, new) == expected
            assert _usage(table) == _usage(reference)
            table.verify_nonnegative()
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_rejected_resize_leaves_the_table_unchanged(self):
        machine = MachineConfig(1, "2/1")
        table = ReservationTable(machine)
        old = Needs(reads=1, writes=1, fu_kind="asfu")
        table.place(0, old)
        before = _usage(table)
        assert not table.try_resize(0, old, Needs(reads=3, writes=1,
                                                  fu_kind="asfu"))
        assert _usage(table) == before

    @pytest.mark.parametrize("cycle, old", [
        (5, Needs(reads=1)),                 # beyond every placement
        (-1, Needs(reads=1)),
        (0, Needs(reads=4, writes=1)),       # more than was placed
        (0, Needs(fu_kind="mul")),           # a unit never placed
    ])
    def test_resize_without_matching_place(self, cycle, old):
        table = ReservationTable(MachineConfig(2, "4/2"))
        table.place(0, Needs(reads=2, writes=1, fu_kind="alu"))
        new = Needs(reads=1, fu_kind="asfu")
        with pytest.raises(SchedulingError) as expected:
            oracle.resize(_copy(table), cycle, old, new)
        with pytest.raises(SchedulingError) as raised:
            table.try_resize(cycle, old, new)
        assert str(raised.value) == str(expected.value)


class TestScan:
    def test_matches_numpy_scan_and_tally(self):
        rng = random.Random(9)
        for trial in range(400):
            machine = MACHINES[trial % len(MACHINES)]
            table, __ = _random_table(rng, machine, rng.randrange(30))
            needs = Needs(reads=rng.randrange(3), writes=rng.randrange(2),
                          fu_kind=rng.choice(["alu", "asfu", "mul"]),
                          issue=rng.randrange(2))
            start = rng.randrange(table._hi + 3)
            stop = rng.randrange(table._hi + 3)
            expected = oracle.scan(table, start, stop, needs)
            before = table.stat_scan_cycles
            assert table._scan(start, stop,
                               table._check_rows(needs)) == expected
            assert table.stat_scan_cycles - before == max(0, stop - start)

    def test_first_fit_scan_cycles(self):
        """``reserve`` keeps adding ``stop - start`` of each first-fit
        scan."""
        table = ReservationTable(MachineConfig(1, "2/1"))
        for cycle in range(4):
            table.place(cycle, Needs(reads=2, writes=1))
        table.place(5, Needs(reads=2, writes=1))
        needs = Needs(reads=1)
        assert table.reserve(needs) == 4
        assert table.stat_scan_cycles == 5     # cycles 1..5 scanned
        assert table.reserve(needs, not_before=5) == 6
        assert table.stat_scan_cycles == 5     # 6 is past the prefix
        assert table.stat_first_fit_scans == 2


class TestReserve:
    def test_matches_first_fit_then_place(self):
        """The fused reserve against the frozen table's ``first_fit``
        then ``place``: the same cycles, rows and tallies, and the same
        error on a demand the machine can never meet."""
        rng = random.Random(13)
        demands = [Needs(reads=reads, writes=writes, fu_kind=kind,
                         issue=issue)
                   for reads in range(4) for writes in range(3)
                   for kind in ("alu", "asfu", "mul", "fpu")
                   for issue in (0, 1)]
        raised = 0
        for trial in range(300):
            machine = MACHINES[trial % len(MACHINES)]
            table = ReservationTable(machine)
            frozen = placement_oracle.ReservationTable(machine)
            for __ in range(rng.randrange(1, 40)):
                needs = rng.choice(demands)
                not_before = rng.randrange(12)
                try:
                    expected = frozen.first_fit(needs, not_before=not_before)
                except SchedulingError as error:
                    with pytest.raises(SchedulingError) as got:
                        table.reserve(needs, not_before=not_before)
                    assert str(got.value) == str(error)
                    raised += 1
                    continue
                frozen.place(expected, needs)
                assert table.reserve(needs, not_before=not_before) == expected
                assert table._hi == frozen._hi
                assert (table._use[:, :table._hi].tolist()
                        == frozen._use[:, :frozen._hi].tolist())
                assert ((table.stat_first_fit_scans, table.stat_scan_cycles)
                        == (frozen.stat_first_fit_scans,
                            frozen.stat_scan_cycles))
        assert raised


# -- ASFU delay ordered by the DFG's topological rank ----------------------------

def _contracted(seed):
    """A fuzz DFG with one or two legal candidates contracted into it."""
    dfg = random_dfg(seed, n_nodes=30)
    tables = _tables(dfg)
    rng = random.Random(seed)
    for __ in range(2):
        groupable = [uid for uid in dfg.nodes
                     if tables[uid].hardware and dfg.op(uid).groupable]
        if len(groupable) < 2:
            break
        pieces = legalize_components(
            dfg, rng.sample(groupable, min(10, len(groupable))),
            ISEConstraints())
        if not pieces:
            continue
        members = max(pieces, key=len)
        option_of = {uid: tables[uid].hardware[0] for uid in members}
        candidate = ISECandidate(dfg, members, option_of,
                                 DEFAULT_TECHNOLOGY)
        dfg, tables = contract_candidate(dfg, candidate, tables)
    return dfg


class TestRankOrderedDelay:
    def test_matches_kahn_on_contracted_dfgs(self):
        inverted = 0
        for seed in range(30):
            dfg = _contracted(seed)
            rng = random.Random(seed)
            delay = {uid: HardwareOption("HW", delay_ns=rng.uniform(0.1, 7),
                                         area=1.0)
                     for uid in dfg.nodes}
            inverted += any(succ < uid for uid in dfg.nodes
                            for succ in dfg.successors(uid))
            for __ in range(20):
                members = rng.sample(dfg.nodes,
                                     rng.randrange(1, len(dfg) + 1))
                assert (subgraph_delay_ns(dfg, members, delay.__getitem__)
                        == oracle.subgraph_delay_ns(dfg, members,
                                                    delay.__getitem__))
        # Uid order is not topological on these graphs: the rank matters.
        assert inverted

    def test_cyclic_dfg_keeps_the_config_error(self):
        dfg = DFG()
        for uid in range(3):
            dfg.add_operation(Operation(uid, "addu", sources=("a",),
                                        dests=("v{}".format(uid),)))
        dfg.add_data_edge(0, 1, "v0")
        dfg.add_data_edge(1, 0, "v1")
        dfg.add_data_edge(1, 2, "v1")
        assert dfg.tables().rank is None
        option = HardwareOption("HW", delay_ns=2.0, area=1.0)
        for members in ({0, 1}, {0, 1, 2}):
            with pytest.raises(ConfigError, match="cycle"):
                subgraph_delay_ns(dfg, members, lambda uid: option)
        assert subgraph_delay_ns(dfg, {1, 2}, lambda uid: option) == 4.0


# -- shedding choice of legalisation -----------------------------------------------

class TestWorstBoundaryNode:
    def test_matches_set_based_formula(self):
        checked = 0
        for seed in range(120):
            rng = random.Random(seed)
            dfg = random_dfg(seed, n_nodes=rng.randrange(4, 64))
            for __ in range(8):
                size = rng.randrange(1, min(40, len(dfg)) + 1)
                piece = set(rng.sample(dfg.nodes, size))
                assert (_worst_boundary_node(dfg, piece)
                        == oracle.worst_boundary_node(dfg, piece))
                checked += 1
        assert checked == 960
