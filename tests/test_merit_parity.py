"""Component-pass Hardware-Grouping and the flat merit sweep against
their frozen per-seed oracle.

``tests/merit_oracle.py`` keeps one ``grown_group`` walk and one full
delay/area pass per (seed, option), and merit writes through the
state's mapping view.  Here the production sweep is held to it after
every update of a lockstep round: the same merit vector bytes, and the
same virtual groups — members in the same iteration order, the same
delay, cycles and area bits — on random DFGs, on the crc32, blowfish,
jpeg and fft hot blocks, and on DFGs with ISEs contracted into them, at
widths 1 and 16.
"""

import random

import pytest

import merit_oracle as oracle
from repro.config import ExplorationParams, ISEConstraints
from repro.core import grouping
from repro.core.batch import BatchedAntRunner
from repro.core.candidate import ISECandidate
from repro.core.contract import contract_candidate
from repro.core.flow import ISEDesignFlow
from repro.core.grouping import hardware_grouping
from repro.core.iteration import IterationSchedule
from repro.core.make_convex import legalize_components
from repro.core.merit import update_merits
from repro.core.state import ExplorationState
from repro.core.trail import update_trails
from repro.engines.aco import AcoEngine, _schedule_key
from repro.graph import DFG
from repro.graph.fuzz import random_dfg
from repro.hwlib import DEFAULT_DATABASE, DEFAULT_TECHNOLOGY, \
    default_io_table
from repro.ir.passes.pipeline import optimize
from repro.isa.instruction import Operation
from repro.sched import MachineConfig
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


def _contracted(seed):
    """A fuzz DFG with up to two legal candidates contracted into it,
    and its io tables (the supernodes carry ISE options)."""
    dfg = random_dfg(seed, n_nodes=36)
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
    return dfg, tables


def group_signature(groups):
    """Everything a virtual group carries, floats as exact bits."""
    return [(key, group.seed, group.option.label, tuple(group.members),
             group.delay_ns.hex(), group.cycles, group.area.hex())
            for key, group in groups.items()]


def _assert_merit_parity(dfg, tables, machine, width, seed, batches=5):
    """A lockstep round on the production state; after every batch the
    oracle state takes the same trail and merit update."""
    params = ExplorationParams()
    engine = AcoEngine(machine, params=params, seed=0, batch=width)
    ours = ExplorationState(dfg, tables, params, priority=engine.priority)
    theirs = ExplorationState(dfg, tables, params, priority=engine.priority)
    memo = oracle.new_memo()
    runner = BatchedAntRunner(dfg, ours, machine, engine.technology,
                              engine.constraints)
    rng = random.Random(seed)
    feedback = [(None, {}), (None, {})]
    for __ in range(batches):
        best = min(runner.run(rng, width), key=_schedule_key)
        assert (group_signature(hardware_grouping(dfg, ours, best))
                == group_signature(
                    oracle.hardware_grouping(dfg, theirs, best)))
        for side, state in enumerate((ours, theirs)):
            tet_old, prev_order = feedback[side]
            tet_old = update_trails(state, best, prev_order, tet_old)
            feedback[side] = (tet_old, dict(best.order))
        update_merits(dfg, ours, best, engine.constraints)
        oracle.update_merits(dfg, theirs, best, engine.constraints, memo)
        assert ours._merit_vec.tobytes() == theirs._merit_vec.tobytes()
        assert ours._trail_vec.tobytes() == theirs._trail_vec.tobytes()


class TestMeritParity:
    @pytest.mark.parametrize("width", [1, 16])
    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_dfgs(self, width, seed):
        dfg = random_dfg(seed, n_nodes=8 + 7 * seed)
        _assert_merit_parity(dfg, _tables(dfg),
                             MACHINES[seed % len(MACHINES)], width, seed)

    @pytest.mark.parametrize("width", [1, 16])
    @pytest.mark.parametrize("workload",
                             ["crc32", "blowfish", "jpeg", "fft"])
    def test_hot_blocks(self, workload, width):
        for index, dfg in enumerate(_hot_dfgs(workload)):
            _assert_merit_parity(dfg, _tables(dfg), MACHINES[0], width,
                                 5 + index, batches=3)

    @pytest.mark.parametrize("width", [1, 16])
    @pytest.mark.parametrize("seed", range(4))
    def test_contracted_round_dfgs(self, width, seed):
        dfg, tables = _contracted(seed)
        assert max(dfg.nodes) >= 36        # a supernode is in play
        _assert_merit_parity(dfg, tables, MACHINES[seed % 2], width, seed)


def _colliding_dfg():
    """A chain 0 -> 8 -> 16 -> 24 -> 32 of two-option ALU ops between
    unrelated fillers: the chain's uids share their slot in any small
    set table, so each seed's walk fills the set in its own order."""
    dfg = DFG()
    chain = (0, 8, 16, 24, 32)
    opcodes = ("addu", "subu", "sltu", "addu", "subu")
    previous = "a"
    for uid in range(40):
        if uid in chain:
            op = Operation(uid, opcodes[chain.index(uid)],
                           sources=(previous, "b"),
                           dests=("v{}".format(uid),))
            dfg.add_operation(op, ext_inputs=("b",) if uid else ("a", "b"))
            if uid:
                dfg.add_data_edge(previous_uid, uid, previous)
            previous, previous_uid = "v{}".format(uid), uid
        else:
            dfg.add_operation(Operation(uid, "xor", sources=("c", "d"),
                                        dests=("f{}".format(uid),)),
                              ext_inputs=("c", "d"))
    dfg.output_nodes.add(32)
    return dfg, chain


class TestCollidingComponent:
    def _schedule(self, dfg, state, hardware):
        schedule = IterationSchedule(dfg, MachineConfig(4, "8/4"),
                                     DEFAULT_TECHNOLOGY,
                                     ISEConstraints(n_in=8, n_out=4))
        for index, uid in enumerate(dfg.nodes):
            options = state.options[uid]
            if uid in hardware:
                hw = state.hardware_options(uid)
                schedule.schedule_hardware(uid, hw[index % len(hw)])
            else:
                schedule.schedule_software(
                    uid, next(o for o in options if o.is_software))
        return schedule.verify()

    def test_member_order_and_area_follow_each_seeds_walk(self,
                                                          monkeypatch):
        dfg, chain = _colliding_dfg()
        tables = _tables(dfg)
        params = ExplorationParams()
        walks = []
        real = grouping.grown_group

        def counted(*args):
            walks.append(args[1])
            return real(*args)

        monkeypatch.setattr(grouping, "grown_group", counted)
        for hardware in (set(chain), set(chain) - {16}):
            ours = ExplorationState(dfg, tables, params)
            theirs = ExplorationState(dfg, tables, params)
            schedule = self._schedule(dfg, ours, hardware)
            got = hardware_grouping(dfg, ours, schedule)
            assert (group_signature(got) == group_signature(
                oracle.hardware_grouping(dfg, theirs, schedule)))
            update_merits(dfg, ours, schedule, ISEConstraints())
            oracle.update_merits(dfg, theirs, schedule, ISEConstraints(),
                                 oracle.new_memo())
            assert ours._merit_vec.tobytes() == theirs._merit_vec.tobytes()
        # Every seed walked, and it mattered: seeds of the one
        # component iterate their members in different orders.
        assert set(walks) >= set(chain)
        orders = {tuple(got[(uid, label)].members)
                  for uid in chain if uid in hardware
                  for label in [ours.hardware_options(uid)[0].label]}
        assert len(orders) > 1
