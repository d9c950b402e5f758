"""Property-based tests (hypothesis) for core invariants."""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ExplorationParams, ISEConstraints
from repro.core.make_convex import legalize_components, make_convex
from repro.engines.aco import AcoEngine
from repro.graph import (
    alap_schedule,
    asap_schedule,
    build_dfg,
    check_candidate,
    input_values,
    is_convex,
    is_legal,
)
from repro.hwlib import DEFAULT_TECHNOLOGY
from repro.ir import FunctionBuilder, Program, run_program
from repro.ir.analysis import liveness
from repro.ir.passes import optimize
from repro.sched import MachineConfig, contract_dfg, list_schedule

_MASK = 0xFFFFFFFF

#: Opcodes used by the random straight-line generator (register forms).
_BINARY_OPS = ("addu", "subu", "and", "or", "xor", "nor", "slt", "sltu",
               "sllv", "srlv", "mult")

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
FAST = settings(max_examples=60, deadline=None)


@st.composite
def straight_line_blocks(draw, min_ops=3, max_ops=16):
    """A random straight-line block as (op, src1_idx, src2_idx) picks.

    Sources index into params (negative) or earlier results, so the
    lowered DFG is always a well-formed DAG.
    """
    n = draw(st.integers(min_ops, max_ops))
    instrs = []
    for i in range(n):
        op = draw(st.sampled_from(_BINARY_OPS))
        a = draw(st.integers(-4, i - 1))
        b = draw(st.integers(-4, i - 1))
        instrs.append((op, a, b))
    return instrs


def lower(instrs):
    params = ("p0", "p1", "p2", "p3")
    b = FunctionBuilder("rand", params=params)
    b.label("bb")
    values = []

    def operand(idx):
        return params[-idx - 1] if idx < 0 else values[idx]

    for op, a_idx, b_idx in instrs:
        method = {"and": "and_", "or": "or_"}.get(op, op)
        values.append(getattr(b, method)(operand(a_idx), operand(b_idx)))
    b.ret(values[-1])
    func = b.finish()
    __, live_out = liveness(func)
    return build_dfg(func.block("bb"), live_out["bb"], function="rand")


class TestDFGProperties:
    @FAST
    @given(straight_line_blocks())
    def test_dfg_acyclic_and_uid_order_topological(self, instrs):
        dfg = lower(instrs)
        assert nx.is_directed_acyclic_graph(dfg.graph)
        for src, dst in dfg.graph.edges:
            assert src < dst

    @FAST
    @given(straight_line_blocks())
    def test_asap_never_after_alap(self, instrs):
        dfg = lower(instrs)
        unit = lambda uid: 1
        asap = asap_schedule(dfg, unit)
        alap = alap_schedule(dfg, unit)
        assert all(asap[uid] <= alap[uid] for uid in dfg.nodes)

    @FAST
    @given(straight_line_blocks())
    def test_whole_graph_inputs_are_external(self, instrs):
        dfg = lower(instrs)
        ins = input_values(dfg, set(dfg.nodes))
        assert ins <= {"p0", "p1", "p2", "p3"}


class TestConvexityProperties:
    @FAST
    @given(straight_line_blocks(), st.sets(st.integers(0, 15)))
    def test_make_convex_pieces_are_convex_partition(self, instrs, picks):
        dfg = lower(instrs)
        members = {uid for uid in picks if uid in dfg.graph}
        pieces = make_convex(dfg, members)
        union = set().union(*pieces) if pieces else set()
        assert union == members
        for piece in pieces:
            assert is_convex(dfg, piece)
        for a in pieces:
            for b in pieces:
                assert a is b or not (set(a) & set(b))

    @FAST
    @given(straight_line_blocks(), st.sets(st.integers(0, 15)))
    def test_legalize_outputs_are_legal(self, instrs, picks):
        dfg = lower(instrs)
        members = {uid for uid in picks if uid in dfg.graph}
        constraints = ISEConstraints(n_in=3, n_out=1)
        for piece in legalize_components(dfg, members, constraints):
            assert len(piece) >= 2
            assert is_legal(dfg, piece, constraints)

    @FAST
    @given(straight_line_blocks())
    def test_convex_set_contracts_to_dag(self, instrs):
        dfg = lower(instrs)
        nodes = sorted(dfg.nodes)
        members = set(nodes[: max(2, len(nodes) // 2)])
        pieces = [p for p in make_convex(dfg, members) if len(p) >= 1]
        group_of = {}
        for index, piece in enumerate(pieces):
            for uid in piece:
                group_of[uid] = index
        quotient = nx.DiGraph()
        for src, dst in dfg.graph.edges:
            u = group_of.get(src, "n{}".format(src))
            v = group_of.get(dst, "n{}".format(dst))
            if u != v:
                quotient.add_edge(u, v)
        assert nx.is_directed_acyclic_graph(quotient)


class TestSchedulerProperties:
    @SLOW
    @given(straight_line_blocks(),
           st.sampled_from([(1, "4/2"), (2, "4/2"), (2, "6/3"),
                            (3, "8/4"), (4, "10/5")]))
    def test_list_schedule_always_legal(self, instrs, spec):
        width, ports = spec
        dfg = lower(instrs)
        machine = MachineConfig(width, ports)
        graph, units = contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        schedule = list_schedule(graph, units, machine)
        schedule.verify(machine)      # raises on any violation
        assert schedule.makespan <= len(units) * 2

    @SLOW
    @given(straight_line_blocks())
    def test_wider_machines_never_slower(self, instrs):
        dfg = lower(instrs)
        graph, units = contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
        spans = [list_schedule(graph, units,
                               MachineConfig(w, "10/5")).makespan
                 for w in (1, 2, 4)]
        assert spans[0] >= spans[1] >= spans[2]


class TestInterpreterProperties:
    @FAST
    @given(st.sampled_from(_BINARY_OPS),
           st.integers(0, _MASK), st.integers(0, _MASK))
    def test_alu_matches_constfold_model(self, op, a, b):
        """The interpreter and the constant folder are two independent
        implementations of the PISA semantics; they must agree."""
        from repro.ir.passes.constfold import _EVAL
        builder = FunctionBuilder("f", params=("a", "b"))
        builder.label("entry")
        method = {"and": "and_", "or": "or_"}.get(op, op)
        t = getattr(builder, method)("a", "b")
        builder.ret(t)
        program = Program("p")
        program.add_function(builder.finish())
        result, __, ___ = run_program(program, args=(a, b))
        assert result == _EVAL[op](a, b) & _MASK


class TestPipelineProperties:
    @SLOW
    @given(st.integers(2, 40), st.integers(2, 6), st.integers(1, 9))
    def test_unrolled_counted_loop_preserves_sum(self, trips, factor, step):
        b = FunctionBuilder("f", params=())
        b.label("entry")
        b.li(0, dest="i")
        b.li(0, dest="acc")
        b.li(0, dest="zero")
        b.jump("loop")
        b.label("loop")
        b.addu("acc", "i", dest="acc")
        b.addiu("i", step, dest="i")
        t = b.slti("i", trips * step)
        b.bne(t, "zero", "loop", "exit")
        b.label("exit")
        b.ret("acc")
        program = Program("p")
        program.add_function(b.finish())
        expected, __, ___ = run_program(program)
        optimized = optimize(program, "O3", unroll_factor=factor)
        actual, __, ___ = run_program(optimized)
        assert actual == expected

    @SLOW
    @given(straight_line_blocks(min_ops=4, max_ops=12),
           st.tuples(st.integers(0, _MASK), st.integers(0, _MASK),
                     st.integers(0, _MASK), st.integers(0, _MASK)))
    def test_o3_preserves_straight_line_semantics(self, instrs, args):
        params = ("p0", "p1", "p2", "p3")
        b = FunctionBuilder("f", params=params)
        b.label("bb")
        values = []

        def operand(idx):
            return params[-idx - 1] if idx < 0 else values[idx]

        for op, a_idx, b_idx in instrs:
            method = {"and": "and_", "or": "or_"}.get(op, op)
            values.append(getattr(b, method)(operand(a_idx),
                                             operand(b_idx)))
        b.ret(values[-1])
        program = Program("p")
        program.add_function(b.finish())
        expected, __, ___ = run_program(program, args=args)
        optimized = optimize(program, "O3")
        actual, __, ___ = run_program(optimized, args=args)
        assert actual == expected


class TestExplorationProperties:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(straight_line_blocks(min_ops=4, max_ops=10),
           st.integers(0, 3))
    def test_explorer_outputs_always_legal(self, instrs, seed):
        dfg = lower(instrs)
        machine = MachineConfig(2, "4/2")
        params = ExplorationParams(max_iterations=30, restarts=1,
                                   max_rounds=2)
        explorer = AcoEngine(machine, params=params, seed=seed)
        result = explorer.explore(dfg)
        assert result.final_cycles <= result.base_cycles
        for candidate in result.candidates:
            check_candidate(dfg, candidate.members, explorer.constraints)
            assert candidate.cycles >= 1
            assert candidate.area > 0
