#!/usr/bin/env python3
"""The paper's motivating example (Fig. 1.3.1 / Fig. 4.0.x).

Builds a small DFG with parallel dependence chains and schedules it
four ways — single-issue and 2-issue, each without and with explored
ISEs — demonstrating the paper's core claim: wider issue exploits
*independent* operations, ISEs compress *dependent* ones, and combining
both beats either (and exploring ISEs *for* the multi-issue schedule
beats reusing the single-issue ISE choice).

Usage::

    python examples/motivating_example.py
"""

from repro import ExplorationParams, MachineConfig
from repro.engines.aco import AcoEngine
from repro.graph import build_dfg
from repro.ir import FunctionBuilder
from repro.ir.analysis import liveness
from repro.sched import contract_dfg, list_schedule
from repro.hwlib import DEFAULT_TECHNOLOGY


def example_dfg():
    """Nine operations, two chains — the shape of Fig. 4.0.1."""
    b = FunctionBuilder("example", params=("a", "b", "c", "d"))
    b.label("bb")
    t1 = b.xor("a", "b")
    t2 = b.and_("a", "c")
    t3 = b.or_("b", "c")
    t4 = b.addu(t1, "d")
    t5 = b.subu(t3, "c")
    t6 = b.addu(t4, t2)
    t7 = b.xor(t4, "a")
    t8 = b.addu(t6, t7)
    t9 = b.or_(t8, t5)
    b.ret(t9)
    func = b.finish()
    __, live_out = liveness(func)
    return build_dfg(func.block("bb"), live_out["bb"], function="example")


def schedule(dfg, machine, candidates=()):
    groups = [(c.members, c.option_of) for c in candidates]
    graph, units = contract_dfg(dfg, groups, DEFAULT_TECHNOLOGY)
    return list_schedule(graph, units, machine)


def main():
    dfg = example_dfg()
    print("DFG:")
    print(dfg.pretty())

    single = MachineConfig(1, "4/2")
    dual = MachineConfig(2, "4/2")
    params = ExplorationParams(max_iterations=150, restarts=3)

    base_single = schedule(dfg, single)
    base_dual = schedule(dfg, dual)
    print("\nWithout ISE:  1-issue = {} cycles, 2-issue = {} cycles".format(
        base_single.makespan, base_dual.makespan))

    # Explore for each architecture.
    for label, machine in (("1-issue", single), ("2-issue", dual)):
        explorer = AcoEngine(machine, params=params, seed=7)
        result = explorer.explore(dfg)
        print("\nISE explored FOR the {} machine:".format(label))
        for candidate in result.candidates:
            print("  {}".format(candidate.describe()))
        # Schedule that choice on BOTH machines (the paper's case-1 /
        # case-2 comparison).
        for tlabel, target in (("1-issue", single), ("2-issue", dual)):
            s = schedule(dfg, target, result.candidates)
            print("  scheduled on {}: {} cycles".format(
                tlabel, s.makespan))


if __name__ == "__main__":
    main()
