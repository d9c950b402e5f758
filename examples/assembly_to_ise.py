#!/usr/bin/env python3
"""Assembly in, ISEs and VLIW bundles out.

The most direct way to use the library on your own code: write the hot
block as text assembly, explore ISEs for it, and print the before/after
VLIW issue bundles — the custom instructions appear inline as
``iseN dst <- src`` slots.

Usage::

    python examples/assembly_to_ise.py
"""

from repro import ExplorationParams, MachineConfig
from repro.engines.aco import AcoEngine
from repro.graph import build_dfg
from repro.ir import parse_functions
from repro.ir.analysis import liveness
from repro.sched import contract_dfg, emit_block_listing, list_schedule
from repro.hwlib import DEFAULT_TECHNOLOGY

# A complex-multiply + saturate kernel, as a user would write it.
KERNEL = """
func cmul_sat(ar, ai, br, bi):
entry:
    p1 = mult ar, br
    p2 = mult ai, bi
    p3 = mult ar, bi
    p4 = mult ai, br
    re_w = subu p1, p2
    im_w = addu p3, p4
    re = sra re_w, 15
    im = sra im_w, 15
    hi = sll re, 16
    lo_m = li 0xFFFF
    lo = and im, lo_m
    packed = or hi, lo
    ret packed
"""


def main():
    func = parse_functions(KERNEL)[0]
    __, live_out = liveness(func)
    dfg = build_dfg(func.block("entry"), live_out["entry"],
                    function=func.name)
    machine = MachineConfig(2, "6/3")
    print("Kernel: {} — {} operations on {}".format(
        func.name, len(dfg), machine))

    graph, units = contract_dfg(dfg, [], DEFAULT_TECHNOLOGY)
    before = list_schedule(graph, units, machine)
    print("\n--- before (software only) ---")
    print(emit_block_listing(dfg, before))

    explorer = AcoEngine(
        machine, params=ExplorationParams(max_iterations=150, restarts=3),
        seed=5)
    result = explorer.explore(dfg)
    print("\nExplored {} ISE candidate(s):".format(len(result.candidates)))
    for candidate in result.candidates:
        print("  " + candidate.describe())

    groups = [(c.members, c.option_of) for c in result.candidates]
    graph2, units2 = contract_dfg(dfg, groups, DEFAULT_TECHNOLOGY)
    after = list_schedule(graph2, units2, machine)
    print("\n--- after ({} -> {} cycles) ---".format(
        before.makespan, after.makespan))
    print(emit_block_listing(dfg, after))


if __name__ == "__main__":
    main()
