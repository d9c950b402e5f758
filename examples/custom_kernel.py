#!/usr/bin/env python3
"""Bring your own kernel: ISE exploration for a custom DSP loop.

Shows the full library workflow on code that is *not* one of the seven
bundled benchmarks: build a saturating multiply-accumulate filter tap
kernel with :class:`~repro.ir.builder.FunctionBuilder`, verify it in
the interpreter against a Python model, then explore ISEs for it and
compare the MI engine against the SI and greedy comparator engines.

Usage::

    python examples/custom_kernel.py
"""

from repro import ExplorationParams, MachineConfig, engines
from repro.graph import build_dfg
from repro.ir import FunctionBuilder, Program, run_program
from repro.ir.analysis import liveness
from repro.ir.program import DataSegment

_MASK = 0xFFFFFFFF
TAPS = 8


def coefficients():
    return [((i * 2654435761) & 0x7FFF) - 0x4000 for i in range(1, TAPS + 1)]


def samples():
    return [((i * 40503) & 0xFFF) - 0x800 for i in range(TAPS)]


def build_program():
    data = DataSegment()
    coef = data.place_words("coef", [c & _MASK for c in coefficients()])
    xs = data.place_words("x", [s & _MASK for s in samples()])

    b = FunctionBuilder("fir_tap", params=("coef", "x"))
    b.label("entry")
    b.li(0, dest="zero")
    b.li(0, dest="acc")
    b.li(0, dest="i")
    b.jump("mac_loop")

    b.label("mac_loop")                  # constant 8 trips -> unrollable
    off = b.sll("i", 2)
    c = b.lw(b.addu("coef", off))
    x = b.lw(b.addu("x", off))
    p = b.mult(c, x)
    scaled = b.sra(p, 6)
    b.addu("acc", scaled, dest="acc")
    b.addiu("i", 1, dest="i")
    t = b.slti("i", TAPS)
    b.bne(t, "zero", "mac_loop", "saturate")

    b.label("saturate")                  # clamp to 16-bit, branchless
    b.li(32767, dest="maxv")
    b.li(-32768, dest="minv")
    over = b.slt("maxv", "acc")
    mask_over = b.subu("zero", over)
    keep = b.nor(mask_over, mask_over)
    a1 = b.and_("acc", keep)
    a2 = b.and_("maxv", mask_over)
    clipped_hi = b.or_(a1, a2)
    under = b.slt(clipped_hi, "minv")
    mask_under = b.subu("zero", under)
    keep2 = b.nor(mask_under, mask_under)
    b1 = b.and_(clipped_hi, keep2)
    b2 = b.and_("minv", mask_under)
    result = b.or_(b1, b2)
    b.ret(result)

    program = Program("fir", data=data)
    program.add_function(b.finish())
    return program, (coef, xs)


def python_model():
    acc = 0
    for c, x in zip(coefficients(), samples()):
        acc += (c * x) >> 6
    return max(-32768, min(32767, acc)) & _MASK


def main():
    program, args = build_program()
    result, __, ___ = run_program(program, args=args)
    expected = python_model()
    print("interpreter result: {:#x}  python model: {:#x}  {}".format(
        result, expected, "OK" if result == expected else "MISMATCH"))

    # Lower the saturation block (pure straight-line) and explore it.
    func = program.main
    __, live_out = liveness(func)
    dfg = build_dfg(func.block("saturate"), live_out["saturate"],
                    function=func.name)
    print("\nsaturation-block DFG: {} operations".format(len(dfg)))

    machine = MachineConfig(2, "6/3")
    params = ExplorationParams(max_iterations=150, restarts=3)
    for label, name in (("MI   ", "aco"), ("SI   ", "si"),
                        ("GREEDY", "greedy")):
        explorer = engines.create(name, machine, params=params, seed=3)
        outcome = explorer.explore(dfg)
        print("\n{}: {} -> {} cycles with {} ISE(s)".format(
            label, outcome.base_cycles, outcome.final_cycles,
            len(outcome.candidates)))
        for candidate in outcome.candidates:
            print("   {}".format(candidate.describe()))


if __name__ == "__main__":
    main()
