"""Tests for the text assembler."""

import pytest

from repro.ir import run_program
from repro.ir.parser import ParseError, parse_functions, parse_program

FIR = """
# an 8-tap accumulate loop
func fir(coef, x):
entry:
    acc = li 0
    i = li 0
    zero = li 0
    j loop
loop:
    off = sll i, 2
    ca = addu coef, off
    c = lw [ca+0]
    xa = addu x, off
    v = lw [xa+0]
    p = mult c, v
    acc = addu acc, p
    i = addiu i, 1
    t = slti i, 8
    bne t, zero -> loop, exit
exit:
    ret acc
"""


class TestParsing:
    def test_parse_fir(self):
        funcs = parse_functions(FIR)
        assert len(funcs) == 1
        func = funcs[0]
        assert func.name == "fir"
        assert func.params == ("coef", "x")
        assert func.labels == ["entry", "loop", "exit"]
        assert len(func.block("loop").body) == 9

    def test_semantics_match_builder(self):
        from repro.ir.program import DataSegment
        data = DataSegment()
        coef = data.place_words("coef", [1, 2, 3, 4, 5, 6, 7, 8])
        x = data.place_words("x", [8, 7, 6, 5, 4, 3, 2, 1])
        program = parse_program(FIR, data=data)
        result, __, ___ = run_program(program, args=(coef, x))
        expected = sum(a * b for a, b in zip(
            [1, 2, 3, 4, 5, 6, 7, 8], [8, 7, 6, 5, 4, 3, 2, 1]))
        assert result == expected

    def test_store_and_negative_offsets(self):
        text = """
func f(p):
entry:
    v = lw [p+4]
    w = lw [p-4]
    sw v, [p+8]
    ret w
"""
        func = parse_functions(text)[0]
        ops = [i.op for i in func.block("entry").body]
        assert ops == ["lw", "lw", "sw"]
        assert func.block("entry").body[1].imm == -4

    def test_hex_immediates(self):
        text = """
func f():
entry:
    a = li 0xFF
    b = andi a, 0x0F
    ret b
"""
        program = parse_program(text)
        result, __, ___ = run_program(program)
        assert result == 0x0F

    def test_call_syntax(self):
        text = """
func helper(x):
entry:
    y = addu x, x
    ret y
func main(v):
entry:
    r = call helper(v)
    ret r
"""
        program = parse_program(text)
        result, __, ___ = run_program(program, args=(21,),
                                      func_name="main")
        assert result == 42

    def test_one_operand_branches(self):
        text = """
func f(x):
entry:
    blez x -> neg, pos
neg:
    a = li 1
    ret a
pos:
    b = li 2
    ret b
"""
        program = parse_program(text)
        result, __, ___ = run_program(program, args=(0,))
        assert result == 1


class TestParseErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("x = li 0", "before any 'func'"),
        ("func f():\nx = li 0", "outside any block"),
        ("func f():\nentry:\n    x = frob a, b", "unknown mnemonic"),
        ("func f():\nentry:\n    x = lw p", "base+offset"),
        ("func f():\nentry:\n    sw v", "store needs"),
        ("func f():\nentry:\n    x = li lots", "expected a number"),
        ("func f():\nentry:\n    bne a -> x, y", "takes 2 operand"),
        ("", "no functions"),
    ])
    def test_error_messages(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_functions(text)
        assert fragment in str(err.value)

    def test_register_form_rejects_literals(self):
        text = """
func f(a):
entry:
    x = addu a, 5
    ret x
"""
        with pytest.raises(ParseError):
            parse_functions(text)

    def test_duplicate_label(self):
        text = """
func f():
entry:
    j entry2
entry:
    ret
"""
        with pytest.raises(ParseError):
            parse_functions(text)

    def test_line_numbers_reported(self):
        text = "func f():\nentry:\n    x = frob a\n"
        with pytest.raises(ParseError) as err:
            parse_functions(text)
        assert err.value.line_no == 3


class TestRoundTrip:
    def test_parsed_function_explorable(self):
        """Parsed kernels flow through DFG lowering + exploration."""
        from repro.config import ExplorationParams
        from repro.engines.aco import AcoEngine
        from repro.graph import build_dfg
        from repro.ir.analysis import liveness
        from repro.sched import MachineConfig
        text = """
func k(a, b, c):
entry:
    t1 = xor a, b
    t2 = addu t1, c
    t3 = xor t2, a
    t4 = addu t3, b
    ret t4
"""
        func = parse_functions(text)[0]
        __, live_out = liveness(func)
        dfg = build_dfg(func.block("entry"), live_out["entry"],
                        function="k")
        explorer = AcoEngine(
            MachineConfig(2, "4/2"),
            params=ExplorationParams(max_iterations=40, restarts=1,
                                     max_rounds=2), seed=1)
        result = explorer.explore(dfg)
        assert result.final_cycles <= result.base_cycles
