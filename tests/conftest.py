"""Shared fixtures and DFG builders for the test suite."""

import pytest

from repro.config import ExplorationParams, ISEConstraints
from repro.graph import build_dfg
from repro.ir import FunctionBuilder
from repro.ir.analysis import liveness
from repro.sched import MachineConfig


def dfg_from_block(build_body, params=("a", "b", "c", "d"), ret=None):
    """Build a one-block function via ``build_body(builder)`` and lower
    the block to a DFG.  ``build_body`` returns the value to return."""
    b = FunctionBuilder("test_func", params=params)
    b.label("bb")
    result = build_body(b)
    b.ret(result if ret is None else ret)
    func = b.finish()
    __, live_out = liveness(func)
    return build_dfg(func.block("bb"), live_out["bb"], function="test_func")


def chain_dfg(length=4, op="addu"):
    """A pure dependence chain of ``length`` operations."""

    def body(b):
        value = "a"
        for __ in range(length):
            value = getattr(b, op if op != "and" else "and_")(value, "b")
        return value

    return dfg_from_block(body)


class FixedRandom:
    """An ``rng`` whose ``random()`` always returns ``value``; counts calls."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.value


def lockstep_draw(weights, value):
    """``(label, draws)``: the option the ant runner picks for a lone
    ready operation whose Eq. 1 option weights are ``weights`` (options
    labelled ``a``, ``b``, ...), when ``rng.random()`` returns
    ``value``, and how many draws the ant consumed."""
    import numpy as np

    from repro.core.batch import BatchedAntRunner
    from repro.core.state import ExplorationState
    from repro.hwlib import DEFAULT_TECHNOLOGY
    from repro.hwlib.options import IOTable, SoftwareOption

    dfg = chain_dfg(1)
    uid = dfg.nodes[0]
    labels = "abcdefgh"[:len(weights)]
    tables = {uid: IOTable(software=[SoftwareOption(label)
                                     for label in labels])}
    state = ExplorationState(dfg, tables, ExplorationParams())
    state.cp_weights_batch = lambda: np.array(weights, dtype=np.float64)
    rng = FixedRandom(value)
    runner = BatchedAntRunner(dfg, state, MachineConfig(2, "4/2"),
                              DEFAULT_TECHNOLOGY, ISEConstraints())
    schedule = runner.run(rng, 1)[0]
    return schedule.chosen[uid].label, rng.calls


def diamond_dfg():
    """Fig 4.0.1-like: two parallel chains joining."""

    def body(b):
        t1 = b.xor("a", "b")
        t2 = b.and_("a", "c")
        t3 = b.or_("b", "c")
        t4 = b.addu(t1, "d")
        t5 = b.subu(t3, "c")
        t6 = b.addu(t4, t2)
        t7 = b.xor(t4, "a")
        t8 = b.addu(t6, t7)
        return b.or_(t8, t5)

    return dfg_from_block(body)


def wide_dfg(width=6):
    """``width`` independent operations merged pairwise (high ILP)."""

    def body(b):
        tops = [b.xor("a", "b") if i % 2 else b.addu("c", "d")
                for i in range(width)]
        value = tops[0]
        for other in tops[1:]:
            value = b.or_(value, other)
        return value

    return dfg_from_block(body)


def memory_dfg():
    """Chain with loads/stores interleaved (memory rules exercised)."""

    def body(b):
        v1 = b.lw("a")
        v2 = b.addu(v1, "b")
        b.sw(v2, "a")
        v3 = b.lw("a", 4)
        return b.xor(v3, v2)

    return dfg_from_block(body)


@pytest.fixture
def dual_issue():
    return MachineConfig(2, "4/2")


@pytest.fixture
def quad_issue():
    return MachineConfig(4, "10/5")


@pytest.fixture
def single_issue():
    return MachineConfig(1, "4/2")


@pytest.fixture
def tiny_params():
    """Small ACO budgets so explorer tests stay fast."""
    return ExplorationParams(max_iterations=60, restarts=1, max_rounds=4)


@pytest.fixture
def loose_constraints():
    return ISEConstraints(n_in=4, n_out=2)
