"""Golden digests of the comparator engines: ``si``, ``greedy``,
``annealing`` and ``exact``.

Each digest is a SHA-256 over every result's ``(base, final, rounds,
iterations)`` plus, per fixed candidate, its sorted members, their
option labels, its cycle saving and its area.  The hex values were
pinned from the stand-alone comparator explorers the engines replaced,
so a mismatch means a comparator's answers changed.

Blocks: the three A5 ablation blocks (crc32 ``bit_loop``, bitcount
``word_loop``, fft ``bfly``) plus the other crc32/bitcount hot blocks
at -O3; ``exact`` runs on the in-cap ones and on fuzz DFGs.
"""

import hashlib

import pytest

from repro import engines
from repro.config import ExplorationParams
from repro.core.flow import ISEDesignFlow
from repro.engines.exact import MAX_EXACT_NODES
from repro.graph import build_dfg
from repro.graph.fuzz import random_dfg
from repro.ir.analysis import liveness
from repro.ir.passes.pipeline import optimize
from repro.sched import MachineConfig
from repro.workloads import get_workload

MACHINE = MachineConfig(2, "4/2")
A5_BLOCKS = (("crc32", "crc32", "bit_loop"),
             ("bitcount", "bitcount", "word_loop"),
             ("fft", "fft", "bfly"))

GOLDEN = {
    "si": "0823c0a3a3558de42964122b8188a557"
          "a05639fd165520af500949dcc1be52a4",
    "greedy": "a6818a8b006faf7ffc3fe9b200534ace"
              "9f448e0cdfb580dde3185258ca4dd29c",
    "annealing": "3cf28745c672c14d7b12c8fb12477390"
                 "4185ebefa67af93d386e18ad43544859",
    "exact": "27bec384c8f012eb255f7d06042fbda5"
             "3b309c55bcefeba3279a961262f93f9e",
}

CONFIGS = {
    "si": dict(params=ExplorationParams(max_iterations=30, restarts=1,
                                        max_rounds=4), seed=7),
    "greedy": {},
    "annealing": dict(seed=7, steps=600),
    "exact": {},
}


@pytest.fixture(scope="module")
def comparator_dfgs():
    """A5's three blocks, then the remaining crc32/bitcount hot blocks."""
    dfgs = []
    for workload, func_name, label in A5_BLOCKS:
        program, __ = get_workload(workload).build()
        func = optimize(program, "O3").function(func_name)
        ___, live_out = liveness(func)
        dfgs.append(build_dfg(func.block(label), live_out[label],
                              function=func_name))
    seen = {(dfg.function, dfg.label) for dfg in dfgs}
    for name in ("crc32", "bitcount"):
        program, args = get_workload(name).build()
        flow = ISEDesignFlow(MACHINE, seed=3, max_blocks=2)
        blocks = flow.profile_blocks(optimize(program, "O3"), args=args)
        for block in flow._select_hot_blocks(blocks):
            if (block.function, block.label) not in seen:
                seen.add((block.function, block.label))
                dfgs.append(block.dfg)
    return dfgs


@pytest.fixture(scope="module")
def exact_dfgs(comparator_dfgs):
    """In-cap hot blocks plus fuzz DFGs of at most 16 groupable nodes."""
    fuzz = [random_dfg(seed, n_nodes=12) for seed in range(6)] + \
        [random_dfg(seed, n_nodes=18) for seed in (0, 2, 3, 5)]
    return [dfg for dfg in comparator_dfgs + fuzz
            if len(dfg.groupable_nodes()) <= MAX_EXACT_NODES]


def _signature(result):
    return (result.base_cycles, result.final_cycles, result.rounds,
            result.iterations,
            tuple((tuple(sorted(c.members)),
                   tuple(c.option_of[uid].label
                         for uid in sorted(c.members)),
                   c.cycle_saving, c.area)
                  for c in result.candidates))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_comparator_reproduces_golden_digest(name, comparator_dfgs,
                                             exact_dfgs):
    dfgs = exact_dfgs if name == "exact" else comparator_dfgs
    results = [engines.create(name, MACHINE, **CONFIGS[name]).explore(dfg)
               for dfg in dfgs]
    digest = hashlib.sha256(
        repr([_signature(r) for r in results]).encode()).hexdigest()
    assert digest == GOLDEN[name]
