"""Ablation A5 — search-strategy comparison (§2.2's model choice).

The thesis picks ant-colony optimisation over other evolutionary models
on mapping-ease grounds.  This bench makes the comparison empirical on
the hot blocks of three workloads: ACO (MI), simulated annealing over
option flips, and deterministic greedy cone growth — same constraints,
same evaluator.
"""

from repro import engines
from repro.config import ExplorationParams
from repro.engines.aco import AcoEngine
from repro.graph import build_dfg
from repro.ir.analysis import liveness
from repro.ir.passes import optimize
from repro.sched import MachineConfig
from repro.workloads import get_workload

from conftest import run_once

BLOCKS = (("crc32", "crc32", "bit_loop"),
          ("bitcount", "bitcount", "word_loop"),
          ("fft", "fft", "bfly"))


def _hot_dfgs():
    for workload, func_name, label in BLOCKS:
        program, __ = get_workload(workload).build()
        program = optimize(program, "O3")
        func = program.function(func_name)
        ___, live_out = liveness(func)
        yield workload, build_dfg(func.block(label), live_out[label],
                                  function=func_name)


def test_bench_ablation_search(benchmark):
    def run():
        machine = MachineConfig(2, "4/2")
        params = ExplorationParams(max_iterations=100, restarts=1,
                                   max_rounds=6)
        rows = {}
        for workload, dfg in _hot_dfgs():
            aco = AcoEngine(machine, params=params, seed=7).explore(dfg)
            sa = engines.create("annealing", machine, seed=7,
                                steps=600).explore(dfg)
            greedy = engines.create("greedy", machine).explore(dfg)
            rows[workload] = {
                "base": aco.base_cycles,
                "ACO": (aco.final_cycles, aco.total_area),
                "SA": (sa.final_cycles, sa.total_area),
                "GREEDY": (greedy.final_cycles, greedy.total_area),
            }
        return rows

    rows = run_once(benchmark, run)
    print()
    print("A5: search strategies on hot blocks (4/2, 2IS, O3)")
    print("  {:10s} {:>6} {:>14} {:>14} {:>14}".format(
        "block", "base", "ACO", "SA", "greedy"))
    for workload, row in rows.items():
        cells = "  {:10s} {:>6}".format(workload, row["base"])
        for algo in ("ACO", "SA", "GREEDY"):
            cycles, area = row[algo]
            cells += " {:>6}c/{:>6.0f}".format(cycles, area)
        print(cells)
    for workload, row in rows.items():
        base = row["base"]
        # ACO always improves the block and dominates the greedy
        # baseline outright.
        assert row["ACO"][0] < base, workload
        assert row["ACO"][0] <= row["GREEDY"][0], workload
        # Annealing is cycle-competitive but area-blind: wherever it
        # beats ACO on cycles it spends at least as much silicon (the
        # honest trade-off behind §2.2's model choice).
        if row["SA"][0] < row["ACO"][0]:
            assert row["SA"][1] >= row["ACO"][1], workload
