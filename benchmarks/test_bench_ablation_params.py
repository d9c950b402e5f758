"""Ablation A3 — ACO parameter sensitivity (α, P_END, evaporation).

§5.1 discusses the trade-offs: a large α (trail-dominated) converges
slowly, a small α converges fast to poorer solutions; a larger P_END
buys quality with iterations.  This bench sweeps α and P_END on one
block-rich workload and reports reduction and iteration counts, so the
claimed trends are visible.
"""

from repro.config import ExplorationParams
from repro.engines.aco import AcoEngine
from repro.graph import build_dfg
from repro.ir.analysis import liveness
from repro.ir.passes import optimize
from repro.sched import MachineConfig
from repro.workloads import get_workload

from conftest import run_once


def _hot_dfg():
    program, args = get_workload("crc32").build()
    program = optimize(program, "O3")
    func = program.main
    __, live_out = liveness(func)
    block = func.block("bit_loop")
    return build_dfg(block, live_out["bit_loop"], function=func.name)


def _explore(dfg, **overrides):
    machine = MachineConfig(2, "4/2")
    params = ExplorationParams(max_iterations=250, restarts=1,
                               max_rounds=4, **overrides)
    explorer = AcoEngine(machine, params=params, seed=7)
    result = explorer.explore(dfg)
    saving = result.base_cycles - result.final_cycles
    return saving, result.iterations


def test_bench_ablation_params(benchmark):
    def sweep():
        dfg = _hot_dfg()
        grid = {}
        for alpha in (0.1, 0.25, 0.5):
            grid[("alpha", alpha)] = _explore(dfg, alpha=alpha)
        for p_end in (0.9, 0.99):
            grid[("p_end", p_end)] = _explore(dfg, p_end=p_end)
        return grid

    grid = run_once(benchmark, sweep)
    print()
    print("A3: ACO parameter sensitivity on crc32 bit_loop (O3)")
    print("  {:16s} {:>14} {:>12}".format(
        "parameter", "cycle saving", "iterations"))
    for key in sorted(grid):
        saving, iters = grid[key]
        print("  {:16s} {:>14} {:>12}".format(
            "{}={}".format(*key), saving, iters))
    # Every configuration must find a beneficial ISE on this block.
    assert all(saving > 0 for saving, __ in grid.values())
    # A lower P_END never needs more iterations than a higher one.
    assert grid[("p_end", 0.9)][1] <= grid[("p_end", 0.99)][1]
