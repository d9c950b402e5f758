"""Ablation A4 — ACO convergence behaviour.

The algorithm's premise (§2.2, §3) is that the ant colony converges:
iteration-over-iteration, the constructed schedules' execution times
concentrate toward the best found.  This bench records the per-
iteration TET trace of the first round on the CRC32 hot block and
checks that the late phase of the search is no worse than the early
phase, and that the best schedule appears well before the iteration
budget (the point of the trail/merit feedback).
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
    del args
    program = optimize(program, "O3")
    func = program.main
    __, live_out = liveness(func)
    return build_dfg(func.block("bit_loop"), live_out["bit_loop"],
                     function=func.name)


def test_bench_convergence(benchmark):
    def run():
        dfg = _hot_dfg()
        params = ExplorationParams(max_iterations=200, restarts=1,
                                   max_rounds=1)
        explorer = AcoEngine(MachineConfig(2, "4/2"), params=params,
                             seed=11)
        result = explorer.explore(dfg)
        return result.traces[0]

    trace = run_once(benchmark, run)
    assert len(trace) >= 20
    head = trace[: len(trace) // 5]
    tail = trace[-len(trace) // 5:]
    head_avg = sum(head) / len(head)
    tail_avg = sum(tail) / len(tail)
    best = min(trace)
    first_best = trace.index(best) + 1
    print()
    print("A4: ACO convergence on crc32 bit_loop (one round)")
    print("  iterations: {}   first 20% avg TET: {:.2f}   "
          "last 20% avg TET: {:.2f}".format(
              len(trace), head_avg, tail_avg))
    print("  best TET {} first reached at iteration {}/{}".format(
        best, first_best, len(trace)))
    # The paper claims sp-convergence, not monotone TET: the check is
    # that good schedules stay reachable late in the round (the best
    # late-phase construction matches the best early-phase one) and
    # that the optimum was met early enough for the feedback to matter.
    assert min(tail) <= min(head) + 1
    assert first_best <= max(1, int(0.8 * len(trace)))
