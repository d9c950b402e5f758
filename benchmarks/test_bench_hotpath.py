"""Hot-path benchmark: serial vs process-parallel exploration.

Times :meth:`AcoEngine.explore_many` over the hot blocks of
three workloads with ``jobs=1`` and ``jobs=4`` and writes
``BENCH_hotpath.json`` (serial_s, parallel_s, speedup, per-iteration
throughput) at the repository root.  Parity is a *hard* assertion —
the pooled run must reproduce the serial results bit-for-bit; the
speedup itself is asserted only when the host actually has the CPUs
(pools cannot beat serial on a one-core container), but is always
recorded so CI artifacts track the trend.
"""

import json
import os
import time

from repro.config import ExplorationParams
from repro.core.flow import ISEDesignFlow
from repro.engines.aco import AcoEngine
from repro.ir.passes.pipeline import optimize
from repro.sched.machine import MachineConfig
from repro.workloads import get_workload

from conftest import jobs_environment, run_once

WORKLOADS = ("crc32", "bitcount", "adpcm")
JOBS = 4
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_hotpath.json")


def _hot_dfgs():
    """Hot explorable blocks of the benchmark workloads at -O3."""
    machine = MachineConfig(2, "4/2")
    dfgs = []
    for name in WORKLOADS:
        program, args = get_workload(name).build()
        flow = ISEDesignFlow(machine, seed=3, max_blocks=2)
        blocks = flow.profile_blocks(optimize(program, "O3"), args=args)
        dfgs.extend(b.dfg for b in flow._select_hot_blocks(blocks))
    return dfgs


def _signature(result):
    return (result.final_cycles, result.base_cycles, result.rounds,
            result.iterations, tuple(map(tuple, result.traces)),
            tuple(tuple(sorted(c.members)) for c in result.candidates))


def test_bench_hotpath_parallel(benchmark):
    dfgs = _hot_dfgs()
    params = ExplorationParams(max_iterations=80, restarts=JOBS,
                               max_rounds=6)
    explorer = AcoEngine(MachineConfig(2, "4/2"), params=params, seed=17)

    def measure():
        start = time.perf_counter()
        serial = explorer.explore_many(dfgs, jobs=1)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        pooled = explorer.explore_many(dfgs, jobs=JOBS)
        parallel_s = time.perf_counter() - start
        return serial, serial_s, pooled, parallel_s

    serial, serial_s, pooled, parallel_s = run_once(benchmark, measure)

    # Hard contract: the pool is observationally invisible.
    assert [_signature(r) for r in serial] == [_signature(r) for r in pooled]

    iterations = sum(r.iterations for r in serial)
    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    payload = {
        "workloads": list(WORKLOADS),
        "blocks": len(dfgs),
        "jobs": jobs_environment(JOBS),
        "iterations": iterations,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "serial_iters_per_s": round(iterations / serial_s, 1),
    }
    with open(OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print("hotpath: {} iters | serial {:.2f}s | jobs={} {:.2f}s | "
          "speedup {:.2f}x on {} cpu(s)".format(
              iterations, serial_s, JOBS, parallel_s, speedup,
              os.cpu_count()))

    assert serial_s > 0 and parallel_s > 0
    if (os.cpu_count() or 1) >= JOBS:
        # With the CPUs available the (block, restart) fan-out must pay.
        assert speedup >= 2.0
