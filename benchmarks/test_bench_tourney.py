"""Engine-tournament benchmark: every registered engine races on the
crc32 + bitcount hot blocks under an equal per-block evaluation budget.

Two contracts:

* the **race** — each engine is stopped after ``BUDGET`` uncached
  candidate evaluations per block (cache hits are free; see
  :mod:`repro.eval.tournament` for the fairness argument) and its
  standings (best cycles, evaluations used, wall time, cache hit rate)
  land in ``BENCH_tourney.json``;
* the **parity gate** — ``engine="aco"`` must remain bit-identical to
  the pre-registry ACO explorer: an *unbudgeted* ACO run over
  the golden workload of ``test_bench_sched.py`` must reproduce
  ``GOLDEN_DIGEST`` exactly.  Unlike the wall-clock gates this is a
  determinism contract, so it is asserted on every run (strict mode
  included) and its verdict is recorded in the JSON payload.
"""

import hashlib
import json
import os

from repro.config import ExplorationParams
from repro.core.flow import ISEDesignFlow
from repro.engines.aco import AcoEngine
from repro.eval.tournament import (render_tournament, run_tournament,
                                   tournament_record)
from repro.ir.passes.pipeline import optimize
from repro.sched.machine import MachineConfig
from repro.workloads import get_workload

from conftest import run_once
from test_bench_sched import GOLDEN_DIGEST, _hot_dfgs, _signature

WORKLOADS = ("crc32", "bitcount")
BUDGET = 40                       # uncached evaluations per block
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_tourney.json")


def _tourney_dfgs():
    """Hot explorable blocks of the tournament workloads at -O3."""
    machine = MachineConfig(2, "4/2")
    dfgs = []
    for name in WORKLOADS:
        program, args = get_workload(name).build()
        flow = ISEDesignFlow(machine, seed=3, max_blocks=2)
        blocks = flow.profile_blocks(optimize(program, "O3"), args=args)
        dfgs.extend(b.dfg for b in flow._select_hot_blocks(blocks))
    return dfgs


def test_bench_tourney(benchmark):
    dfgs = _tourney_dfgs()
    machine = MachineConfig(2, "4/2")
    params = ExplorationParams(max_iterations=40, restarts=2,
                               max_rounds=4)

    def measure():
        return run_tournament(dfgs, machine, budget=BUDGET,
                              params=params, seed=17, batch=1)

    result = run_once(benchmark, measure)

    # Every registered engine raced, under the same per-block meter.
    assert len(result.rows) >= 3
    for row in result.rows:
        assert row.evaluations <= BUDGET * len(dfgs)
        assert row.best_cycles <= row.base_cycles

    # ACO parity gate: the default engine, unbudgeted, still reproduces
    # the pre-refactor golden digest on the sched bench's workload.
    golden = _hot_dfgs()
    engine = AcoEngine(MachineConfig(2, "4/2"),
                       params=ExplorationParams(max_iterations=80,
                                                restarts=4, max_rounds=6),
                       seed=17, batch=1)
    sigs = [_signature(r) for r in engine.explore_many(golden, jobs=1)]
    digest = hashlib.sha256(repr(sigs).encode()).hexdigest()
    digest_ok = digest == GOLDEN_DIGEST

    payload = tournament_record(result)
    payload["workloads"] = list(WORKLOADS)
    payload["params"] = {"max_iterations": params.max_iterations,
                         "restarts": params.restarts,
                         "max_rounds": params.max_rounds}
    payload["aco_golden_digest_ok"] = digest_ok
    with open(OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print(render_tournament(result))
    print("aco golden digest: {}".format("ok" if digest_ok else
                                         "DIVERGED"))
    assert digest_ok, "engine=\"aco\" diverged from GOLDEN_DIGEST"
