"""Lockstep ant-batch benchmark: batched goldens and serial speedup.

Runs the reference workload set (same hot blocks, parameters and seed
as ``test_bench_sched.py``) at ``batch=1``, ``batch=4`` and the default
``batch=16`` and asserts three bit-parity contracts, all hard:

* ``batch=1`` reproduces ``test_bench_sched.py``'s scalar golden
  digest — the ``REPRO_ANT_BATCH=1`` escape hatch is bit-identical to
  the pre-batching engine;
* ``batch=4`` and ``batch=16`` reproduce the **batched** golden
  digests pinned below.  The lockstep scheme draws the per-ant streams
  in (step, ant) order against a per-batch frozen trail/merit state,
  so any width above 1 is a different — but equally pinned — RNG
  lineage (regeneration procedure: docs/PARAMETERS.md).

Timings land in ``BENCH_batch.json``: iterations/s per batch size and
``speedup_vs_scalar`` — the default width's rate over the ``batch=1``
rate measured in the same session (i.e. over the ``BENCH_sched``
scalar baseline engine).  Each width gets a warm-up run before
``REPEATS`` timed runs because the ratio of two wall-clocks is noise
squared.  The ≥2.5× speedup gate follows the repo convention for
wall-clock assertions: asserted when ``REPRO_BENCH_STRICT=1``
(reference hosts) and recorded otherwise — parity stays hard
everywhere.
"""

import hashlib
import json
import os
import time

from repro.config import ExplorationParams
from repro.core.batch import DEFAULT_BATCH
from repro.engines.aco import AcoEngine
from repro.sched.machine import MachineConfig

from conftest import run_once
from test_bench_sched import (
    BASELINE_ITERS_PER_S,
    GOLDEN_DIGEST,
    _hot_dfgs,
    _signature,
    _summary,
)

BATCH_SIZES = (1, 4, DEFAULT_BATCH)
REPEATS = 4
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_batch.json")

#: sha256 over ``repr([_signature(r) for r in results])`` of the
#: lockstep engine on the golden workload set (seed lineage of the
#: batched draw scheme; the scalar lineage stays in test_bench_sched).
BATCHED_GOLDEN_DIGESTS = {
    1: GOLDEN_DIGEST,
    4: "8bb558d8ea2f48f2791c70ad1d2c42bd45b6b6cb53481945916b560ffd9b4995",
    16: "54af708d1bdec44fac6413102c9d683a14cd70f227bcf09854131b16379b7812",
}

#: Convenience alias for the default width's digest (asserted by the
#: pool bench, which runs the engine as shipped).
BATCHED_GOLDEN_DIGEST = BATCHED_GOLDEN_DIGESTS[DEFAULT_BATCH]

#: Readable per-block expectations at the default width: (function,
#: label, base cycles, final cycles, rounds, iterations, candidate
#: sizes).
BATCHED_GOLDEN_BLOCKS = [
    ("crc32", "bit_loop", 16, 4, 4, 278, [20, 3]),
    ("crc32", "byte_loop", 3, 3, 2, 96, []),
    ("bitcount", "kern_body", 2, 1, 3, 90, [2]),
    ("bitcount", "word_loop", 29, 14, 6, 480, [10, 4, 4, 3, 3]),
    ("adpcm_encode", "index_update", 6, 3, 4, 58, [3, 2]),
    ("adpcm_encode", "sample_loop", 5, 4, 3, 229, [2]),
]


def test_bench_batch_speedup(benchmark):
    dfgs = _hot_dfgs()
    params = ExplorationParams(max_iterations=80, restarts=4, max_rounds=6)

    def explore_at(batch):
        explorer = AcoEngine(MachineConfig(2, "4/2"), params=params,
                             seed=17, batch=batch)
        start = time.perf_counter()
        results = explorer.explore_many(dfgs, jobs=1)
        return results, time.perf_counter() - start

    def measure():
        best = {}
        for batch in BATCH_SIZES:
            explore_at(batch)                      # warm-up, untimed
        for __ in range(REPEATS):
            # Interleaved so host throttling drifts hit every width
            # equally rather than biasing the speedup ratio.
            for batch in BATCH_SIZES:
                results, seconds = explore_at(batch)
                if batch not in best or seconds < best[batch][1]:
                    best[batch] = (results, seconds)
        return best

    best = run_once(benchmark, measure)

    # Hard contract: every width reproduces its pinned golden lineage.
    rates = {}
    for batch in BATCH_SIZES:
        results, seconds = best[batch]
        sigs = [_signature(r) for r in results]
        digest = hashlib.sha256(repr(sigs).encode()).hexdigest()
        assert digest == BATCHED_GOLDEN_DIGESTS[batch], \
            "parity broken at batch={}".format(batch)
        rates[batch] = sum(r.iterations for r in results) / seconds
    for result, expected in zip(best[DEFAULT_BATCH][0],
                                BATCHED_GOLDEN_BLOCKS):
        assert _summary(result) == list(expected)

    speedup = rates[DEFAULT_BATCH] / rates[1]
    payload = {
        "workloads": ["crc32", "bitcount", "adpcm"],
        "blocks": len(dfgs),
        "cpus": os.cpu_count(),
        "default_batch": DEFAULT_BATCH,
        "repeats": REPEATS,
        "batches": {
            str(batch): {
                "iterations": sum(r.iterations for r in best[batch][0]),
                "seconds": round(best[batch][1], 3),
                "iters_per_s": round(rates[batch], 1),
                "golden_digest": BATCHED_GOLDEN_DIGESTS[batch],
            }
            for batch in BATCH_SIZES
        },
        "scalar_baseline_iters_per_s": round(rates[1], 1),
        "speedup_vs_scalar": round(speedup, 3),
        "speedup_vs_sched_baseline": round(
            rates[DEFAULT_BATCH] / BASELINE_ITERS_PER_S, 3),
    }
    with open(OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print("batch: " + " | ".join(
        "B={} {:.1f} it/s".format(batch, rates[batch])
        for batch in BATCH_SIZES)
        + " | {:.2f}x scalar at default".format(speedup))

    assert all(seconds > 0 for __, seconds in best.values())
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        # Reference-host gate: the default lockstep width must clear
        # 2.5x the scalar engine's serial throughput.
        assert speedup >= 2.5
