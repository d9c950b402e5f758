"""Worker-pool benchmark: parity, scaling efficiency and startup
amortization of the persistent shared-memory pool.

Runs the reference workload set (crc32, bitcount, adpcm — the same hot
blocks, parameters and seed as ``test_bench_sched.py``) through
``explore_many`` at ``jobs=1,2,4`` and asserts the **serial golden
digest at every job count** — the pool, its shared-memory broadcast
and the work-stealing dispatch must all be observationally invisible.  The engine runs as shipped — the
default lockstep ant batch — so the digest is the *batched* golden
(``test_bench_batch.py``); batching is resolved once at explorer
construction and rides to the workers inside the pickled explorer,
which this parity contract exercises.

Timings land in ``BENCH_pool.json``:

* ``runs`` — wall-clock + speedup per job count (the first pooled run
  of each count is *cold*: it pays worker spawn);
* ``warm4_s`` / ``startup_amortization`` — a second ``jobs=4`` run on
  the already-warm pool (live workers, nothing else carried over: each
  run builds a fresh engine, so its evaluation memo starts empty); the
  cold/warm ratio is the spawn cost the persistence amortizes away;
* ``pool`` — dispatch/steal/broadcast tallies from the pool itself.

Wall-clock gates (≥2.5x at ``jobs=4``, warm ≥1.5x faster than cold)
are asserted when ``REPRO_BENCH_STRICT=1`` — i.e. on reference hosts
that really have 4 CPUs — and recorded otherwise: this container may
have a single core, where a pool can time anything at all.  The clamp
is lifted via the ``_available_cpus`` seam so the pooled *code path*
(and with it the parity contract) is exercised regardless of host.
"""

import hashlib
import json
import os
import time

from repro.config import ExplorationParams
from repro.core import parallel
from repro.core.batch import DEFAULT_BATCH
from repro.core.pool import active_pool, shutdown_pools
from repro.engines.aco import AcoEngine
from repro.sched.machine import MachineConfig

from conftest import jobs_environment, run_once
from test_bench_batch import BATCHED_GOLDEN_DIGEST
from test_bench_sched import _hot_dfgs, _signature

JOB_COUNTS = (1, 2, 4)
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_pool.json")


def _digest(results):
    sigs = [_signature(r) for r in results]
    return hashlib.sha256(repr(sigs).encode()).hexdigest()


def test_bench_pool_scaling(benchmark, monkeypatch):
    # Engage the pool even on throttled/single-core CI containers; the
    # wall-clock gates below stay opt-in via REPRO_BENCH_STRICT.
    monkeypatch.setattr(parallel, "_available_cpus",
                        lambda: max(4, os.cpu_count() or 1))
    shutdown_pools()

    dfgs = _hot_dfgs()
    params = ExplorationParams(max_iterations=80, restarts=4, max_rounds=6)

    def explore_at(jobs):
        explorer = AcoEngine(MachineConfig(2, "4/2"), params=params,
                             seed=17, batch=DEFAULT_BATCH)
        start = time.perf_counter()
        results = explorer.explore_many(dfgs, jobs=jobs)
        return results, time.perf_counter() - start

    def measure():
        timings = {}
        digests = {}
        for jobs in JOB_COUNTS:
            results, seconds = explore_at(jobs)
            timings[jobs] = seconds
            digests[jobs] = _digest(results)
        # Second jobs=4 exploration on the warm pool: workers already
        # forked.
        warm_results, warm_s = explore_at(4)
        digests["warm"] = _digest(warm_results)
        return timings, digests, warm_s

    timings, digests, warm_s = run_once(benchmark, measure)
    pool = active_pool()
    pool_stats = dict(pool.stats) if pool is not None else {}
    shutdown_pools()

    # Hard contract: the golden bit-parity digest holds at every job
    # count, cold and warm.
    for label, digest in digests.items():
        assert digest == BATCHED_GOLDEN_DIGEST, \
            "parity broken at jobs={}".format(label)

    serial_s = timings[1]
    cold4_s = timings[4]
    amortization = cold4_s / warm_s if warm_s > 0 else 0.0
    payload = {
        "workloads": ["crc32", "bitcount", "adpcm"],
        "blocks": len(dfgs),
        "jobs": jobs_environment(max(JOB_COUNTS)),
        "runs": {
            str(jobs): {
                "seconds": round(timings[jobs], 3),
                "speedup_vs_serial": round(serial_s / timings[jobs], 3)
                if timings[jobs] > 0 else 0.0,
                "scaling_efficiency": round(
                    serial_s / (timings[jobs] * jobs), 3)
                if timings[jobs] > 0 else 0.0,
            }
            for jobs in JOB_COUNTS
        },
        "warm4_s": round(warm_s, 3),
        "startup_amortization": round(amortization, 3),
        "pool": {
            "dispatches": pool_stats.get("dispatches", 0),
            "tasks": pool_stats.get("tasks", 0),
            "steals": pool_stats.get("steals", 0),
            "broadcast_bytes": pool_stats.get("broadcast_bytes", 0),
        },
        "golden_digest": BATCHED_GOLDEN_DIGEST,
    }
    with open(OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print("pool: serial {:.2f}s | jobs=4 cold {:.2f}s ({:.2f}x) | "
          "warm {:.2f}s ({:.2f}x cold) | {} steal(s) on {} "
          "cpu(s)".format(
              serial_s, cold4_s,
              serial_s / cold4_s if cold4_s > 0 else 0.0,
              warm_s, amortization, pool_stats.get("steals", 0),
              os.cpu_count()))

    assert all(seconds > 0 for seconds in timings.values())
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        if (os.cpu_count() or 1) >= max(JOB_COUNTS):
            # Reference-host gates: 4 workers must clear 2.5x serial,
            # and the warm pool must beat the cold pooled call by 1.5x.
            assert serial_s / cold4_s >= 2.5
            assert amortization >= 1.5
        else:
            # Fewer cores than workers: 4 processes time-slice one or
            # two CPUs, so wall-clock multipliers are meaningless here.
            # Parity was still asserted above; only the scaling gates
            # are host-dependent.
            print("strict scaling gates skipped: {} cpu(s) < {} "
                  "worker(s)".format(os.cpu_count(), max(JOB_COUNTS)))
