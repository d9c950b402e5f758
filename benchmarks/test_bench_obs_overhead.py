"""Observability overhead guard: the disabled path must be ≤ 2%.

Direct A/B timing of "engine with hooks" vs "engine without hooks" is
impossible in-tree (the unhooked engine no longer exists) and flaky
anyway, so the guard is structural: time a serial exploration with the
default :data:`~repro.obs.NULL_OBSERVER`, count how many hook sites it
actually crossed (by re-running with a recording observer), then
micro-benchmark the cost of one disabled hook (`if obs:` on a falsy
observer).  The product — hooks crossed × cost per disabled hook — is
the *entire* overhead the observability layer adds to an unobserved
run, and it must stay under 2% of the exploration's wall-clock.

Writes ``BENCH_obs.json`` (hook counts, per-hook cost, overhead share)
at the repository root for CI artifact tracking.
"""

import json
import os
import time
import timeit

from repro.config import ExplorationParams
from repro.core.flow import ISEDesignFlow
from repro.engines.aco import AcoEngine
from repro.ir.passes.pipeline import optimize
from repro.obs import NULL_OBSERVER, Observer
from repro.sched.machine import MachineConfig
from repro.workloads import get_workload

from conftest import jobs_environment, run_once

WORKLOADS = ("crc32", "bitcount", "adpcm")
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_obs.json")
MAX_OVERHEAD = 0.02


class _CountingSink:
    """Tallies delivered events without retaining them."""

    def __init__(self):
        self.events = 0

    def handle(self, event):
        self.events += 1

    def close(self):
        pass


def _hot_dfgs():
    machine = MachineConfig(2, "4/2")
    dfgs = []
    for name in WORKLOADS:
        program, args = get_workload(name).build()
        flow = ISEDesignFlow(machine, seed=3, max_blocks=2)
        blocks = flow.profile_blocks(optimize(program, "O3"), args=args)
        dfgs.extend(b.dfg for b in flow._select_hot_blocks(blocks))
    return dfgs


def _hook_crossings(observer):
    """Hook-site crossings of one fully observed run.

    Every ``if obs:`` guard in the engine fronts one event emission
    plus a handful of counter updates; counting delivered events,
    counter updates and timer spans of an *enabled* run therefore
    bounds the number of guard evaluations of the disabled run from
    above (the disabled run evaluates exactly the same guards).
    """
    metrics = observer.metrics
    events = sum(sink.events for sink in observer.sinks)
    counter_updates = len(metrics.counters)
    timer_spans = sum(entry[0] for entry in metrics.timers.values())
    gauges = len(metrics.gauges)
    return events + counter_updates + timer_spans + gauges


def test_bench_obs_overhead(benchmark):
    dfgs = _hot_dfgs()
    params = ExplorationParams(max_iterations=80, restarts=2,
                               max_rounds=6)

    def explore_with(obs):
        explorer = AcoEngine(MachineConfig(2, "4/2"), params=params,
                             seed=17, obs=obs)
        start = time.perf_counter()
        results = explorer.explore_many(dfgs, jobs=1)
        return results, time.perf_counter() - start

    def measure():
        return explore_with(NULL_OBSERVER)

    plain, plain_s = run_once(benchmark, measure)

    sink = _CountingSink()
    observed_obs = Observer(sinks=[sink])
    observed, observed_s = explore_with(observed_obs)

    # The layer must not perturb results in either mode.
    assert [r.final_cycles for r in plain] \
        == [r.final_cycles for r in observed]

    # Cost of one disabled hook: the `if obs:` truth test itself.
    loops = 1_000_000
    null_hook_s = timeit.timeit(
        "1 if obs else 0", globals={"obs": NULL_OBSERVER},
        number=loops) / loops

    crossings = _hook_crossings(observed_obs)
    disabled_overhead_s = crossings * null_hook_s
    share = disabled_overhead_s / plain_s

    payload = {
        "workloads": list(WORKLOADS),
        "blocks": len(dfgs),
        "jobs": jobs_environment(1),
        "plain_s": round(plain_s, 3),
        "observed_s": round(observed_s, 3),
        "hook_crossings": crossings,
        "null_hook_ns": round(null_hook_s * 1e9, 2),
        "disabled_overhead_s": round(disabled_overhead_s, 6),
        "disabled_overhead_share": round(share, 6),
        "max_overhead_share": MAX_OVERHEAD,
    }
    with open(OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print("obs overhead: {} hook crossings x {:.1f}ns = {:.4f}s "
          "({:.3%} of {:.2f}s serial run)".format(
              crossings, null_hook_s * 1e9, disabled_overhead_s,
              share, plain_s))

    assert share <= MAX_OVERHEAD
