"""Packed-bitset legality kernel benchmark: parity and speedup.

Probes a 96-node fuzz block (the size regime where §4.2 checks dominate
exploration time) with a 2000-candidate pool three ways:

* the frozen set-based reference (``is_legal_reference`` from
  ``tests/legality_oracle.py`` — the oracle),
* the scalar bitset fast path (``BitsetDFG.is_legal``),
* the batched row API (the whole pool packed to int rows, one call).

Parity across all three is a **hard** assertion on every run.  The
wall-clock contract — scalar and batched each ≥5x the reference on the
same pool — follows the repo convention: asserted when
``REPRO_BENCH_STRICT=1`` (reference hosts) and recorded otherwise.

The second half is the engine check: the scalar golden engine
(``batch=1``, same blocks/parameters/seed as ``test_bench_sched.py``)
runs on the kernel, its only legality path, and must reproduce the
pinned scalar ``GOLDEN_DIGEST`` — the kernel is an exact
transformation, not a new RNG lineage.

Timings and digests land in ``BENCH_bitset.json``.
"""

import hashlib
import json
import os
import random
import sys
import time

from repro.config import ExplorationParams, ISEConstraints
from repro.engines.aco import AcoEngine
from repro.graph.bitset import bitset_view
from repro.graph.fuzz import random_dfg, random_members
from repro.sched.machine import MachineConfig

from conftest import run_once
from test_bench_sched import GOLDEN_DIGEST, _hot_dfgs, _signature

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "tests"))
import legality_oracle  # noqa: E402

N_NODES = 96
N_CANDIDATES = 2000
MAX_SIZE = 12
REPEATS = 5
SPEEDUP_GATE = 5.0
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_bitset.json")

CONS = ISEConstraints()


def _pool():
    # Pure ALU block: the engines probe candidates drawn from the
    # groupable, memory-free region (greedy growth, legalized pieces),
    # so the representative hot path is the one where every check runs
    # to the expensive IN/OUT + convexity stages rather than dying on
    # the trivial memory-mask kill both sides share.
    dfg = random_dfg(7, n_nodes=N_NODES, n_values=N_NODES // 4,
                     p_memory=0.0, p_move=0.0)
    rng = random.Random(42)
    candidates = [random_members(rng, dfg, max_size=MAX_SIZE)
                  for __ in range(N_CANDIDATES)]
    return dfg, candidates


def _best_of(fn):
    best = float("inf")
    for __ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _engine_digest():
    explorer = AcoEngine(
        MachineConfig(2, "4/2"),
        params=ExplorationParams(max_iterations=80, restarts=4,
                                 max_rounds=6),
        seed=17, batch=1)
    results = explorer.explore_many(_hot_dfgs(), jobs=1)
    sigs = [_signature(r) for r in results]
    return hashlib.sha256(repr(sigs).encode()).hexdigest()


def test_bench_bitset_kernel(benchmark):
    dfg, candidates = _pool()
    view = bitset_view(dfg)
    assert view is not None

    def reference():
        return [legality_oracle.is_legal_reference(dfg, members, CONS)
                for members in candidates]

    def scalar():
        return [view.is_legal(members, CONS) for members in candidates]

    def batched():
        return view.legal_rows(view.pack_rows(candidates), CONS)

    def measure():
        # Warm the lazy tables before timing anything.
        ref, fast, rows = reference(), scalar(), batched()
        times = {"reference": _best_of(reference),
                 "scalar": _best_of(scalar),
                 "batched": _best_of(batched)}
        return ref, fast, rows, times

    ref, fast, rows, times = run_once(benchmark, measure)

    # Hard contract: bit-identical verdicts on every candidate.
    assert fast == ref
    assert [bool(ok) for ok in rows] == ref

    scalar_x = times["reference"] / times["scalar"]
    batched_x = times["reference"] / times["batched"]

    # Hard contract: the engines on the kernel reproduce the scalar
    # golden lineage.
    digest = _engine_digest()
    assert digest == GOLDEN_DIGEST

    payload = {
        "nodes": N_NODES,
        "candidates": N_CANDIDATES,
        "max_candidate_size": MAX_SIZE,
        "repeats": REPEATS,
        "legal_fraction": round(sum(ref) / len(ref), 3),
        "cpus": os.cpu_count(),
        "times_ms": {name: round(seconds * 1e3, 3)
                     for name, seconds in times.items()},
        "speedup_scalar": round(scalar_x, 2),
        "speedup_batched": round(batched_x, 2),
        "speedup_gate": SPEEDUP_GATE,
        "engine_golden_digest": GOLDEN_DIGEST,
        "engine_digest": digest,
    }
    with open(OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print("bitset: ref {:.1f}ms | scalar {:.1f}ms ({:.1f}x) | "
          "batched {:.1f}ms ({:.1f}x) | engine digest ok".format(
              times["reference"] * 1e3,
              times["scalar"] * 1e3, scalar_x,
              times["batched"] * 1e3, batched_x))

    assert all(seconds > 0 for seconds in times.values())
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        # Reference-host gate: both fast paths clear 5x the set-based
        # reference on the 96-node pool.
        assert scalar_x >= SPEEDUP_GATE
        assert batched_x >= SPEEDUP_GATE
