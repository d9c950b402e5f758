"""Exploration-service benchmark: latency, concurrency, amortization.

One in-process :class:`ExploreServer` on a loopback socket serves every
phase; ``BENCH_serve.json`` records the service overheads the daemon
adds on top of the explorations it multiplexes:

* ``latency``    — round-trip p50/p95 of memo-answered explore
  requests (framing + validation + lane hand-off, no exploration);
* ``throughput`` — memo-answered requests/second at 1, 4 and 16
  concurrent clients hammering one scope;
* ``burst``      — wall-clock for K fresh fingerprints sent at once
  (the scope lane explores them one after another) versus the same K
  run serially through one-shot :func:`repro.api.explore`.

Digest parity between every served result and its one-shot reference
is asserted unconditionally — a fast service that changes answers is
not a service.  Wall-clock gates (the burst no slower than 1.5× serial,
nonzero throughput scaling) are asserted only under
``REPRO_BENCH_STRICT=1``.
"""

import json
import os
import statistics
import threading
import time

from repro import api
from repro.serve import schema
from repro.serve.client import ServiceClient
from repro.serve.server import ExploreServer

from conftest import run_once

OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_serve.json")

STRICT = os.environ.get("REPRO_BENCH_STRICT", "").strip() == "1"

EFFORT = dict(profile="quick", iterations=8, restarts=1)
LATENCY_SAMPLES = 60
CLIENT_COUNTS = (1, 4, 16)
REQUESTS_PER_CLIENT = 6
BURST_SEEDS = tuple(range(300, 308))


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _throughput(address, clients, per_client):
    """Requests/second of ``clients`` hammering one memoized fingerprint."""
    barrier = threading.Barrier(clients + 1)
    errors = []

    def hammer():
        client = ServiceClient(address, timeout=60.0)
        try:
            barrier.wait(timeout=30)
            for __ in range(per_client):
                client.explore("crc32", seed=501, **EFFORT)
        except Exception as error:        # noqa: BLE001 - recorded
            errors.append(error)
        finally:
            client.close()

    threads = [threading.Thread(target=hammer) for __ in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=30)
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - start
    assert not errors, errors
    total = clients * per_client
    return total / elapsed if elapsed > 0 else 0.0


def test_bench_serve(benchmark):
    server = ExploreServer(port=0)
    server.start_in_thread()

    def measure():
        phases = {}
        address = server.address

        # Serial one-shot references for the burst phase (and the
        # parity assertions) — timed as the amortization baseline.
        start = time.perf_counter()
        references = {
            seed: schema.explore_payload(
                api.explore("crc32", seed=seed, **EFFORT))
            for seed in BURST_SEEDS
        }
        phases["serial_oneshot_s"] = time.perf_counter() - start

        # Burst the same fingerprints through one connection: send them
        # all, then collect — the scope lane explores them in turn.
        client = ServiceClient(address, timeout=120.0)
        try:
            start = time.perf_counter()
            rids = [client.send(dict(EFFORT, op="explore",
                                     workload="crc32", seed=seed))
                    for seed in BURST_SEEDS]
            served = [client.wait(rid) for rid in rids]
            phases["burst_s"] = time.perf_counter() - start

            # Round-trip latency of memo-answered requests (the first
            # explore above warmed seed 501's slot via throughput runs
            # below; use a burst seed already memoized by the burst).
            samples = []
            for __ in range(LATENCY_SAMPLES):
                start = time.perf_counter()
                client.explore("crc32", seed=BURST_SEEDS[0], **EFFORT)
                samples.append(time.perf_counter() - start)
        finally:
            client.close()

        # Warm seed 501 once, then measure client-count scaling on the
        # memoized path (pure multiplexing overhead).
        with ServiceClient(address, timeout=120.0) as warmer:
            warmer.explore("crc32", seed=501, **EFFORT)
        throughput = {
            clients: _throughput(address, clients, REQUESTS_PER_CLIENT)
            for clients in CLIENT_COUNTS
        }
        return phases, references, served, samples, throughput

    try:
        phases, references, served, samples, throughput = \
            run_once(benchmark, measure)
        counters = dict(server.counters)
    finally:
        server.stop()

    # Hard contract: every burst answer digests equal to its one-shot.
    for seed, payload in zip(BURST_SEEDS, served):
        assert schema.explore_digest(payload) \
            == schema.explore_digest(references[seed]), \
            "served seed {} diverged from one-shot".format(seed)

    amortization = phases["serial_oneshot_s"] / phases["burst_s"] \
        if phases["burst_s"] > 0 else 0.0
    payload = {
        "effort": EFFORT,
        "latency_ms": {
            "p50": round(_percentile(samples, 0.50) * 1e3, 3),
            "p95": round(_percentile(samples, 0.95) * 1e3, 3),
            "mean": round(statistics.mean(samples) * 1e3, 3),
            "samples": len(samples),
        },
        "throughput_rps": {
            str(clients): round(rps, 1)
            for clients, rps in throughput.items()
        },
        "requests_per_client": REQUESTS_PER_CLIENT,
        "burst": {
            "fingerprints": len(BURST_SEEDS),
            "serial_oneshot_s": round(phases["serial_oneshot_s"], 3),
            "burst_s": round(phases["burst_s"], 3),
            "amortization": round(amortization, 3),
        },
        "server_counters": counters,
        "parity": {"burst_vs_oneshot": True},
    }
    with open(OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print("serve bench: p50 {} ms, p95 {} ms, throughput {} rps @16, "
          "amortization {}x".format(
              payload["latency_ms"]["p50"], payload["latency_ms"]["p95"],
              payload["throughput_rps"]["16"], payload["burst"]
              ["amortization"]))

    if STRICT:
        assert amortization >= 1 / 1.5, \
            "burst more than 1.5x slower than serial one-shots"
        assert all(rps > 0 for rps in throughput.values())
