"""Adversarial service journeys: hostile concurrency, dying workers,
and cache poisoning across machine scopes.

These are the "prove it" counterparts to the happy-path journeys:

* N concurrent clients hammering one scope must all receive
  bit-identical results (digest equality against serial one-shot
  references) — multiplexing and memoing may change *when* work runs,
  never *what* it computes.
* A pool worker SIGKILLed while a request is in flight must surface a
  structured error on that request (never a hang), and the very next
  request must succeed on a recreated pool.
* Forged evalcache rows planted under one machine scope must never
  leak into another scope's results, even when the poison sits in the
  shared-memory table the pool workers actually consult.
"""

import os
import signal
import threading

import pytest

from journeys.conftest import FAST

from repro import api
from repro.core.flow import ISEDesignFlow
from repro.core.pool import (
    active_pool,
    add_dispatch_hook,
    remove_dispatch_hook,
    shutdown_pools,
)
from repro.serve import schema
from repro.serve.client import ServiceClient, ServiceError
from repro.serve.server import ExploreServer


def _digest(payload):
    return schema.explore_digest(payload)


def _reference_digest(workload, **params):
    return _digest(schema.explore_payload(api.explore(workload, **params)))


# -- concurrent clients ------------------------------------------------------

def test_concurrent_clients_get_bit_identical_results(serve_server,
                                                      make_client):
    """Four clients, one scope, a mix of identical and distinct
    fingerprints, all in flight at once — every answer digests equal to
    its serial one-shot reference, and duplicate fingerprints agree
    with each other exactly."""
    requests = [
        ("crc32", 21),
        ("crc32", 21),        # duplicate fingerprint of client 0
        ("bitcount", 21),     # same scope and lane as crc32
        ("crc32", 22),        # distinct fingerprint, same scope
    ]
    results = [None] * len(requests)
    errors = []

    def hammer(index, workload, seed):
        try:
            client = make_client()
            results[index] = client.explore(workload, seed=seed, **FAST)
        except Exception as error:    # noqa: BLE001 - re-raised below
            errors.append((index, error))

    threads = [threading.Thread(target=hammer, args=(i, w, s))
               for i, (w, s) in enumerate(requests)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert all(result is not None for result in results)

    # Duplicate fingerprints: byte-for-byte the same payload.
    assert results[0] == results[1]
    # Every unique fingerprint: digest-identical to its one-shot run.
    for (workload, seed), payload in zip(requests, results):
        assert _digest(payload) \
            == _reference_digest(workload, seed=seed, **FAST)


def test_concurrent_duplicate_storm_single_exploration(serve_server,
                                                       make_client,
                                                       monkeypatch):
    """Eight same-fingerprint requests in one burst explore once: the
    first explores, the other seven are served from the memo, and all
    eight payloads are equal."""
    explores = []
    explore_application = ISEDesignFlow.explore_application

    def counted(self, *args, **kwargs):
        explores.append(1)
        return explore_application(self, *args, **kwargs)

    monkeypatch.setattr(ISEDesignFlow, "explore_application", counted)
    clients = [make_client() for _ in range(4)]
    rids = [(client, client.send(dict(FAST, op="explore",
                                      workload="crc32", seed=27)))
            for client in clients for _ in range(2)]
    payloads = [client.wait(rid) for client, rid in rids]
    assert len(explores) == 1
    assert all(payload == payloads[0] for payload in payloads)
    assert _digest(payloads[0]) \
        == _reference_digest("crc32", seed=27, **FAST)


# -- dying workers -----------------------------------------------------------

def test_worker_sigkill_mid_request_structured_error(serve_server,
                                                     make_client,
                                                     monkeypatch):
    """SIGKILL a pool worker while a served request's dispatch is
    starting: the request fails with a structured ServiceError (no
    hang), and the next request succeeds on a recreated pool."""
    from repro.core import parallel

    # The CI container may expose a single CPU; widen the clamp so
    # jobs=2 genuinely fans out over a two-worker pool.
    monkeypatch.setattr(parallel, "_available_cpus", lambda: 4)

    client = make_client(timeout=120.0)
    # Warm-up creates the persistent pool (jobs=2 → two workers).
    warm = client.explore("crc32", seed=41, jobs=2, **FAST)
    assert _digest(warm) == _reference_digest("crc32", seed=41, jobs=2,
                                              **FAST)
    pool = active_pool()
    assert pool is not None and len(pool.worker_pids()) >= 2

    killed = []

    def assassin(phase, info):
        # Fires on the lane thread as the victim request's dispatch
        # begins — the serve request is in flight, the pool is live.
        if phase == "start" and not killed:
            victim = active_pool()
            if victim is not None and victim.worker_pids():
                killed.append(victim.worker_pids()[0])
                os.kill(killed[0], signal.SIGKILL)

    add_dispatch_hook(assassin)
    try:
        with pytest.raises(ServiceError) as excinfo:
            client.explore("crc32", seed=42, jobs=2, **FAST)
    finally:
        remove_dispatch_hook(assassin)
    assert killed, "dispatch hook never fired"
    # Structured failure, not a hang or a dropped connection.
    assert excinfo.value.code == "error"
    assert str(excinfo.value)

    # The service recovers: a fresh fingerprint on the same connection
    # dispatches onto a recreated pool and stays bit-identical.
    after = client.explore("crc32", seed=43, jobs=2, **FAST)
    assert _digest(after) == _reference_digest("crc32", seed=43, jobs=2,
                                               **FAST)
    replacement = active_pool()
    assert replacement is not None
    assert killed[0] not in replacement.worker_pids()


# -- cache poisoning across scopes -------------------------------------------

def test_forged_scope_rows_never_poison_other_scope(monkeypatch):
    """Plant absurd cycle counts in the pool's shared evalcache table
    under a forged machine scope whose key *suffixes* byte-match scope
    B's real rows.  Scope B's served exploration on that very pool must
    ignore them entirely — its digest stays identical to a cache-free
    one-shot run."""
    from repro.core import parallel
    from repro.core.pool import SharedEvalCache

    # Both rounds fan out (jobs=2) so the workers really consult the
    # shared table; widen the CPU clamp so that happens even on a
    # single-CPU container.
    monkeypatch.setattr(parallel, "_available_cpus", lambda: 4)

    scope_b = b"2is|4/2|"          # issue=2, ports=4/2 (FAST's machine)
    scope_a = b"9is|9/9|"          # forged: no real machine hashes here

    reference = _reference_digest("crc32", seed=31, **FAST)

    # Round 1: a served jobs=2 explore folds scope B's real rows into
    # the shared table; record their key bytes as the parent folds.
    real_keys = []
    fold = SharedEvalCache.insert

    def recording_insert(self, key_bytes, value):
        if key_bytes.startswith(scope_b):
            real_keys.append(key_bytes)
        return fold(self, key_bytes, value)

    shutdown_pools()                # next dispatch builds a fresh pool
    monkeypatch.setattr(SharedEvalCache, "insert", recording_insert)
    # The first server stays up until the end: stopping a server tears
    # the process's pool down, and round 2 must run on this very pool.
    first_server = ExploreServer(port=0)
    first_server.start_in_thread()
    try:
        with ServiceClient(first_server.address) as client:
            first = client.explore("crc32", seed=31, jobs=2, **FAST)
        assert _digest(first) == reference
        monkeypatch.setattr(SharedEvalCache, "insert", fold)
        assert real_keys, "scope B rows never reached the shared table"

        # Forge scope-A rows whose unqualified suffix byte-matches
        # scope B's, each claiming an absurdly perfect 1-cycle result.
        # No dispatch is in flight, so the parent may write the table.
        pool = active_pool()
        assert pool is not None
        forged = [scope_a + key[len(scope_b):] for key in real_keys]
        for key in forged:
            pool.cache.insert(key, 1)
        assert all(pool.cache.lookup(key) == 1 for key in forged)

        # Round 2: fresh server (no memo), same poisoned pool — scope B
        # re-explores with its workers reading the shared table.
        dispatches = pool.stats["dispatches"]
        server = ExploreServer(port=0)
        server.start_in_thread()
        try:
            with ServiceClient(server.address) as client:
                second = client.explore("crc32", seed=31, jobs=2, **FAST)
            assert active_pool() is pool
            assert pool.stats["dispatches"] > dispatches
            assert pool.cache.lookup(forged[0]) == 1  # poison still there
        finally:
            server.stop()
        assert _digest(second) == reference
    finally:
        first_server.stop()
        shutdown_pools()
