"""Worker-pool tests: stealing, ordered replay, persistence, shared
evalcache scoping and shared-memory leak guards.

Everything here drives the pool explicitly (``parallel_map`` with
``jobs>1`` or :class:`WorkerPool` directly) — the ``resolve_jobs``
clamp would otherwise serialise the whole file on a one-core CI box.
"""

import io
import os
import signal
import threading
import time
from multiprocessing import shared_memory

import pytest

from repro.core import pool as pool_mod
from repro.core.evalcache import EvalCache
from repro.core.parallel import parallel_map
from repro.core.pool import (
    SharedEvalCache,
    WorkerPool,
    active_pool,
    get_pool,
    shared_key_bytes,
    shutdown_pools,
)
from repro.errors import ReproError
from repro.obs import MemorySink, Observer, ProgressSink


@pytest.fixture(autouse=True)
def _clean_pool():
    """Every test starts and ends without a persistent pool."""
    shutdown_pools()
    yield
    shutdown_pools()


def _square(x):
    return x * x


def _sleepy(index, delay):
    time.sleep(delay)
    return index


def _boom(x):
    raise ValueError("boom {}".format(x))


def _emit(obs, index, delay):
    """Sleep, then emit one round event tagged with the task index."""
    time.sleep(delay)
    obs.event("round", function="f", label="b", restart=index, round=0,
              iterations=1, converged=True, proposals=0, tet_best=index)
    obs.count("pool_test.tasks")
    return index


class TestSharedEvalCache:
    def test_insert_lookup_roundtrip(self):
        cache = SharedEvalCache(slots=256)
        try:
            assert cache.lookup(b"missing") is None
            assert cache.insert(b"alpha", 42)
            assert cache.insert(b"beta", -7)
            assert cache.lookup(b"alpha") == 42
            assert cache.lookup(b"beta") == -7
            assert not cache.insert(b"alpha", 99)     # first write wins
            assert cache.lookup(b"alpha") == 42
            assert cache.count == 2
        finally:
            cache.close()

    def test_load_limit_stops_inserts(self):
        cache = SharedEvalCache(slots=64)
        try:
            inserted = sum(
                cache.insert(str(i).encode(), i) for i in range(64))
            assert inserted == cache.limit
            assert not cache.insert(b"one-more", 1)
        finally:
            cache.close()

    def test_attach_sees_owner_entries(self):
        owner = SharedEvalCache(slots=128)
        reader = None
        try:
            owner.insert(b"key", 1234)
            reader = SharedEvalCache.attach(owner.name, owner.slots)
            assert reader.lookup(b"key") == 1234
            assert reader.lookup(b"nope") is None
        finally:
            if reader is not None:
                reader.close()
            owner.close()

    def test_snapshot_preload_carries_entries(self):
        first = SharedEvalCache(slots=128)
        second = SharedEvalCache(slots=256)
        try:
            for i in range(10):
                first.insert(str(i).encode(), i * 11)
            second.preload(first.snapshot_rows())
            for i in range(10):
                assert second.lookup(str(i).encode()) == i * 11
        finally:
            first.close()
            second.close()

    def test_close_unlinks_segment(self):
        cache = SharedEvalCache(slots=64)
        name = cache.name
        cache.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        cache.close()                                  # idempotent


class TestEvalCacheSharedTier:
    """The per-explorer cache's hooks into the worker shared tier,
    simulated in-process by installing the worker globals."""

    @pytest.fixture()
    def worker_tier(self):
        shared = SharedEvalCache(slots=256)
        pool_mod._WORKER_SHARED = shared
        pool_mod._WORKER_LOG = log = []
        yield shared, log
        pool_mod._WORKER_SHARED = None
        pool_mod._WORKER_LOG = None
        shared.close()

    def test_put_logs_and_parent_fold_makes_it_a_hit(self, worker_tier):
        shared, log = worker_tier
        cache = EvalCache(scope="2is|4/2")
        key = ("dfg-fp", (), None)
        assert cache.get(key) is None                  # miss everywhere
        cache.put(key, 42)
        assert log == [(shared_key_bytes("2is|4/2", key), 42)]
        for key_bytes, value in log:                   # the parent fold
            shared.insert(key_bytes, value)
        fresh = EvalCache(scope="2is|4/2")
        assert fresh.get(key) == 42
        assert fresh.shared_hits == 1 and fresh.hits == 1
        # Promoted locally: the second probe never touches the table.
        shared.close()
        pool_mod._WORKER_SHARED = None
        assert fresh.get(key) == 42

    def test_shared_entries_are_scope_keyed(self, worker_tier):
        shared, __ = worker_tier
        key = ("dfg-fp", (), None)
        shared.insert(shared_key_bytes("2is|4/2", key), 10)
        same_scope = EvalCache(scope="2is|4/2")
        other_scope = EvalCache(scope="4is|10/5")
        assert same_scope.get(key) == 10
        # A different machine must never see this cycle count.
        assert other_scope.get(key) is None
        assert other_scope.shared_hits == 0

    def test_non_int_values_stay_out_of_the_shared_log(self, worker_tier):
        __, log = worker_tier
        cache = EvalCache(scope="s")
        cache.put(("k",), 1.5)
        assert log == []
        assert cache.get(("k",)) == 1.5                # local tier still has it


class TestWorkerPool:
    def test_results_keep_submission_order(self):
        pool = WorkerPool(3)
        try:
            results = pool.run(_square, [(i,) for i in range(20)])
            assert results == [i * i for i in range(20)]
        finally:
            pool.shutdown()

    def test_work_stealing_backfills_a_long_task(self):
        pool = WorkerPool(3)
        try:
            tasks = [(i, 0.5 if i == 0 else 0.005) for i in range(9)]
            results = pool.run(_sleepy, tasks)
            assert results == list(range(9))
            assert pool.stats["steals"] >= 1
        finally:
            pool.shutdown()

    def test_costs_front_load_without_reordering_results(self):
        pool = WorkerPool(2)
        try:
            tasks = [(i,) for i in range(10)]
            plain = pool.run(_square, tasks)
            guided = pool.run(_square, tasks, costs=list(range(10)))
            assert plain == guided == [i * i for i in range(10)]
        finally:
            pool.shutdown()

    def test_task_exception_propagates_and_pool_survives(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(ValueError, match="boom"):
                pool.run(_boom, [(i,) for i in range(4)])
            assert not pool.broken
            assert pool.run(_square, [(i,) for i in range(4)]) \
                == [0, 1, 4, 9]
        finally:
            pool.shutdown()

    def test_replay_order_matches_submission_not_completion(self):
        """Satellite: a stolen task that finishes early must not render
        its round line out of task order."""
        stream = io.StringIO()
        memory = MemorySink()
        obs = Observer(sinks=[memory, ProgressSink(stream=stream)])
        # Task 0 sleeps; later tasks finish (and are partly stolen)
        # long before it — completion order is guaranteed != task order.
        tasks = [(obs, i, 0.4 if i == 0 else 0.005) for i in range(6)]
        results = parallel_map(_emit, tasks, 3, obs=obs)
        assert results == list(range(6))
        assert active_pool().stats["steals"] >= 1
        restarts = [e.data["restart"] for e in memory.of_kind("round")]
        assert restarts == list(range(6))
        lines = [line for line in stream.getvalue().splitlines()
                 if "round" in line]
        rendered = [int(line.split(" r")[1].split()[0]) for line in lines]
        assert rendered == list(range(6))
        assert obs.metrics.counters["pool_test.tasks"] == 6
        assert obs.metrics.counters["pool.dispatches"] == 1
        assert obs.metrics.gauges["pool.workers"] == 3

    def test_parallel_map_uses_persistent_pool(self):
        first = parallel_map(_square, [(i,) for i in range(6)], 3)
        pool = active_pool()
        assert pool is not None
        pids = pool.worker_pids()
        second = parallel_map(_square, [(i,) for i in range(6)], 3)
        assert first == second == [i * i for i in range(6)]
        assert active_pool() is pool
        assert pool.worker_pids() == pids
        assert pool.stats["dispatches"] == 2

    def test_get_pool_grows_and_keeps_shared_cache(self):
        small = get_pool(2)
        small.cache.insert(b"carried", 77)
        grown = get_pool(4)
        assert grown is not small
        assert grown.workers == 4
        assert grown.cache.lookup(b"carried") == 77
        assert get_pool(2) is grown                    # no shrink churn

    def test_shutdown_pools_is_idempotent(self):
        get_pool(2)
        shutdown_pools()
        assert active_pool() is None
        shutdown_pools()                               # second call: no-op


class TestLeakGuards:
    def test_killed_worker_does_not_strand_segments(self):
        """Satellite: SIGKILL-ing a worker must not leave shared memory
        behind once the pool is torn down."""
        pool = get_pool(2)
        cache_name = pool.cache.name
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        time.sleep(0.1)
        with pytest.raises(ReproError):
            pool.run(_square, [(i,) for i in range(6)])
        assert pool.broken
        shutdown_pools()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=cache_name)
        # The registry recovers with a fresh pool on the next dispatch.
        assert parallel_map(_square, [(i,) for i in range(4)], 2) \
            == [0, 1, 4, 9]

    def test_worker_killed_mid_dispatch_raises_and_unlinks(self):
        pool = get_pool(2)
        cache_name = pool.cache.name
        victim = pool.worker_pids()[0]
        outcome = {}

        def run():
            try:
                pool.run(_sleepy, [(i, 0.4) for i in range(4)])
            except BaseException as exc:   # noqa: BLE001 - recorded
                outcome["error"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.15)                   # workers are mid-sleep
        os.kill(victim, signal.SIGKILL)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert isinstance(outcome.get("error"), ReproError)
        assert pool.broken
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=cache_name)

    def test_eval_context_close_releases_pool(self):
        from repro.eval.runner import EvalContext

        get_pool(2)
        assert active_pool() is not None
        context = EvalContext(profile="quick", workload_names=["crc32"])
        context.close()
        assert active_pool() is None
