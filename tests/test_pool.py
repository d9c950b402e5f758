"""Worker-pool tests: stealing, ordered replay, persistence and
shared-memory leak guards.

Everything here drives the pool explicitly (``parallel_map`` with
``jobs>1`` or :class:`WorkerPool` directly) — the ``resolve_jobs``
clamp would otherwise serialise the whole file on a one-core CI box.
"""

import io
import os
import signal
import subprocess
import sys
import threading
import time
from multiprocessing import shared_memory

import pytest

from repro.core.parallel import parallel_map
from repro.core.pool import WorkerPool, active_pool, get_pool, shutdown_pools
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
        grown = get_pool(4)
        assert grown is not small
        assert grown.workers == 4
        assert get_pool(2) is grown                    # no shrink churn

    def test_shutdown_pools_is_idempotent(self):
        get_pool(2)
        shutdown_pools()
        assert active_pool() is None
        shutdown_pools()                               # second call: no-op


@pytest.fixture()
def created_segments(monkeypatch):
    """Names of the shared-memory segments created during the test."""
    names = []
    real = shared_memory.SharedMemory

    class Recording(real):
        def __init__(self, name=None, create=False, size=0):
            super().__init__(name=name, create=create, size=size)
            if create:
                names.append(self.name)

    monkeypatch.setattr(shared_memory, "SharedMemory", Recording)
    return names


def _assert_unlinked(names):
    assert names, "no shared-memory segment was created"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestLeakGuards:
    def test_dispatch_unlinks_its_broadcast_segment(self, created_segments):
        pool = get_pool(2)
        assert pool.run(_square, [(i,) for i in range(6)]) \
            == [i * i for i in range(6)]
        _assert_unlinked(created_segments)

    def test_killed_worker_does_not_strand_segments(self, created_segments):
        """Satellite: SIGKILL-ing a worker must not leave shared memory
        behind once the pool is torn down."""
        pool = get_pool(2)
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        time.sleep(0.1)
        with pytest.raises(ReproError):
            pool.run(_square, [(i,) for i in range(6)])
        assert pool.broken
        shutdown_pools()
        _assert_unlinked(created_segments)
        # The registry recovers with a fresh pool on the next dispatch.
        assert parallel_map(_square, [(i,) for i in range(4)], 2) \
            == [0, 1, 4, 9]
        _assert_unlinked(created_segments)

    def test_worker_killed_mid_dispatch_raises_and_unlinks(
            self, created_segments):
        pool = get_pool(2)
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
        _assert_unlinked(created_segments)

    def test_workers_share_the_parent_resource_tracker(self):
        """A worker that started its own tracker would warn about, and
        re-unlink, every broadcast segment it attached to when it exits.
        Run in a fresh process, where no tracker is running yet."""
        script = (
            "from multiprocessing import resource_tracker\n"
            "from repro.core.pool import get_pool, shutdown_pools\n"
            "def tracker_pid():\n"
            "    return resource_tracker._resource_tracker._pid\n"
            "pids = set(get_pool(2).run(tracker_pid, [()] * 4))\n"
            "shutdown_pools()\n"
            "assert pids == {tracker_pid()}, pids\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert done.returncode == 0, done.stderr
        assert "resource_tracker" not in done.stderr, done.stderr

    def test_eval_context_close_releases_pool(self):
        from repro.eval.runner import EvalContext

        get_pool(2)
        assert active_pool() is not None
        context = EvalContext(profile="quick", workload_names=["crc32"])
        context.close()
        assert active_pool() is None
