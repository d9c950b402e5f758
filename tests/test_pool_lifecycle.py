"""Teardown idempotency and ordering safety of the pool lifecycle.

The serve daemon gave the pool three concurrent owners — a server's
``stop()``, ``EvalContext.close()`` and the ``atexit`` fallback — so
``shutdown_pools()`` and ``EvalContext.close()`` must be idempotent,
thread-safe, and ordering-safe against in-flight dispatches.  This
suite also covers the dispatch hooks the server's instrumentation
hangs off :func:`repro.core.pool.dispatch`.
"""

import os
import subprocess
import sys
import threading
import time

from repro.core.pool import (
    active_pool,
    add_dispatch_hook,
    dispatch,
    get_pool,
    remove_dispatch_hook,
    shutdown_pools,
)
from repro.eval.runner import EvalContext


def _square(x):
    return x * x


def _sleepy(x, delay):
    time.sleep(delay)
    return x


class TestShutdownIdempotency:
    def test_shutdown_pools_twice_is_noop(self):
        get_pool(2)
        assert active_pool() is not None
        shutdown_pools()
        assert active_pool() is None
        shutdown_pools()                              # second call: no-op
        assert active_pool() is None

    def test_worker_pool_shutdown_twice(self):
        pool = get_pool(2)
        pool.shutdown()
        pool.shutdown()                               # idempotent
        shutdown_pools()                              # registry-level too

    def test_concurrent_shutdown_pools_single_teardown(self):
        """Many threads racing shutdown_pools(): exactly one wins, none
        raise, and the pool is gone afterwards."""
        get_pool(2)
        errors = []

        def closer():
            try:
                shutdown_pools()
            except Exception as error:    # noqa: BLE001 - recorded
                errors.append(error)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert active_pool() is None

    def test_shutdown_waits_for_inflight_dispatch(self):
        """Ordering safety: a shutdown racing a dispatch never tears the
        pool down under it — the dispatch completes with correct
        results, then teardown proceeds."""
        get_pool(2)
        results = {}

        def worker():
            results["out"] = dispatch(
                _sleepy, [(i, 0.05) for i in range(6)], 2)

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.05)                  # dispatch is likely mid-flight
        shutdown_pools()                  # must block, not break it
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert results["out"] == list(range(6))
        assert active_pool() is None


class TestEvalContextClose:
    def test_close_twice(self):
        context = EvalContext(profile="quick", workload_names=["crc32"])
        context.close()
        context.close()                               # idempotent

    def test_concurrent_close_from_many_threads(self):
        context = EvalContext(profile="quick", workload_names=["crc32"])
        errors = []

        def closer():
            try:
                context.close()
            except Exception as error:    # noqa: BLE001 - recorded
                errors.append(error)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors

    def test_close_interleaves_with_shutdown_pools(self):
        """Any interleaving of context.close() and shutdown_pools() is
        safe — the serve daemon's stop path runs both."""
        get_pool(2)
        context = EvalContext(profile="quick", workload_names=["crc32"])
        shutdown_pools()
        context.close()                   # pool already gone: still fine
        shutdown_pools()
        assert active_pool() is None


class TestDispatchHooks:
    def test_hooks_fire_start_and_end_with_ok(self):
        seen = []

        def hook(phase, info):
            seen.append((phase, dict(info)))

        add_dispatch_hook(hook)
        try:
            out = dispatch(_square, [(i,) for i in range(4)], 2)
        finally:
            remove_dispatch_hook(hook)
        assert out == [0, 1, 4, 9]
        assert [phase for phase, __ in seen] == ["start", "end"]
        start, end = seen[0][1], seen[1][1]
        assert start == {"tasks": 4, "jobs": 2}
        assert end == {"tasks": 4, "jobs": 2, "ok": True}
        shutdown_pools()

    def test_hook_exceptions_are_swallowed(self):
        def bad_hook(phase, info):
            raise RuntimeError("hooks must never break dispatch")

        add_dispatch_hook(bad_hook)
        try:
            assert dispatch(_square, [(i,) for i in range(3)], 2) \
                == [0, 1, 4]
        finally:
            remove_dispatch_hook(bad_hook)
        shutdown_pools()

    def test_remove_unknown_hook_is_noop(self):
        remove_dispatch_hook(lambda phase, info: None)

    def test_failed_dispatch_reports_ok_false(self):
        seen = []

        def hook(phase, info):
            if phase == "end":
                seen.append(dict(info))

        add_dispatch_hook(hook)
        try:
            try:
                dispatch(_square, [("not-a-number",)], 2)
            except Exception:             # noqa: BLE001 - expected
                pass
        finally:
            remove_dispatch_hook(hook)
        assert seen and seen[0]["ok"] is False
        shutdown_pools()


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open("/proc/{}/stat".format(pid)) as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


class TestOrphanedWorkers:
    def test_workers_exit_when_parent_dies_without_shutdown(self):
        """Each worker closes the parent pipe ends it inherited, so a
        parent that dies without ``shutdown()`` leaves EOF behind and
        every worker exits instead of waiting forever."""
        code = ("import os\n"
                "from repro.core.pool import WorkerPool\n"
                "pool = WorkerPool(2)\n"
                "print(*pool.worker_pids(), flush=True)\n"
                "os._exit(0)\n")
        child = subprocess.Popen([sys.executable, "-c", code],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
        pids = [int(pid) for pid in child.stdout.readline().split()]
        child.stdout.close()
        child.wait(timeout=30)
        try:
            assert len(pids) == 2
            deadline = time.monotonic() + 5.0
            while (time.monotonic() < deadline
                   and any(_running(pid) for pid in pids)):
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            for pid in pids:
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass
