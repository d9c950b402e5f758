"""Regression: the disk ExplorationCache and the in-memory tiers
compose as store-once / hit-from-nearest-tier.

An exploration result exists in up to three places: the EvalContext's
in-process memo, the on-disk ExplorationCache, and (transitively) the
evalcache that accelerated the exploration itself.  The contract under
test: each tier stores a result exactly once, a repeat request is
served by the *nearest* tier that has it, and a farther tier is never
written again for a result that was served from a nearer one — across
two full :class:`EvalContext` lifetimes sharing one cache directory.
"""

import os
import pickle
import time

from repro.eval.persistence import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    ExplorationCache,
)
from repro.eval.runner import EvalContext
from repro.sched.machine import MachineConfig


def test_store_once_hit_from_nearest_tier(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, "1")
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    machine = MachineConfig(2, "4/2")
    cell = ("crc32", machine, "O3", "MI")

    # Lifetime 1: cold miss explores + stores to disk once; the repeat
    # request is a memory hit that never touches the disk tier again.
    with EvalContext(profile="quick", seed=7,
                     workload_names=["crc32"]) as first:
        __, explored_cold = first.explored(*cell)
        ___, explored_repeat = first.explored(*cell)
        assert explored_repeat is explored_cold        # memory tier
        stats = first.cache_stats()
        assert stats["memory_misses"] == 1 and stats["memory_hits"] == 1
        assert stats["disk_misses"] == 1               # the cold probe
        assert stats["disk_stores"] == 1               # stored exactly once
        assert stats["disk_hits"] == 0
        assert first.disk_cache.stored_bytes > 0

    stored = sorted(tmp_path.glob("*.pkl"))
    assert len(stored) == 1

    # Lifetime 2: fresh memory tier, so the disk tier serves the hit —
    # and nothing is re-stored (no double-storing across lifetimes).
    with EvalContext(profile="quick", seed=7,
                     workload_names=["crc32"]) as second:
        __, explored_disk = second.explored(*cell)
        ___, explored_mem = second.explored(*cell)
        assert explored_mem is explored_disk
        stats = second.cache_stats()
        assert stats["disk_hits"] == 1 and stats["disk_misses"] == 0
        assert stats["disk_stores"] == 0
        assert stats["memory_misses"] == 1 and stats["memory_hits"] == 1
        assert second.disk_cache.stored_bytes == 0
        # The served bundle is equivalent to the one explored cold.
        assert explored_disk.baseline_cycles == explored_cold.baseline_cycles
        assert len(explored_disk.candidates) == len(explored_cold.candidates)

    assert sorted(tmp_path.glob("*.pkl")) == stored    # still one file


def test_disk_cache_lru_eviction(tmp_path):
    blob_size = len(pickle.dumps("x" * 100, pickle.HIGHEST_PROTOCOL))
    cache = ExplorationCache(directory=str(tmp_path), enabled=True,
                             max_bytes=2 * blob_size)
    cache.store("aa", "x" * 100)
    cache.store("bb", "x" * 100)
    assert sorted(p.name for p in tmp_path.glob("*.pkl")) \
        == ["aa.pkl", "bb.pkl"]
    # Refresh "aa" so "bb" is the LRU victim of the next store.
    old = time.time() - 1000
    os.utime(tmp_path / "bb.pkl", (old, old))
    assert cache.load("aa") == "x" * 100
    cache.store("cc", "x" * 100)
    names = sorted(p.name for p in tmp_path.glob("*.pkl"))
    assert names == ["aa.pkl", "cc.pkl"]
    assert cache.evictions == 1
    assert cache.load("bb") is None


def test_fresh_store_never_self_evicts(tmp_path):
    cache = ExplorationCache(directory=str(tmp_path), enabled=True,
                             max_bytes=8)
    cache.store("oversized", "y" * 1000)              # alone over budget
    assert (tmp_path / "oversized.pkl").exists()
    assert cache.load("oversized") == "y" * 1000
