"""Regression: the exploration memo lives in one EvalContext only.

An explored bundle is memoised by the :class:`EvalContext` that
explored it, so a repeat request within that context is served from
memory.  Nothing outlives the context: a second context with the same
settings explores again (and gets the same bundle, because exploration
is deterministic), and no run leaves files behind in its working
directory.
"""

from repro.eval.runner import EvalContext
from repro.sched.machine import MachineConfig


def _bundle(explored):
    return (explored.baseline_cycles,
            [sorted(c.members) for c in explored.candidates])


def test_memo_is_per_context(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    machine = MachineConfig(2, "4/2")
    cell = ("crc32", machine, "O3", "MI")

    with EvalContext(profile="quick", seed=7,
                     workload_names=["crc32"]) as first:
        __, explored_cold = first.explored(*cell)
        ___, explored_repeat = first.explored(*cell)
        assert explored_repeat is explored_cold        # memory hit
        assert first.cache_stats() == {"memory_hits": 1,
                                       "memory_misses": 1}

    with EvalContext(profile="quick", seed=7,
                     workload_names=["crc32"]) as second:
        __, explored_again = second.explored(*cell)
        assert explored_again is not explored_cold     # explored afresh
        assert second.cache_stats() == {"memory_hits": 0,
                                        "memory_misses": 1}
        assert _bundle(explored_again) == _bundle(explored_cold)

    assert list(tmp_path.iterdir()) == []              # nothing on disk
