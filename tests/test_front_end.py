"""The memoised, machine-independent front end of stage 1.

``repro.core.flow.front_end`` optimises, profiles and lowers a program
once per content key; every flow builds fresh blocks over the shared
DFGs and schedules its own base cycles.  These tests pin the key (what
hits, what misses), the LRU bound, the opt-``None`` identity contract
and bit-identity of cold and warm explores, serial and threaded.
"""

import pickle
import threading

import pytest

from repro import api
from repro.config import ExplorationParams
from repro.core import flow as flow_module
from repro.core.flow import ISEDesignFlow, front_end
from repro.ir import DataSegment
from repro.obs import MemorySink, Observer
from repro.sched import MachineConfig
from repro.serve import schema
from repro.workloads import all_workloads, crc32, get_workload

#: Two of the paper's machines (narrowest and widest).
MACHINES = ((2, "4/2"), (4, "8/4"))

#: Effort small enough to explore all seven workloads many times.
EFFORT = dict(profile="quick", iterations=3, restarts=1, seed=1, jobs=1)


@pytest.fixture(autouse=True)
def cold_front_end():
    """Start and leave every test with an empty memo."""
    flow_module._front_ends.clear()
    yield
    flow_module._front_ends.clear()


def _crc32():
    return get_workload("crc32").build()


def _flow(issue=2, ports="4/2", obs=None):
    return ISEDesignFlow(MachineConfig(issue, ports), obs=obs,
                         params=ExplorationParams(max_iterations=3,
                                                  restarts=1, max_rounds=1))


def _explore(workload, opt, issue, ports):
    """``(payload digest, pickle bytes)`` of one api explore."""
    result = api.explore(workload, issue=issue, ports=ports, opt=opt,
                         **EFFORT)
    digest = schema.explore_digest(schema.explore_payload(result))
    return digest, pickle.dumps(result.explored)


class TestKey:
    def test_two_fresh_builds_hit(self):
        first, cached = front_end(*_crc32(), opt_level="O3")
        assert not cached
        second, cached = front_end(*_crc32(), opt_level="O3")
        assert cached and second is first

    def test_one_instruction_edit_misses(self):
        program, args = _crc32()
        front_end(program, args, "O3")
        edited, args = _crc32()
        entry = edited.main.block("entry")
        index = next(i for i, instr in enumerate(entry.body)
                     if instr.imm == 0xEDB88320)
        entry.body[index] = entry.body[index].copy(imm=0x04C11DB7)
        __, cached = front_end(edited, args, "O3")
        assert not cached

    def test_changed_data_word_misses(self):
        program, args = _crc32()
        front_end(program, args, "O3")
        message = bytearray(crc32.message_bytes())
        message[4] ^= 0xFF
        data = DataSegment()
        assert data.place_bytes("message", bytes(message)) == args[0]
        changed, args = _crc32()
        changed.data = data
        __, cached = front_end(changed, args, "O3")
        assert not cached

    def test_different_args_miss(self):
        program, (buf, length) = _crc32()
        front_end(program, (buf, length), "O3")
        __, cached = front_end(program, (buf, length // 2), "O3")
        assert not cached

    def test_different_opt_level_misses(self):
        program, args = _crc32()
        o3, __ = front_end(program, args, "O3")
        o0, cached = front_end(program, args, "O0")
        assert not cached and o0 is not o3

    def test_opt_none_keeps_the_callers_program(self):
        program, args = get_workload("dijkstra").build()
        flow = _flow()
        front_end(program, args)
        again, args = get_workload("dijkstra").build()
        explored = flow.explore_application(again, args=args,
                                            opt_level=None)
        assert explored.program is again


class TestMemo:
    def test_lru_eviction_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(flow_module, "FRONT_END_ENTRIES", 2)
        program, (buf, __) = _crc32()
        keys = [(buf, n) for n in (8, 16, 24)]
        front_end(program, keys[0], "O3")
        front_end(program, keys[1], "O3")
        assert front_end(program, keys[0], "O3")[1]      # touch: now MRU
        front_end(program, keys[2], "O3")                # evicts keys[1]
        assert len(flow_module._front_ends) == 2
        assert front_end(program, keys[0], "O3")[1]
        assert front_end(program, keys[2], "O3")[1]
        assert not front_end(program, keys[1], "O3")[1]

    def test_counters_and_cached_event(self):
        sink = MemorySink()
        obs = Observer(sinks=[sink])
        flow = _flow(obs=obs)
        for __ in range(2):
            program, args = _crc32()
            flow.explore_application(program, args=args, opt_level="O3")
        counters = obs.metrics.snapshot()["counters"]
        assert counters["flow.front_end_misses"] == 1
        assert counters["flow.front_end_hits"] == 1
        assert [event.data["cached"]
                for event in sink.of_kind("flow.profile")] == [False, True]

    def test_every_flow_gets_fresh_blocks(self):
        program, args = get_workload("jpeg").build()
        front, __ = front_end(program, args, "O3")
        narrow = _flow(2, "4/2").profile_blocks(front)
        wide = _flow(4, "8/4").profile_blocks(front)
        again = _flow(2, "4/2").profile_blocks(front)
        for a, b, c in zip(narrow, wide, again):
            assert a is not b and a is not c
            assert a.segments == b.segments
            assert all(x is y for x, y in zip(a.segments, b.segments))
            assert a.base_cycles == c.base_cycles
            assert b.base_cycles <= a.base_cycles
        assert any(b.base_cycles < a.base_cycles
                   for a, b in zip(narrow, wide))


class TestBitIdentity:
    @pytest.mark.parametrize("opt", ["O0", "O3"])
    @pytest.mark.parametrize("workload",
                             [w.name for w in all_workloads()])
    def test_cold_and_warm_explores_match(self, workload, opt):
        cold = {}
        for machine in MACHINES:
            flow_module._front_ends.clear()
            cold[machine] = _explore(workload, opt, *machine)
        # Warm: the memo now holds DFGs the other machine explored too.
        for machine in MACHINES:
            assert _explore(workload, opt, *machine) == cold[machine]

    def test_pickle_ignores_what_earlier_explores_touched(self):
        def explored(max_blocks):
            program, args = get_workload("jpeg").build()
            flow = ISEDesignFlow(MachineConfig(2, "4/2"),
                                 max_blocks=max_blocks,
                                 params=ExplorationParams(
                                     max_iterations=3, restarts=1,
                                     max_rounds=1))
            result = flow.explore_application(program, args=args,
                                              opt_level="O3")
            return len(result.explored_labels), pickle.dumps(result)

        cold = explored(1)
        wider = explored(8)      # explores more of the shared DFGs
        assert wider[0] > cold[0]
        assert explored(1) == cold

    def test_threads_share_dfgs_and_match_serial(self):
        serial = {machine: _explore("jpeg", "O3", *machine)
                  for machine in MACHINES}
        flow_module._front_ends.clear()
        threaded = {}
        start = threading.Barrier(len(MACHINES))

        def run(machine):
            start.wait()
            threaded[machine] = _explore("jpeg", "O3", *machine)

        workers = [threading.Thread(target=run, args=(machine,))
                   for machine in MACHINES]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert threaded == serial
