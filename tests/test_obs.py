"""Tests for the observability layer (:mod:`repro.obs`).

The contract under test: observers are opt-in and inert by default
(``NULL_OBSERVER`` is falsy and free), events survive the process-pool
fan-out with the same multiset at any ``jobs`` setting (and the same
*order* for the per-colony iteration/round stream), metrics registries
merge and render, sinks round-trip through JSON lines, and — crucially
— the engine's numeric results are bit-identical whether observability
is on or off.
"""

import io
import json
import logging
import pickle

import pytest

from repro.config import ExplorationParams
from repro.core.flow import ISEDesignFlow
from repro.errors import ReproError
from repro.eval.runner import EvalContext
from repro.obs import (
    NULL_OBSERVER,
    Event,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    NullObserver,
    Observer,
    ProgressSink,
    collector_metrics,
    ensure_observer,
    load_trace,
    render_summary,
    summarize_trace,
)
from repro.obs import capture
from repro.sched import MachineConfig
from repro.workloads import get_workload

QUICK = ExplorationParams(max_iterations=20, restarts=1, max_rounds=3)


def _run_flow(workload="crc32", jobs=None, obs=None, seed=3):
    program, args = get_workload(workload).build()
    flow = ISEDesignFlow(MachineConfig(2, "4/2"), params=QUICK,
                         seed=seed, jobs=jobs, max_blocks=2, obs=obs)
    explored = flow.explore_application(program, args=args, opt_level="O3")
    return flow, explored


def _signature(explored):
    return (
        explored.baseline_cycles,
        [(sorted(c.members), c.cycles, repr(c.area))
         for c in explored.candidates],
    )


class TestMetricsRegistry:
    def test_count_gauge_timer(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.count("a", 4)
        reg.gauge("g", 2.5)
        reg.time("t", 0.25)
        reg.time("t", 0.25)
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 5
        assert snap["gauges"]["g"] == 2.5
        assert snap["timers"]["t"]["count"] == 2
        assert snap["timers"]["t"]["total_s"] == pytest.approx(0.5)

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("x", 2)
        b.count("x", 3)
        b.gauge("g", 1.0)
        b.time("t", 0.1)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["x"] == 5
        assert snap["gauges"]["g"] == 1.0
        assert snap["timers"]["t"]["count"] == 1

    def test_render_mentions_everything(self):
        reg = MetricsRegistry()
        reg.count("hits", 7)
        reg.gauge("level", 1.5)
        reg.time("step", 0.1)
        text = reg.render()
        for token in ("hits", "7", "level", "step"):
            assert token in text


class TestObserver:
    def test_null_observer_is_falsy_and_inert(self):
        assert not NULL_OBSERVER
        NULL_OBSERVER.event("anything", x=1)
        NULL_OBSERVER.count("c")
        NULL_OBSERVER.gauge("g", 1.0)
        with NULL_OBSERVER.timer("t"):
            pass
        NULL_OBSERVER.close()
        assert NULL_OBSERVER.metrics.snapshot()["counters"] == {}

    def test_null_observer_pickles_to_singleton(self):
        clone = pickle.loads(pickle.dumps(NULL_OBSERVER))
        assert clone is NULL_OBSERVER

    def test_ensure_observer(self):
        assert ensure_observer(None) is NULL_OBSERVER
        obs = Observer()
        assert ensure_observer(obs) is obs

    def test_events_are_sequenced(self):
        sink = MemorySink()
        obs = Observer(sinks=[sink])
        obs.event("a", x=1)
        obs.event("b", y=2)
        assert [e.kind for e in sink.events] == ["a", "b"]
        assert [e.seq for e in sink.events] == [0, 1]
        assert sink.events[0].data == {"x": 1}

    def test_event_identity_ignores_seq_and_time(self):
        first = Event("k", {"a": 1}, seq=0, t=0.0)
        second = Event("k", {"a": 1}, seq=9, t=5.0)
        assert first.identity() == second.identity()

    def test_close_emits_metrics_event_once(self):
        sink = MemorySink()
        obs = Observer(sinks=[sink])
        obs.count("n", 3)
        obs.close()
        obs.close()
        finals = sink.of_kind("metrics")
        assert len(finals) == 1
        assert finals[0].data["counters"]["n"] == 3

    def test_pickle_drops_sinks_keeps_enabled(self):
        obs = Observer(sinks=[MemorySink()])
        clone = pickle.loads(pickle.dumps(obs))
        assert bool(clone) and clone.sinks == []
        disabled = pickle.loads(pickle.dumps(
            Observer(sinks=[MemorySink()], enabled=False)))
        assert not disabled and disabled.sinks == []

    def test_capture_buffers_and_replay_delivers(self):
        obs = Observer(sinks=[MemorySink()])
        capture.begin()
        try:
            obs.event("worker", step=1)
            obs.count("worker.count", 2)
            records = capture.end()
        finally:
            pass
        assert not obs.sinks[0].events  # nothing delivered in "worker"
        parent_sink = MemorySink()
        parent = Observer(sinks=[parent_sink])
        parent.replay(records)
        assert parent_sink.kinds() == ["worker"]
        assert parent.metrics.snapshot()["counters"]["worker.count"] == 2


class TestSinks:
    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs = Observer(sinks=[JsonlSink(str(path))])
        obs.event("round", round=1, tet_best=7)
        obs.close()
        records = load_trace(str(path))
        kinds = [r["kind"] for r in records]
        assert kinds == ["round", "metrics"]
        assert records[0]["tet_best"] == 7

    def test_jsonl_sink_no_file_without_events(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        sink = JsonlSink(str(path))
        sink.close()
        assert not path.exists()

    def test_load_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(ReproError):
            load_trace(str(path))
        with pytest.raises(ReproError):
            load_trace(str(tmp_path / "missing.jsonl"))

    def test_progress_sink_formats_known_kinds(self):
        stream = io.StringIO()
        sink = ProgressSink(stream=stream)
        obs = Observer(sinks=[sink])
        obs.event("flow.profile", program="p", opt="O3", blocks=4,
                  explorable=2)
        obs.event("round", function="f", label="b", restart=0, round=1,
                  iterations=12, converged=True, proposals=3, tet_best=9)
        obs.event("iteration", round=0, iteration=5)  # skipped
        obs.close()
        text = stream.getvalue()
        # iteration + metrics events are skipped: two lines remain
        assert "f:b" in text
        assert len(text.splitlines()) == 2


class TestEngineEvents:
    def test_flow_emits_schema_kinds(self):
        sink = MemorySink()
        flow, explored = _run_flow(obs=Observer(sinks=[sink]))
        kinds = set(sink.kinds())
        assert {"flow.profile", "flow.hot_block", "flow.explored",
                "iteration", "round", "block"} <= kinds
        counters = flow.obs.metrics.snapshot()["counters"]
        assert counters["explore.rounds"] >= 1
        assert counters["explore.iterations"] >= 1
        assert counters["state.weight_row_rebuilds"] >= 1
        assert counters["grouping.memo_hits"] + \
            counters["grouping.memo_misses"] >= 1

    def test_iteration_stream_is_ordered(self):
        sink = MemorySink()
        _run_flow(obs=Observer(sinks=[sink]))
        per_colony = {}
        for event in sink.of_kind("iteration"):
            key = (event.data["function"], event.data["label"],
                   event.data["restart"])
            per_colony.setdefault(key, []).append(
                (event.data["round"], event.data["iteration"]))
        for seen in per_colony.values():
            assert seen == sorted(seen)

    def test_iteration_events_carry_p_end(self):
        sink = MemorySink()
        _run_flow(obs=Observer(sinks=[sink]))
        sps = [e.data["min_sp"] for e in sink.of_kind("iteration")]
        assert sps and all(0.0 <= sp <= 1.0 for sp in sps)

    def test_results_identical_with_and_without_observer(self):
        __, plain = _run_flow(obs=None)
        ___, observed = _run_flow(obs=Observer(sinks=[MemorySink()]))
        assert _signature(plain) == _signature(observed)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_parity(self, jobs):
        serial_sink, pooled_sink = MemorySink(), MemorySink()
        __, serial = _run_flow(jobs=1, obs=Observer(sinks=[serial_sink]))
        ___, pooled = _run_flow(jobs=jobs,
                                obs=Observer(sinks=[pooled_sink]))
        # Results are bit-identical; the full event multiset matches,
        # and the per-colony iteration/round stream matches *in order*
        # (block/flow events may interleave differently with a pool).
        assert _signature(serial) == _signature(pooled)

        def norm(identity):
            # flow.explored records the jobs *setting* — config, not
            # outcome — so it legitimately differs between the runs.
            kind, payload = identity
            return (kind, tuple(kv for kv in payload
                                if kv[0] != "jobs"))

        assert sorted(map(norm, serial_sink.identities())) \
            == sorted(map(norm, pooled_sink.identities()))
        ordered = ("iteration", "round")
        assert [e.identity() for e in serial_sink.events
                if e.kind in ordered] \
            == [e.identity() for e in pooled_sink.events
                if e.kind in ordered]

    def test_trace_summary_of_real_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        obs = Observer(sinks=[JsonlSink(str(path))])
        _run_flow(obs=obs)
        obs.close()
        summary = summarize_trace(load_trace(str(path)))
        assert summary["iterations"] > 0 and summary["rounds"] > 0
        assert summary["p_end"]["last"] >= summary["p_end"]["first"] - 1.0
        text = render_summary(summary)
        assert "events" in text and "rounds" in text


class TestCacheObservability:
    def test_eval_context_memory_counters_and_close(self, caplog):
        obs = Observer(sinks=[MemorySink()])
        ctx = EvalContext(profile="quick", seed=3,
                          workload_names=["crc32"], obs=obs)
        machine = MachineConfig(2, "4/2")
        ctx.params = QUICK
        ctx.max_blocks = 2
        ctx.explored("crc32", machine, "O3")
        ctx.explored("crc32", machine, "O3")
        stats = ctx.cache_stats()
        assert stats["memory_misses"] == 1
        assert stats["memory_hits"] == 1
        counters = obs.metrics.snapshot()["counters"]
        assert counters["cache.memory_miss"] == 1
        assert counters["cache.memory_hit"] == 1
        with caplog.at_level(logging.INFO, logger="repro.eval"):
            ctx.close()
            ctx.close()  # idempotent
        summaries = [r for r in caplog.records
                     if "EvalContext cache" in r.getMessage()]
        assert len(summaries) == 1
        events = obs.sinks[0].of_kind("eval.cache_summary")
        assert len(events) == 1 and events[0].data["memory_hits"] == 1

    def test_eval_context_is_a_context_manager(self):
        with EvalContext(profile="quick", seed=3,
                         workload_names=["crc32"]) as ctx:
            assert ctx.cache_stats()["memory_misses"] == 0
        assert ctx._closed


class TestCollectorMetrics:
    """The cyclic collector as a layer: ``gc.collections.gen*`` counters
    and the ``gc.pause`` timer, for enabled observers only."""

    def test_counts_and_times_each_collection_once(self):
        import gc
        obs = Observer()
        with collector_metrics(obs):
            with collector_metrics(obs):       # nested: charged once
                gc.collect()
        assert obs.metrics.counters["gc.collections.gen2"] == 1
        assert obs.metrics.timers["gc.pause"][0] == 1
        gc.collect()                           # after the block: not seen
        assert obs.metrics.counters["gc.collections.gen2"] == 1

    def test_every_running_observer_is_charged(self):
        import gc
        first, second = Observer(), Observer()
        with collector_metrics(first), collector_metrics(second):
            gc.collect()
        for obs in (first, second):
            assert obs.metrics.counters["gc.collections.gen2"] == 1

    def test_disabled_observer_installs_nothing(self):
        import gc
        before = list(gc.callbacks)
        with collector_metrics(NULL_OBSERVER):
            assert gc.callbacks == before
        with collector_metrics(Observer(enabled=False)):
            assert gc.callbacks == before
        with collector_metrics(Observer()):
            assert len(gc.callbacks) == len(before) + 1
        assert gc.callbacks == before

    def test_api_calls_report_collections(self):
        import gc
        from repro import api
        threshold = gc.get_threshold()
        gc.set_threshold(50)               # make collections certain
        try:
            obs = Observer()
            explored = api.explore("crc32", iterations=4, restarts=1,
                                   observer=obs)
            api.evaluate(explored, max_area=80_000, observer=obs)
        finally:
            gc.set_threshold(*threshold)
        counters = obs.metrics.counters
        assert counters["gc.collections.gen0"] > 0
        collections = sum(counters.get("gc.collections.gen{}".format(g), 0)
                          for g in range(3))
        assert obs.metrics.timers["gc.pause"][0] == collections
