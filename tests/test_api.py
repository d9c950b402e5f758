"""Tests for the public facade (:mod:`repro.api`) and its CLI surface.

The facade contract: ``repro.explore`` / ``repro.evaluate`` are the one
supported entry point — keyword-only, frozen results, observability via
``trace=``/``observer=`` — and they produce *exactly* the numbers the
engine classes produce when driven by hand.  ``ISEDesignFlow`` takes
every argument after ``machine`` by keyword; the old positional
``ISEDesignFlow(machine, params, seed, jobs)`` form raises ``TypeError``.
"""

import dataclasses
import json

import pytest

import repro
from repro import ExploreResult, SelectionResult, evaluate, explore
from repro.cli import main
from repro.config import ExplorationParams, ISEConstraints
from repro.core.flow import ISEDesignFlow
from repro.errors import ReproError
from repro.obs import MemorySink, Observer
from repro.sched import MachineConfig
from repro.workloads import get_workload

FAST = dict(profile=None, iterations=15, restarts=1, seed=3)


@pytest.fixture(scope="module")
def crc_result():
    return explore("crc32", **FAST)


class TestExplore:
    def test_returns_frozen_result(self, crc_result):
        assert isinstance(crc_result, ExploreResult)
        assert crc_result.workload == "crc32"
        assert crc_result.baseline_cycles > 0
        assert crc_result.num_candidates == len(crc_result.candidates)
        assert all(isinstance(c, str) for c in crc_result.candidates)
        with pytest.raises(dataclasses.FrozenInstanceError):
            crc_result.seed = 99

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            explore("crc32", 2)

    def test_unknown_profile_raises(self):
        with pytest.raises(ReproError):
            explore("crc32", profile="turbo")

    def test_unknown_workload_raises(self):
        with pytest.raises(ReproError):
            explore("no-such-workload")

    def test_matches_hand_driven_flow(self, crc_result):
        program, args = get_workload("crc32").build()
        flow = ISEDesignFlow(
            MachineConfig(2, "4/2"),
            params=ExplorationParams(max_iterations=15, restarts=1),
            seed=3)
        explored = flow.explore_application(program, args=args,
                                            opt_level="O3")
        assert crc_result.baseline_cycles == explored.baseline_cycles
        assert list(crc_result.candidates) \
            == [c.describe() for c in explored.candidates]

    def test_trace_written(self, tmp_path):
        path = tmp_path / "api.jsonl"
        result = explore("crc32", trace=str(path), **FAST)
        assert result.trace_path == str(path)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert {"flow.profile", "iteration", "round", "block",
                "metrics"} <= kinds
        assert result.metrics["counters"]["explore.blocks"] >= 1

    def test_caller_owned_observer_not_closed(self):
        sink = MemorySink()
        obs = Observer(sinks=[sink])
        explore("crc32", observer=obs, **FAST)
        assert not sink.of_kind("metrics")  # close() not called
        assert "round" in sink.kinds()


class TestEvaluate:
    def test_reuses_exploration(self, crc_result):
        selection = evaluate(crc_result, max_area=80_000)
        assert isinstance(selection, SelectionResult)
        assert selection.workload == "crc32"
        assert selection.baseline_cycles == crc_result.baseline_cycles
        assert 0.0 <= selection.reduction < 1.0
        assert selection.num_ises == len(selection.ises)
        assert selection.area <= 80_000
        with pytest.raises(dataclasses.FrozenInstanceError):
            selection.area = 0.0

    def test_budget_monotone(self, crc_result):
        tight = evaluate(crc_result, max_area=10_000)
        loose = evaluate(crc_result, max_area=500_000)
        assert loose.reduction >= tight.reduction

    def test_from_workload_name(self, crc_result):
        selection = evaluate("crc32", **FAST)
        baseline = evaluate(crc_result)
        assert selection.final_cycles == baseline.final_cycles
        assert selection.ises == baseline.ises

    def test_max_ises_budget(self, crc_result):
        capped = evaluate(crc_result, max_ises=1)
        assert capped.num_ises <= 1

    def test_matches_hand_driven_report(self, crc_result):
        flow = crc_result.flow
        report = flow.evaluate(crc_result.explored,
                               ISEConstraints(max_area=80_000))
        selection = evaluate(crc_result, max_area=80_000)
        assert selection.final_cycles == report.final_cycles
        assert selection.reduction == report.reduction
        assert selection.area == report.area


class TestLegacyShim:
    def test_positional_flow_raises(self):
        # Everything after ``machine`` is keyword-only: the pre-facade
        # ISEDesignFlow(machine, params, seed, jobs) form fails at once
        # instead of binding ``seed`` to ``constraints``.
        machine = MachineConfig(2, "4/2")
        params = ExplorationParams(max_iterations=15, restarts=1)
        with pytest.raises(TypeError):
            ISEDesignFlow(machine, params, 5, 2)
        with pytest.raises(TypeError):
            ISEDesignFlow(machine, params)

    def test_keyword_flow_does_not_warn(self, recwarn):
        ISEDesignFlow(MachineConfig(2, "4/2"), seed=5, jobs=2)
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]


class TestPackageSurface:
    def test_facade_reexported(self):
        assert repro.explore is explore
        assert repro.evaluate is evaluate
        for name in ("ExploreResult", "SelectionResult", "Observer",
                     "MemorySink", "JsonlSink", "ProgressSink",
                     "MetricsRegistry", "NULL_OBSERVER"):
            assert name in repro.__all__
            assert hasattr(repro, name)


CLI_EFFORT = ["--iterations", "10", "--restarts", "1"]


class TestCli:
    def test_explore_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "cli.jsonl"
        code = main(["explore", "crc32", *CLI_EFFORT,
                     "--trace", str(trace), "--metrics"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reduction:" in out
        assert "counters:" in out and "explore.rounds" in out
        assert trace.exists()

    def test_metrics_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "cli.jsonl"
        assert main(["explore", "crc32", *CLI_EFFORT,
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "events by kind" in out
        assert "P_END trajectory" in out

    def test_metrics_subcommand_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        with pytest.raises(ReproError):
            main(["metrics", str(bad)])

    def test_explore_progress_goes_to_stderr(self, capsys):
        assert main(["explore", "crc32", *CLI_EFFORT,
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[obs]" in captured.err
        assert "[obs]" not in captured.out

    def test_selftest_trace_and_metrics(self, tmp_path, capsys,
                                        monkeypatch):
        import repro.workloads as workloads

        crc = get_workload("crc32")
        monkeypatch.setattr(workloads, "all_workloads", lambda: [crc])
        monkeypatch.setattr(workloads, "extra_workloads", lambda: [])
        trace = tmp_path / "selftest.jsonl"
        code = main(["selftest", "--trace", str(trace), "--metrics"])
        out = capsys.readouterr().out
        assert code == 0
        assert "selftest: all ok" in out
        assert "selftest.checks" in out
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        checks = [r for r in records if r["kind"] == "selftest"]
        assert [(r["workload"], r["level"], r["ok"]) for r in checks] \
            == [("crc32", "O0", True), ("crc32", "O3", True)]
