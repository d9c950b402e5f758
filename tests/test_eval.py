"""Tests for the evaluation harness (metrics, runner, reporting)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.config import ISEConstraints
from repro.errors import ReproError
from repro.eval import (
    EvalContext,
    PROFILES,
    arithmetic_mean,
    geometric_mean,
    machine_for_case,
    reduction_percent,
    render_area_vs_reduction,
    render_headline,
    render_stacked_figure,
    render_table_5_1_1,
    summarize,
)
from repro.hwlib import DEFAULT_DATABASE


class TestMetrics:
    def test_reduction_percent(self):
        assert reduction_percent(100, 80) == pytest.approx(20.0)
        assert reduction_percent(100, 100) == 0.0

    def test_reduction_rejects_zero_base(self):
        with pytest.raises(ReproError):
            reduction_percent(0, 10)

    def test_means(self):
        assert arithmetic_mean([2, 4]) == 3.0
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([0.0, 4.0]) == 2.0   # falls back

    def test_summarize(self):
        assert summarize([3.0, 1.0, 2.0]) == (3.0, 1.0, 2.0)

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            summarize([])


class TestRunner:
    def test_profiles_exist(self):
        assert {"quick", "normal", "full"} <= set(PROFILES)

    def test_unknown_profile(self):
        with pytest.raises(ReproError):
            EvalContext(profile="turbo")

    def test_machine_for_case(self):
        machine = machine_for_case("6/3", 3)
        assert machine.issue_width == 3
        assert machine.register_file.spec == "6/3"

    def test_context_caches_explorations(self):
        ctx = EvalContext(profile="quick", workload_names=["dijkstra"],
                          seed=3)
        machine = machine_for_case("4/2", 2)
        flow1, explored1 = ctx.explored("dijkstra", machine, "O0", "MI")
        flow2, explored2 = ctx.explored("dijkstra", machine, "O0", "MI")
        assert explored1 is explored2 and flow1 is flow2

    def test_ant_batch_is_never_served_a_stale_bundle(self, tmp_path,
                                                     monkeypatch):
        """A context built under ``REPRO_ANT_BATCH=1`` explores at batch
        1, even after a default-batch context explored the same cell in
        the same working directory: its bundle equals the one a clean
        process explores at batch 1."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_ANT_BATCH", raising=False)
        default_batch = _crc32_signature()
        monkeypatch.setenv("REPRO_ANT_BATCH", "1")
        served = _crc32_signature()

        clean = tmp_path / "clean"
        clean.mkdir()
        path = [str(pathlib.Path(repro.__file__).parent.parent),
                str(pathlib.Path(__file__).parent)]
        env = dict(os.environ, REPRO_ANT_BATCH="1",
                   PYTHONPATH=os.pathsep.join(path))
        code = ("import json\n"
                "from test_eval import _crc32_signature\n"
                "print(json.dumps(_crc32_signature()))\n")
        child = subprocess.run([sys.executable, "-c", code], cwd=clean,
                               env=env, capture_output=True, text=True,
                               timeout=300, check=True)
        fresh = json.loads(child.stdout)
        assert served == fresh
        assert fresh != default_batch           # the knob matters here

    def test_reduction_cell(self):
        ctx = EvalContext(profile="quick", workload_names=["dijkstra"],
                          seed=3)
        machine = machine_for_case("4/2", 2)
        value = ctx.reduction("dijkstra", machine, "O0", "MI",
                              ISEConstraints(max_ises=1))
        assert 0.0 <= value < 100.0

    def test_unknown_algorithm(self):
        ctx = EvalContext(profile="quick", workload_names=["dijkstra"])
        machine = machine_for_case("4/2", 2)
        with pytest.raises(ReproError):
            ctx.explored("dijkstra", machine, "O0", "QUANTUM")


class TestReporting:
    def test_stacked_figure_layout(self):
        rows = {("MI", "4/2", 2, "O3"): {10: 5.0, 20: 6.0}}
        text = render_stacked_figure(rows, "A=", "title")
        assert "title" in text
        assert "MI (4/2, 2IS, O3)" in text
        assert "5.00%" in text

    def test_area_vs_reduction_layout(self):
        series = {"MI": [(1, 1000.0, 10.0)]}
        text = render_area_vs_reduction(series, "fig")
        assert "MI" in text and "1000" in text

    def test_headline_layout(self):
        text = render_headline("H1", (1.0, 2.0, 3.0), (4.0, 5.0, 6.0),
                               {"case": 7.0})
        assert "paper" in text and "measured" in text and "case" in text

    def test_table_5_1_1_contains_all_groups(self):
        text = render_table_5_1_1(DEFAULT_DATABASE)
        for token in ("mult", "sll sllv", "84428"):
            assert token in text


def _crc32_signature():
    """JSON-able digest of one quick crc32 exploration (4/2 2-issue,
    O3, MI, seed 7) under the current environment."""
    machine = machine_for_case("4/2", 2)
    with EvalContext(profile="quick", seed=7,
                     workload_names=["crc32"]) as ctx:
        __, explored = ctx.explored("crc32", machine, "O3", "MI")
    return [explored.baseline_cycles] + [
        [sorted(c.members),
         sorted([uid, c.option_of[uid].label] for uid in c.members),
         c.cycles]
        for c in explored.candidates]
