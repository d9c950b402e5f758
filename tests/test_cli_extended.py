"""Extended CLI tests: manual/gantt commands, argument handling."""

import pytest

from repro.cli import main


class TestManualCommand:
    def test_manual_prints_datasheet(self, capsys):
        code = main(["manual", "dijkstra", "--iterations", "30",
                     "--restarts", "1", "--max-ises", "1", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Custom instructions" in out
        assert "latency" in out or "no instructions" in out

    def test_manual_respects_area_budget(self, capsys):
        code = main(["manual", "dijkstra", "--iterations", "30",
                     "--restarts", "1", "--area", "0", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no instructions" in out


class TestGanttCommand:
    def test_gantt_prints_cycles(self, capsys):
        code = main(["gantt", "adpcm", "--iterations", "30",
                     "--restarts", "1", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline:" in out
        assert "C1" in out


    def test_gantt_skips_merging_on_multi_asfu_machine(self, monkeypatch,
                                                      capsys):
        """Merge condition (2): with two ASFUs the gantt view must show
        the unmerged ISEs that ``evaluate`` would build."""
        from repro import cli
        from repro.core import merging
        from repro.core.flow import ISEDesignFlow
        from repro.sched import MachineConfig

        def two_asfu_flow(args):
            flow = make_flow(args)
            return ISEDesignFlow(
                MachineConfig(args.issue, args.ports,
                              fu_counts={"asfu": 2}),
                params=flow.params, seed=flow.seed)

        calls = []

        def recording_merge(candidates, **kwargs):
            merged = merge(candidates, **kwargs)
            calls.append((list(candidates), merged))
            return merged

        make_flow, merge = cli._flow_from_args, merging.merge_candidates
        monkeypatch.setattr(cli, "_flow_from_args", two_asfu_flow)
        monkeypatch.setattr(merging, "merge_candidates", recording_merge)
        code = main(["gantt", "adpcm", "--iterations", "30",
                     "--restarts", "1", "--seed", "2"])
        assert code == 0
        assert "with ISEs:" in capsys.readouterr().out
        (candidates, merged), = calls
        # Merging would absorb some of these on a single-ASFU machine.
        assert len(merge(candidates)) < len(candidates)
        assert [entry.representative for entry in merged] == candidates


class TestArgumentHandling:
    def test_unknown_workload_raises(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            main(["explore", "quake3", "--iterations", "10",
                  "--restarts", "1"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_opt_choice_enforced(self):
        with pytest.raises(SystemExit):
            main(["explore", "crc32", "--opt", "O2"])
