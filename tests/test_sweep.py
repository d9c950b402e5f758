"""The design-space sweep: grid order, bit-parity, payload round-trip.

The headline contract: a sweep's rows (and digest) are bit-identical
whether each cell explores serially or on the warm worker pool, and
its JSON payload round-trips exactly with the digest checked on load.
Everything here runs a tiny effort grid so the whole module stays in
CI-smoke territory.
"""

import json

import pytest

from repro.api import sweep as api_sweep
from repro.dist.sweep import (
    PAYLOAD_SCHEMA,
    SweepResult,
    SweepRow,
    cell_grid,
    render_sweep,
    run_sweep,
)
from repro.errors import ReproError

MACHINES = (("4/2", 2), ("6/3", 3))
BUDGETS = (20_000.0, 320_000.0)
TINY = dict(workloads=("crc32",), machines=MACHINES, budgets=BUDGETS,
            iterations=6, restarts=1)


# -- grid -------------------------------------------------------------------

def test_cell_grid_order_is_machines_outer():
    cells = cell_grid(("a", "b"), MACHINES)
    assert cells == (("a", "4/2", 2), ("b", "4/2", 2),
                     ("a", "6/3", 3), ("b", "6/3", 3))


def test_run_sweep_validates_inputs():
    with pytest.raises(ReproError):
        run_sweep(workloads=(), machines=MACHINES, budgets=BUDGETS)
    with pytest.raises(ReproError):
        run_sweep(workloads=("crc32",), machines=(), budgets=BUDGETS)
    with pytest.raises(ReproError):
        run_sweep(workloads=("crc32",), machines=MACHINES, budgets=())


@pytest.mark.parametrize("issue", [True, 0, 2.0])
def test_run_sweep_refuses_a_non_integer_issue(issue, monkeypatch):
    """The serve schema's rule: an int, not a bool, at least 1."""
    from repro import api

    cells = []
    monkeypatch.setattr(api, "explore",
                        lambda *a, **k: cells.append(a) or 1 / 0)
    with pytest.raises(ReproError, match="issue must be a positive"):
        api_sweep(["crc32"], machines=[("6/3", 3), ("4/2", issue)],
                  budgets=BUDGETS, iterations=6, restarts=1)
    assert cells == []                         # refused before any cell


def test_run_sweep_runs_an_integer_issue():
    result = api_sweep(["crc32"], machines=[("4/2", 2)], budgets=BUDGETS,
                       iterations=6, restarts=1)
    assert result.machines == (("4/2", 2),)
    assert {row.issue for row in result.rows} == {2}


# -- the bit-parity contract ------------------------------------------------

def test_pooled_sweep_equals_serial(monkeypatch, tmp_path):
    """Every cell explored on a two-worker pool gives the serial rows."""
    from repro.core import parallel
    from repro.core.pool import add_dispatch_hook, remove_dispatch_hook

    # Widen the CPU clamp so jobs=2 fans out even on a one-CPU host.
    monkeypatch.setattr(parallel, "_available_cpus", lambda: 4)
    serial = api_sweep(**TINY, jobs=1)
    assert len(serial.rows) == len(MACHINES) * len(BUDGETS)
    assert [(row.ports, row.budget) for row in serial.rows] == [
        (ports, budget) for ports, __ in MACHINES for budget in BUDGETS]
    dispatches = []
    hook = lambda phase, info: dispatches.append(info["jobs"])  # noqa: E731
    add_dispatch_hook(hook)
    try:
        pooled = api_sweep(**TINY, jobs=2)
    finally:
        remove_dispatch_hook(hook)
    assert 2 in dispatches                            # really pooled
    assert pooled.rows == serial.rows                 # bit-identical
    assert pooled.digest == serial.digest


def test_sweep_payload_roundtrip():
    result = api_sweep(**TINY)
    payload = json.loads(json.dumps(result.to_payload()))
    assert payload["_schema"] == PAYLOAD_SCHEMA == 2
    assert "shard_index" not in payload
    assert SweepResult.from_payload(payload) == result
    # Tampering with a row breaks the digest check on load.
    payload["rows"][0]["final_cycles"] += 1
    with pytest.raises(ReproError):
        SweepResult.from_payload(payload)
    payload["_schema"] = 999
    with pytest.raises(ReproError):
        SweepResult.from_payload(payload)


def test_schema_1_payload_is_refused():
    """A payload written before the shard fields were dropped."""
    row = _row()
    legacy = {
        "_schema": 1, "workloads": ["w"], "machines": [["4/2", 2]],
        "budgets": [1.0], "opt": "O3", "profile": "quick", "seed": 0,
        "engine": "aco", "shard_index": None, "shard_count": None,
        "rows": [row.to_payload()]}
    with pytest.raises(ReproError,
                       match="unsupported sweep payload schema 1"):
        SweepResult.from_payload(legacy)


def test_truncated_payload_names_the_missing_key():
    with pytest.raises(ReproError, match="no 'workloads'"):
        SweepResult.from_payload({"_schema": 2})
    payload = _result([_row()]).to_payload()
    del payload["rows"][0]["area"]
    with pytest.raises(ReproError, match="sweep row has no 'area'"):
        SweepResult.from_payload(payload)


@pytest.mark.parametrize("edit", ["delete", "null"])
def test_payload_without_a_digest_is_refused(edit):
    result = _result([_row()])
    payload = json.loads(json.dumps(result.to_payload()))
    assert SweepResult.from_payload(payload) == result
    if edit == "delete":
        del payload["digest"]
    else:
        payload["digest"] = None
    with pytest.raises(ReproError, match="'digest'"):
        SweepResult.from_payload(payload)


def _row(workload="w", ports="4/2", issue=2, budget=1.0):
    return SweepRow(workload=workload, ports=ports, issue=issue,
                    budget=budget, baseline_cycles=100, final_cycles=80,
                    reduction=0.2, num_ises=1, area=50.0)


def _result(rows, workloads=("w",), machines=(("4/2", 2),),
            budgets=(1.0,), seed=0):
    return SweepResult(workloads=workloads, machines=machines,
                       budgets=budgets, opt="O3", profile="quick",
                       seed=seed, engine="aco", rows=tuple(rows))


# -- rendering and observability --------------------------------------------

def test_render_sweep_matrix():
    part = _result([_row(budget=1.0), _row(budget=2.0)],
                   budgets=(1.0, 2.0))
    text = render_sweep(part)
    assert "(4/2, 2IS)" in text and "20.00%" in text
    assert "Best cell" in text


def test_sweep_trace_summary(tmp_path):
    from repro.obs import load_trace, render_summary, summarize_trace

    trace = str(tmp_path / "sweep.jsonl")
    api_sweep(**TINY, trace=trace)
    summary = summarize_trace(load_trace(trace))
    assert summary["sweep"] is not None
    assert summary["sweep"]["sweep.cells"] == len(MACHINES)
    assert summary["sweep"]["done"]["rows"] == len(MACHINES) * len(BUDGETS)
    rendered = render_summary(summary)
    assert "sweep: {} cell(s), {} row(s)".format(
        len(MACHINES), len(MACHINES) * len(BUDGETS)) in rendered


def test_cli_sweep_out_roundtrip(tmp_path, capsys):
    from repro.cli import main
    from repro.eval.persistence import load_json

    out = str(tmp_path / "sweep.json")
    code = main(["sweep", "--workloads", "crc32",
                 "--machines", "2:4/2,3:6/3",
                 "--budgets", "20000,320000",
                 "--iterations", "6", "--restarts", "1", "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "Execution-time" in printed
    result = SweepResult.from_payload(load_json(out))
    assert "digest   : {}".format(result.digest) in printed
    assert result.digest == api_sweep(**TINY).digest
