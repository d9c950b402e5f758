"""Saving and loading experiment results as JSON.

The chapter-5 grid takes minutes to explore; these helpers serialise
the *outcomes* — figure rows, headline summaries, per-candidate
metadata — so notebooks and CI can diff runs without recomputing.
Candidates serialise by structure (members, opcodes, option labels,
timing/area), which is enough to reconstruct reports and to compare
exploration runs; the DFG itself is reproducible from the workload
name.
"""

import json

from ..errors import ReproError


def candidate_record(candidate):
    """JSON-able description of one ISE candidate."""
    return {
        "source": candidate.source,
        "members": sorted(candidate.members),
        "opcodes": {str(uid): candidate.dfg.op(uid).name
                    for uid in sorted(candidate.members)},
        "options": {str(uid): candidate.option_of[uid].label
                    for uid in sorted(candidate.members)},
        "delay_ns": candidate.delay_ns,
        "cycles": candidate.cycles,
        "area": candidate.area,
        "cycle_saving": candidate.cycle_saving,
        "weighted_saving": candidate.weighted_saving,
        "num_inputs": candidate.num_inputs(),
        "num_outputs": candidate.num_outputs(),
    }


def report_record(report):
    """JSON-able description of one :class:`FlowReport`."""
    return {
        "baseline_cycles": report.baseline_cycles,
        "final_cycles": report.final_cycles,
        "reduction": report.reduction,
        "num_ises": report.num_ises,
        "area": report.area,
        "selected": [candidate_record(entry.representative)
                     for entry in report.selection.selected],
    }


def figure_record(rows):
    """JSON-able form of a Fig 5.2.1/5.2.2-style row mapping."""
    return [
        {
            "algorithm": algo,
            "ports": ports,
            "issue": issue,
            "opt": opt,
            "cells": {str(level): value for level, value in cells.items()},
        }
        for (algo, ports, issue, opt), cells in rows.items()
    ]


def load_figure(records):
    """Inverse of :func:`figure_record`."""
    rows = {}
    for record in records:
        key = (record["algorithm"], record["ports"], record["issue"],
               record["opt"])
        rows[key] = {_level(level): value
                     for level, value in record["cells"].items()}
    return rows


def _level(text):
    try:
        return int(text)
    except ValueError:
        raise ReproError("malformed figure level {!r}".format(text)) from None


def save_json(path, payload):
    """Write any JSON-able payload with stable formatting."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path):
    """Read a JSON payload written by :func:`save_json`."""
    with open(path) as handle:
        return json.load(handle)
