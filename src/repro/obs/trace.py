"""Reading trace files back: the ``repro metrics`` subcommand's core.

A trace file is JSON lines written by :class:`~repro.obs.sinks.JsonlSink`
— one record per event, ``seq`` ascending.  :func:`summarize_trace`
folds a record stream into a compact dict and :func:`render_summary`
pretty-prints it.
"""

import json

from ..errors import ReproError


def load_trace(path):
    """Parse one JSON-lines trace file into a list of records."""
    records = []
    try:
        with open(path) as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    raise ReproError(
                        "malformed trace line {} in {}".format(
                            number, path)) from None
    except OSError as error:
        raise ReproError("cannot read trace {}: {}".format(
            path, error)) from None
    return records


def summarize_trace(records):
    """Aggregate a record stream into a summary dict.

    Keys: ``events`` (total), ``engine`` (registry name recorded by the
    flow header events, or ``None`` for pre-engine traces), ``kinds``
    (kind → count), ``blocks``
    (per-block base/final cycles), ``rounds`` / ``iterations`` totals,
    ``p_end`` (first/last convergence floor seen), ``evaluate`` (last flow.evaluate payload),
    ``metrics`` (last registry snapshot, when the trace has one),
    ``pool`` (the ``pool.*`` counters/gauges of that snapshot — worker
    pool dispatches, steals, broadcast bytes, occupancy — or ``None``
    for serial runs) and ``sweep`` (``sweep.*`` counters plus the last ``sweep.done``
    payload, or ``None`` outside sweep runs).
    """
    kinds = {}
    blocks = []
    rounds = 0
    iterations = 0
    first_floor = last_floor = None
    evaluate = None
    metrics = None
    engine = None
    sweep_done = None
    for record in records:
        kind = record.get("kind")
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind in ("flow.profile", "flow.explored") \
                and record.get("engine"):
            engine = record["engine"]
        if kind == "round":
            rounds += 1
        elif kind == "iteration":
            iterations += 1
            floor = record.get("min_sp")
            if floor is not None:
                if first_floor is None:
                    first_floor = floor
                last_floor = floor
        elif kind == "block":
            blocks.append({
                "block": "{}:{}".format(record.get("function"),
                                        record.get("label")),
                "base_cycles": record.get("base_cycles"),
                "final_cycles": record.get("final_cycles"),
                "candidates": record.get("candidates"),
            })
        elif kind == "flow.evaluate":
            evaluate = record
        elif kind == "metrics":
            metrics = record
        elif kind == "sweep.done":
            sweep_done = record
    pool = sweep = None
    if metrics is not None:
        def section(prefix):
            return {name: value
                    for source in ("counters", "gauges")
                    for name, value in metrics.get(source, {}).items()
                    if name.startswith(prefix)} or None

        pool = section("pool.")
        sweep = section("sweep.")
    if sweep_done is not None:
        sweep = dict(sweep or {})
        sweep["done"] = sweep_done
    return {
        "events": len(records),
        "engine": engine,
        "kinds": kinds,
        "blocks": blocks,
        "rounds": rounds,
        "iterations": iterations,
        "p_end": {"first": first_floor, "last": last_floor},
        "evaluate": evaluate,
        "metrics": metrics,
        "pool": pool,
        "sweep": sweep,
    }


def render_summary(summary):
    """Human-readable rendering of :func:`summarize_trace` output."""
    lines = ["trace: {} events".format(summary["events"])]
    if summary.get("engine"):
        lines.append("engine: {}".format(summary["engine"]))
    lines.append("events by kind:")
    for kind in sorted(summary["kinds"]):
        lines.append("  {:24s} {}".format(kind, summary["kinds"][kind]))
    if summary["blocks"]:
        lines.append("explored blocks:")
        for entry in summary["blocks"]:
            lines.append(
                "  {:24s} {} -> {} cycles ({} candidate(s))".format(
                    entry["block"], entry["base_cycles"],
                    entry["final_cycles"], entry["candidates"]))
    lines.append("rounds: {}   iterations: {}".format(
        summary["rounds"], summary["iterations"]))
    p_end = summary["p_end"]
    if p_end["first"] is not None:
        lines.append(
            "P_END trajectory (min selected probability): "
            "{:.4f} first -> {:.4f} last".format(
                p_end["first"], p_end["last"]))
    pool = summary.get("pool")
    if pool:
        lines.append(
            "worker pool: {} dispatch(es), {} task(s), {} steal(s), "
            "{} broadcast byte(s)".format(
                pool.get("pool.dispatches", 0), pool.get("pool.tasks", 0),
                pool.get("pool.steals", 0),
                pool.get("pool.broadcast_bytes", 0)))
    sweep = summary.get("sweep")
    if sweep:
        done = sweep.get("done") or {}
        lines.append("sweep: {} cell(s), {} row(s)".format(
            sweep.get("sweep.cells", 0),
            sweep.get("sweep.rows", done.get("rows", 0))))
    evaluate = summary["evaluate"]
    if evaluate is not None:
        lines.append(
            "final evaluation: {} -> {} cycles ({:.2%} reduction, "
            "{} ISE(s), {:.0f} um2)".format(
                evaluate.get("baseline_cycles"),
                evaluate.get("final_cycles"),
                evaluate.get("reduction", 0.0),
                evaluate.get("num_ises"), evaluate.get("area", 0.0)))
    metrics = summary["metrics"]
    if metrics is not None:
        counters = metrics.get("counters", {})
        if counters:
            lines.append("counters:")
            for name in sorted(counters):
                lines.append("  {:40s} {}".format(name, counters[name]))
        timers = metrics.get("timers", {})
        if timers:
            lines.append("timers:")
            for name in sorted(timers):
                entry = timers[name]
                lines.append("  {:40s} {:6d} calls  {:9.3f}s".format(
                    name, entry["count"], entry["total_s"]))
    return "\n".join(lines)
