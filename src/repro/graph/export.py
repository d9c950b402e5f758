"""Export helpers: Graphviz DOT for DFGs/candidates, ASCII Gantt for
schedules.

These make exploration results inspectable without any plotting
dependency: ``dfg_to_dot`` renders a basic block's data-flow graph with
ISE members highlighted, and ``schedule_to_gantt`` prints the issue
slots of a list schedule cycle by cycle.
"""


def _quote(text):
    return '"{}"'.format(str(text).replace('"', r'\"'))


def dfg_to_dot(dfg, highlight=(), title=None):
    """Render a DFG as Graphviz DOT.

    ``highlight`` is an iterable of node-uid sets; each set is drawn as
    a filled cluster colour (ISE candidates, typically).
    """
    colours = ("lightblue", "palegreen", "lightsalmon", "plum",
               "khaki", "lightcyan")
    colour_of = {}
    for index, members in enumerate(highlight):
        for uid in members:
            colour_of[uid] = colours[index % len(colours)]
    lines = ["digraph dfg {"]
    if title is None:
        title = "{}:{}".format(dfg.function, dfg.label)
    lines.append("  label={};".format(_quote(title)))
    lines.append("  node [shape=box, fontname=monospace];")
    for uid in dfg.nodes:
        operation = dfg.op(uid)
        label = "#{} {}".format(uid, operation.name)
        attrs = ["label={}".format(_quote(label))]
        if uid in colour_of:
            attrs.append('style=filled, fillcolor="{}"'.format(
                colour_of[uid]))
        elif dfg.is_output(uid):
            attrs.append("peripheries=2")
        lines.append("  n{} [{}];".format(uid, ", ".join(attrs)))
    for src, out in dfg.graph.succ.items():
        for dst, data in out.items():
            style = "" if data["kind"] == "data" else " [style=dashed]"
            lines.append("  n{} -> n{}{};".format(src, dst, style))
    lines.append("}")
    return "\n".join(lines)


def schedule_to_gantt(schedule, width=72):
    """ASCII issue table of a :class:`~repro.sched.list_scheduler.Schedule`.

    One row per cycle; each cell names the unit issued (ISE supernodes
    keep their ``iseN`` ids) followed by ``*`` for every extra cycle a
    multi-cycle unit occupies.
    """
    if not schedule.start:
        return "(empty schedule)"
    rows = []
    occupancy = {}
    for uid, start in schedule.start.items():
        unit = schedule.units[uid]
        for offset in range(unit.latency):
            occupancy.setdefault(start + offset, []).append(
                (str(uid) if offset == 0 else "{}*".format(uid), offset))
    for cycle in range(schedule.makespan):
        cells = [name for name, __ in
                 sorted(occupancy.get(cycle, []), key=lambda t: t[0])]
        row = "C{:<4}| {}".format(cycle + 1, "  ".join(cells))
        rows.append(row[:width])
    return "\n".join(rows)


def candidate_to_dot(candidate):
    """DOT of a candidate's host DFG with the candidate highlighted."""
    return dfg_to_dot(candidate.dfg, highlight=[candidate.members],
                      title=candidate.describe())
