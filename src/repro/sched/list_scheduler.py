"""Multi-issue list scheduler.

The final stage of the ISE design flow ("ISE replacement and
instruction scheduling", Fig. 3.1.1) statically schedules each basic
block — with its selected ISEs contracted to supernodes — onto the
multi-issue machine.  This is classic cycle-driven list scheduling:
at every cycle the highest-priority data-ready units are placed while
issue slots, register ports and function units remain.

Units whose predecessors are all placed wait in a *pending* list kept in
priority order; a cycle walks that list once instead of rescanning and
re-sorting every unscheduled unit, and units freed by the cycle's
placements join it after the cycle, exactly when the classic scan would
first see them.
"""

from ..errors import SchedulingError
from .priorities import get_priority
from .resources import ReservationTable
from .units import UnitGraph, topological_order


class Schedule:
    """Result of list scheduling: start cycles and derived metrics."""

    def __init__(self, graph, units, start):
        self.graph = graph
        self.units = units
        self.start = dict(start)

    def finish(self, uid):
        """First cycle after unit ``uid`` completes."""
        return self.start[uid] + self.units[uid].latency

    @property
    def makespan(self):
        """Total execution cycles of the block body."""
        if not self.start:
            return 0
        units = self.units
        return max(cycle + units[uid].latency
                   for uid, cycle in self.start.items())

    def at_cycle(self, cycle):
        """Units issued in a given cycle (sorted for stable output)."""
        return sorted((uid for uid, c in self.start.items() if c == cycle),
                      key=str)

    def verify(self, machine):
        """Re-check dependences and resources; raise on violation."""
        start = self.start
        units = self.units
        finish = {uid: cycle + units[uid].latency
                  for uid, cycle in start.items()}
        for src, dst in self.graph.edges:
            if start[dst] < finish[src]:
                raise SchedulingError(
                    "dependence {} -> {} violated".format(src, dst))
        if not _fits_machine(start, units, machine):
            # Replay into a reservation table for the precise error.
            table = ReservationTable(machine)
            for uid, cycle in start.items():
                table.place(cycle, units[uid].needs)
        return self

    def pretty(self):
        """Cycle-by-cycle text dump of the schedule."""
        lines = []
        for cycle in range(self.makespan):
            issued = self.at_cycle(cycle)
            if issued:
                lines.append("C{:<3} {}".format(cycle + 1, issued))
        return "\n".join(lines)

    def __repr__(self):
        return "Schedule({} units, {} cycles)".format(
            len(self.start), self.makespan)


def _fits_machine(start, units, machine):
    """True when every cycle's summed demand is within the budgets.

    Demands are non-negative, so this equals placing the units one by
    one into a :class:`ReservationTable` without any refusal.
    """
    if not start:
        return True
    if min(start.values()) < 0:
        return False
    span = max(start.values()) + 1
    issue = [0] * span
    reads = [0] * span
    writes = [0] * span
    fus = {}
    for uid, cycle in start.items():
        needs = units[uid].needs
        issue[cycle] += needs.issue
        reads[cycle] += needs.reads
        writes[cycle] += needs.writes
        row = fus.get(needs.fu_kind)
        if row is None:
            row = fus[needs.fu_kind] = [0] * span
        row[cycle] += needs.fu_count
    rf = machine.register_file
    if (max(issue) > machine.issue_width or max(reads) > rf.read_ports
            or max(writes) > rf.write_ports):
        return False
    fu_avail = machine.fu_counts
    return all(max(row) <= fu_avail.get(kind, 0)
               for kind, row in fus.items())


def list_schedule(graph, units, machine, priority="children"):
    """Schedule a unit graph onto ``machine``.

    Parameters
    ----------
    graph:
        :class:`~repro.sched.units.UnitGraph` (from
        :func:`~repro.sched.units.contract_dfg`) or a
        :class:`networkx.DiGraph` over unit uids.
    units:
        dict uid → :class:`~repro.sched.units.SchedUnit`.
    machine:
        The :class:`~repro.sched.machine.MachineConfig`.
    priority:
        Name of the SP function (``"children"`` is the paper default)
        or a precomputed dict uid → priority.

    Returns a verified :class:`Schedule`.  Ties between equal priorities
    break on ``str(uid)``.
    """
    if isinstance(graph, UnitGraph):
        acyclic = graph.is_acyclic()
    else:
        acyclic = topological_order(graph) is not None
    if not acyclic:
        raise SchedulingError("unit graph contains a cycle")
    if priority == "children" and isinstance(graph, UnitGraph):
        ranked = graph.children_ranked()
    else:
        if isinstance(priority, str):
            latency_of = lambda uid: units[uid].latency
            priorities = get_priority(priority)(graph, latency_of)
        else:
            priorities = dict(priority)
        ranked = sorted(graph.nodes,
                        key=lambda uid: (-priorities.get(uid, 0), str(uid)))
    # Rank every unit once by its sort key; the pending list holds the
    # ranks of pred-free, unplaced units in ascending (priority) order.
    rank_of = {uid: rank for rank, uid in enumerate(ranked)}
    successors = graph.successors
    remaining_preds = {uid: graph.in_degree(uid) for uid in ranked}
    ready_at = dict.fromkeys(ranked, 0)
    pending = [rank for rank, uid in enumerate(ranked)
               if not remaining_preds[uid]]
    start = {}
    # Units only ever issue in the current cycle, so its usage is four
    # plain counters; the full reservation table re-checks it in verify.
    width = machine.issue_width
    read_ports = machine.register_file.read_ports
    write_ports = machine.register_file.write_ports
    fu_avail = machine.fu_counts
    cycle = 0
    left = len(ranked)
    total_latency = 0
    all_issue = True
    for unit in units.values():
        total_latency += unit.latency
        if unit.needs.issue <= 0:
            all_issue = False
    horizon = total_latency + len(units) + 64
    while left:
        if cycle > horizon:
            raise SchedulingError(
                "list scheduler exceeded horizon — a unit's resource "
                "demand cannot ever be satisfied")
        waiting = []
        freed = []
        issue = reads = writes = 0
        fu_used = {}
        for position, rank in enumerate(pending):
            uid = ranked[rank]
            if ready_at[uid] > cycle:
                waiting.append(rank)
                continue
            unit = units[uid]
            needs = unit.needs
            kind = needs.fu_kind
            used = fu_used.get(kind, 0) + needs.fu_count
            if (issue + needs.issue > width
                    or reads + needs.reads > read_ports
                    or writes + needs.writes > write_ports
                    or used > fu_avail.get(kind, 0)):
                waiting.append(rank)
                continue
            issue += needs.issue
            reads += needs.reads
            writes += needs.writes
            fu_used[kind] = used
            start[uid] = cycle
            left -= 1
            finish = cycle + unit.latency
            for succ in successors(uid):
                remaining_preds[succ] -= 1
                if ready_at[succ] < finish:
                    ready_at[succ] = finish
                if not remaining_preds[succ]:
                    freed.append(rank_of[succ])
            if all_issue and issue >= width:
                # Every slot of the cycle is taken: nothing else issues.
                waiting.extend(pending[position + 1:])
                break
        if freed:
            waiting.extend(freed)
            waiting.sort()
        pending = waiting
        cycle += 1
    return Schedule(graph, units, start).verify(machine)
