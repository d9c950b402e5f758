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
from .units import topological_order


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
        return max(self.finish(uid) for uid in self.start)

    def at_cycle(self, cycle):
        """Units issued in a given cycle (sorted for stable output)."""
        return sorted((uid for uid, c in self.start.items() if c == cycle),
                      key=str)

    def verify(self, machine):
        """Re-check dependences and resources; raise on violation."""
        for src, dst in self.graph.edges:
            if self.start[dst] < self.finish(src):
                raise SchedulingError(
                    "dependence {} -> {} violated".format(src, dst))
        table = ReservationTable(machine)
        for uid, cycle in self.start.items():
            table.place(cycle, self.units[uid].needs)
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
    if topological_order(graph) is None:
        raise SchedulingError("unit graph contains a cycle")
    if isinstance(priority, str):
        latency_of = lambda uid: units[uid].latency
        priorities = get_priority(priority)(graph, latency_of)
    else:
        priorities = dict(priority)
    # Rank every unit once by its sort key; the pending list holds the
    # ranks of pred-free, unplaced units in ascending (priority) order.
    ranked = sorted(graph.nodes,
                    key=lambda uid: (-priorities.get(uid, 0), str(uid)))
    rank_of = {uid: rank for rank, uid in enumerate(ranked)}
    remaining_preds = {uid: graph.in_degree(uid) for uid in ranked}
    ready_at = dict.fromkeys(ranked, 0)
    pending = [rank for rank, uid in enumerate(ranked)
               if not remaining_preds[uid]]
    start = {}
    table = ReservationTable(machine)
    cycle = 0
    left = len(ranked)
    total_latency = sum(unit.latency for unit in units.values())
    horizon = total_latency + len(units) + 64
    while left:
        if cycle > horizon:
            raise SchedulingError(
                "list scheduler exceeded horizon — a unit's resource "
                "demand cannot ever be satisfied")
        waiting = []
        freed = []
        for rank in pending:
            uid = ranked[rank]
            unit = units[uid]
            if ready_at[uid] > cycle or not table.try_place(cycle, unit.needs):
                waiting.append(rank)
                continue
            start[uid] = cycle
            left -= 1
            finish = cycle + unit.latency
            for succ in graph.successors(uid):
                remaining_preds[succ] -= 1
                if ready_at[succ] < finish:
                    ready_at[succ] = finish
                if not remaining_preds[succ]:
                    freed.append(rank_of[succ])
        if freed:
            waiting.extend(freed)
            waiting.sort()
        pending = waiting
        cycle += 1
    return Schedule(graph, units, start).verify(machine)
