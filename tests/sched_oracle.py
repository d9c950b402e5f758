"""Frozen networkx reference for contraction, list scheduling and
Make-Convex.

These are the implementations the scheduling core used before it moved
onto the per-DFG skeleton and :class:`~repro.sched.units.UnitGraph`:
contraction builds a fresh :class:`networkx.DiGraph`, the scheduler
rescans and re-sorts every unscheduled unit each cycle, and Make-Convex
splits pieces with ``weakly_connected_components``/``ancestors``.  The
parity tests hold the production code to them.  Keep this file frozen;
it is an oracle, not a second implementation to maintain.
"""

import networkx as nx

from asfu_oracle import subgraph_area, subgraph_delay_ns
from legality_oracle import input_values, output_values
from legality_oracle import is_convex_reference as is_convex
from repro.errors import SchedulingError
from repro.sched.resources import Needs, ReservationTable
from repro.sched.units import SchedUnit, software_needs


def contract_dfg(dfg, ise_groups, technology, software_cycles=None):
    unit_of = {}
    units = {}
    for index, (members, option_of) in enumerate(ise_groups):
        members = frozenset(members)
        uid = "ise{}".format(index)
        taken = members.intersection(unit_of)
        if taken:
            raise SchedulingError(
                "ISE groups overlap on nodes {}".format(sorted(taken)))
        delay = subgraph_delay_ns(dfg.graph, members,
                                  lambda n: option_of[n])
        area = subgraph_area(members, lambda n: option_of[n])
        needs = Needs(reads=len(input_values(dfg, members)),
                      writes=len(output_values(dfg, members)),
                      fu_kind="asfu")
        units[uid] = SchedUnit(uid, technology.cycles_for_delay(delay),
                               needs, members, is_ise=True, area=area)
        for member in members:
            unit_of[member] = uid
    for node in dfg.nodes:
        if node in unit_of:
            continue
        latency = 1
        if software_cycles is not None:
            latency = software_cycles.get(node, 1)
        units[node] = SchedUnit(node, latency, software_needs(dfg.op(node)),
                                (node,))
        unit_of[node] = node
    graph = nx.DiGraph()
    graph.add_nodes_from(units)
    for src, dst in dfg.graph.edges:
        u, v = unit_of[src], unit_of[dst]
        if u != v:
            graph.add_edge(u, v)
    if not nx.is_directed_acyclic_graph(graph):
        raise SchedulingError("contraction produced a cycle "
                              "(non-convex ISE group)")
    return graph, units


def _children(graph, latency_of):
    return {node: graph.out_degree(node) for node in graph.nodes}


def _depth(graph, latency_of):
    tail = {}
    for node in reversed(list(nx.topological_sort(graph))):
        best = 0
        for succ in graph.successors(node):
            best = max(best, tail[succ])
        tail[node] = best + latency_of(node)
    return tail


def _mobility(graph, latency_of):
    asap = {}
    for node in nx.topological_sort(graph):
        earliest = 0
        for pred in graph.predecessors(node):
            earliest = max(earliest, asap[pred] + latency_of(pred))
        asap[node] = earliest
    horizon = max((asap[n] + latency_of(n) for n in graph.nodes), default=0)
    alap = {}
    for node in reversed(list(nx.topological_sort(graph))):
        latest = horizon - latency_of(node)
        for succ in graph.successors(node):
            latest = min(latest, alap[succ] - latency_of(node))
        alap[node] = latest
    return {node: -(alap[node] - asap[node]) for node in graph.nodes}


PRIORITIES = {"children": _children, "depth": _depth,
              "mobility": _mobility}


def list_schedule(graph, units, machine, priority="children"):
    """Start cycles of the classic rescan-and-sort list scheduler."""
    if not nx.is_directed_acyclic_graph(graph):
        raise SchedulingError("unit graph contains a cycle")
    priorities = PRIORITIES[priority](graph, lambda uid: units[uid].latency)
    remaining_preds = {uid: graph.in_degree(uid) for uid in graph.nodes}
    ready_at = {uid: 0 for uid in graph.nodes}
    start = {}
    table = ReservationTable(machine)
    cycle = 0
    unscheduled = set(graph.nodes)
    horizon = sum(u.latency for u in units.values()) + len(units) + 64
    while unscheduled:
        if cycle > horizon:
            raise SchedulingError("list scheduler exceeded horizon")
        candidates = sorted(
            (uid for uid in unscheduled
             if remaining_preds[uid] == 0 and ready_at[uid] <= cycle),
            key=lambda uid: (-priorities.get(uid, 0), str(uid)))
        for uid in candidates:
            if table.fits(cycle, units[uid].needs):
                table.place(cycle, units[uid].needs)
                start[uid] = cycle
                unscheduled.discard(uid)
                finish = cycle + units[uid].latency
                for succ in graph.successors(uid):
                    remaining_preds[succ] -= 1
                    ready_at[succ] = max(ready_at[succ], finish)
        cycle += 1
    return start


def make_convex(dfg, members):
    pieces = [set(members)]
    result = []
    while pieces:
        piece = pieces.pop()
        if not piece:
            continue
        sub = dfg.graph.subgraph(piece)
        components = [set(c) for c in nx.weakly_connected_components(sub)]
        if len(components) > 1:
            pieces.extend(components)
            continue
        if is_convex(dfg, piece):
            result.append(frozenset(piece))
            continue
        witness = _find_witness(dfg, piece)
        upstream = piece & nx.ancestors(dfg.graph, witness)
        downstream = piece - upstream
        if not upstream or not downstream:
            piece.discard(max(piece))
            pieces.append(piece)
            continue
        pieces.append(upstream)
        pieces.append(downstream)
    return result


def _find_witness(dfg, piece):
    descendants = set()
    for uid in piece:
        for succ in dfg.successors(uid):
            if succ not in piece:
                descendants.add(succ)
    frontier = list(descendants)
    while frontier:
        node = frontier.pop()
        for succ in dfg.successors(node):
            if succ not in descendants and succ not in piece:
                descendants.add(succ)
                frontier.append(succ)
    for node in sorted(descendants):
        if any(succ in piece for succ in dfg.successors(node)):
            return node
    raise AssertionError("non-convex set without witness")
