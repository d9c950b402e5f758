"""ASFU (application-specific function unit) timing and area model.

An ISE executes on an ASFU sitting beside the core function units
(Fig. 1.1.1).  Its silicon cost is the sum of the areas of the chosen
hardware options of its member operations; its execution time is the
combinational critical path through the member operations, rounded up
to whole cycles (Hardware-Grouping, Fig. 4.3.6, measures virtual ISE
candidates with exactly this model).
"""

from ..errors import ConfigError
from ..graph.dfg import DFG
from .technology import DEFAULT_TECHNOLOGY


def subgraph_area(nodes, option_of):
    """Total silicon area of a set of nodes.

    ``option_of`` maps a node to its chosen
    :class:`~repro.hwlib.options.HardwareOption`.
    """
    return float(sum(option_of(node).area for node in nodes))


def subgraph_delay_ns(graph, nodes, option_of):
    """Combinational critical-path delay through ``nodes``.

    The delay of a path is the sum of the hardware delays of its
    operations; edges leaving the node set are ignored.  ``nodes`` must
    be non-empty and induce an acyclic subgraph of ``graph``.  Pass the
    :class:`~repro.graph.dfg.DFG` itself, not ``dfg.graph``: its cached
    adjacency tuples list neighbours in the same order as the networkx
    views and are much cheaper to walk.  Any object exposing
    ``predecessors``/``successors`` works.
    """
    members = set(nodes)
    if not members:
        raise ConfigError("an ASFU needs at least one operation")
    # Longest path via one DFS-free topological sweep.  The node set is
    # a subset of a DAG, so iterating nodes in any topological order of
    # the full graph is valid for the induced subgraph too, and every
    # such order yields the same arrival floats.
    longest = {}
    for node in _member_order(graph, members):
        arrival = 0.0
        for pred in graph.predecessors(node):
            if pred in members:
                arrival = max(arrival, longest[pred])
        longest[node] = arrival + option_of(node).delay_ns
    return max(longest.values())


def subgraph_cycles(graph, nodes, option_of, technology=None):
    """Whole-cycle latency of the ASFU for the given node set."""
    tech = technology or DEFAULT_TECHNOLOGY
    return tech.cycles_for_delay(subgraph_delay_ns(graph, nodes, option_of))


class IncrementalDelay:
    """Incrementally maintained :func:`subgraph_delay_ns` of a growing set.

    The ACO iteration scheduler only ever grows a cluster by a node
    whose successors are not yet members (the ant draws operations in a
    topological order), so each addition is a *sink* of the induced
    subgraph: existing arrival times never change and the new node's
    arrival is ``max(arrival of member predecessors) + its delay`` —
    exactly the recurrence of the batch computation, hence bit-identical
    results.  :meth:`preview_add` returns the would-be critical path
    without mutating; :meth:`commit` applies it.  For the (unexpected)
    non-sink case :meth:`rebuild` recomputes from scratch.
    """

    __slots__ = ("graph", "longest", "delay_ns")

    def __init__(self, graph):
        self.graph = graph
        self.longest = {}        # member -> arrival incl. own delay
        self.delay_ns = 0.0

    def preview_add(self, uid, delay_ns):
        """``(arrival, critical path)`` after adding ``uid``; no mutation.

        Only valid while no successor of ``uid`` is a member (the
        caller checks; otherwise use :meth:`rebuild` after growing).
        """
        arrival = 0.0
        longest = self.longest
        for pred in self.graph.predecessors(uid):
            value = longest.get(pred)
            if value is not None and value > arrival:
                arrival = value
        total = arrival + delay_ns
        return total, total if total > self.delay_ns else self.delay_ns

    def commit(self, uid, arrival, delay_ns):
        """Apply a previously previewed addition."""
        self.longest[uid] = arrival
        self.delay_ns = delay_ns

    def rebuild(self, members, option_of):
        """Recompute all arrivals from scratch (non-sink growth)."""
        self.longest = {}
        for node in _member_order(self.graph, set(members)):
            arrival = 0.0
            for pred in self.graph.predecessors(node):
                value = self.longest.get(pred)
                if value is not None and value > arrival:
                    arrival = value
            self.longest[node] = arrival + option_of(node).delay_ns
        self.delay_ns = max(self.longest.values())


def _member_order(graph, members):
    """``members`` in a topological order of ``graph``.

    A :class:`~repro.graph.dfg.DFG` sorts them by its cached DFG-wide
    topological rank.  Uid order would not do: contraction gives an ISE
    supernode a uid above its successors.  Cyclic DFGs and other graph
    types fall back to a Kahn sort over the members.
    """
    if isinstance(graph, DFG):
        rank = graph.tables().rank
        if rank is not None:
            return sorted(members, key=rank.__getitem__)
    return _topological(graph, members)


def _topological(graph, members):
    """Topological order of ``members`` within the DAG ``graph``."""
    indegree = {}
    for node in members:
        degree = 0
        for p in graph.predecessors(node):
            if p in members:
                degree += 1
        indegree[node] = degree
    ready = sorted(node for node, deg in indegree.items() if deg == 0)
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        for succ in graph.successors(node):
            if succ in members:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
    if len(order) != len(members):
        raise ConfigError("ASFU node set contains a cycle")
    return order


class ASFU:
    """A realised ASFU: node set + chosen hardware options.

    Mostly a reporting convenience wrapping the free functions above.
    """

    __slots__ = ("nodes", "options", "delay_ns", "area", "cycles")

    def __init__(self, graph, nodes, options, technology=None):
        self.nodes = frozenset(nodes)
        self.options = dict(options)
        missing = [n for n in self.nodes if n not in self.options]
        if missing:
            raise ConfigError("nodes without hardware option: {}".format(missing))
        option_of = self.options.__getitem__
        self.delay_ns = subgraph_delay_ns(graph, self.nodes, option_of)
        self.area = subgraph_area(self.nodes, option_of)
        self.cycles = (technology or DEFAULT_TECHNOLOGY).cycles_for_delay(self.delay_ns)

    def __repr__(self):
        return "ASFU({} ops, {:.2f} ns, {:.0f} um2, {} cyc)".format(
            len(self.nodes), self.delay_ns, self.area, self.cycles)
