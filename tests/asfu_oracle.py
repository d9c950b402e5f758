"""Frozen reference for the ASFU area and delay model.

These are the implementations of :func:`repro.hwlib.asfu.subgraph_area`
and :func:`repro.hwlib.asfu.subgraph_delay_ns` that the merit and
scheduling oracles were written against: the area is the float sum of
the member options' areas, the delay the longest member path walked in
a Kahn order of the induced subgraph.  The oracles import them from
here, so a change to the production model fails their parity tests
instead of moving the oracle with it.  Keep this file frozen; it is an
oracle, not a second implementation to maintain.
"""

from repro.errors import ConfigError


def subgraph_area(nodes, option_of):
    """Total silicon area of a set of nodes."""
    return float(sum(option_of(node).area for node in nodes))


def subgraph_delay_ns(graph, nodes, option_of):
    """Combinational critical-path delay through ``nodes``.

    The delay of a path is the sum of the hardware delays of its
    operations; edges leaving the node set are ignored.  ``graph`` is
    anything with ``predecessors``/``successors`` (a DFG or its
    networkx graph).
    """
    members = set(nodes)
    if not members:
        raise ConfigError("an ASFU needs at least one operation")
    longest = {}
    for node in _topological(graph, members):
        arrival = 0.0
        for pred in graph.predecessors(node):
            if pred in members:
                arrival = max(arrival, longest[pred])
        longest[node] = arrival + option_of(node).delay_ns
    return max(longest.values())


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
