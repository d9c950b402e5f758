"""Scheduling-priority (SP) functions.

The thesis computes SP as "the number of child operations", and notes
in its future-work section that other priority functions (mobility,
depth) change which path is identified as critical.  All three are
provided; :func:`get_priority` resolves a name to a callable with
signature ``fn(graph, latency_of) -> {node: priority}`` where larger
values mean *schedule earlier*.  ``graph`` is a
:class:`~repro.sched.units.UnitGraph` or a :class:`networkx.DiGraph`;
both walk one Kahn order (:func:`~repro.sched.units.topological_order`).
"""

from ..errors import ConfigError, SchedulingError
from .units import topological_order


def children_count(graph, latency_of=None):
    """Paper default: SP = number of immediate successors."""
    del latency_of
    # Counted off successors(): a DiGraph's degree views hold the graph
    # and would put it in a reference cycle.
    return {node: len(tuple(graph.successors(node))) for node in graph.nodes}


def depth(graph, latency_of=None):
    """SP = longest latency-weighted path from the node to any sink."""
    if latency_of is None:
        latency_of = lambda node: 1
    tail = {}
    for node in reversed(_order(graph)):
        best = 0
        for succ in graph.successors(node):
            best = max(best, tail[succ])
        tail[node] = best + latency_of(node)
    return tail


def mobility(graph, latency_of=None):
    """SP = −slack: zero-slack (critical) operations come first."""
    if latency_of is None:
        latency_of = lambda node: 1
    order = _order(graph)
    asap = {}
    for node in order:
        earliest = 0
        for pred in graph.predecessors(node):
            earliest = max(earliest, asap[pred] + latency_of(pred))
        asap[node] = earliest
    horizon = max((asap[n] + latency_of(n) for n in graph.nodes), default=0)
    alap = {}
    for node in reversed(order):
        latest = horizon - latency_of(node)
        for succ in graph.successors(node):
            latest = min(latest, alap[succ] - latency_of(node))
        alap[node] = latest
    return {node: -(alap[node] - asap[node]) for node in graph.nodes}


def _order(graph):
    order = topological_order(graph)
    if order is None:
        raise SchedulingError("unit graph contains a cycle")
    return order


_PRIORITIES = {
    "children": children_count,
    "depth": depth,
    "mobility": mobility,
}


def get_priority(name):
    """Resolve a priority function by name."""
    try:
        return _PRIORITIES[name]
    except KeyError:
        raise ConfigError(
            "unknown priority {!r}; choose from {}".format(
                name, sorted(_PRIORITIES))) from None


def priority_names():
    """Names of the registered SP functions."""
    return sorted(_PRIORITIES)
