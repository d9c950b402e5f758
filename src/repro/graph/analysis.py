"""Analyses over DFGs: I/O counting, convexity, ASAP/ALAP, critical path.

These implement the formal side of §4.2 (the constraints every ISE must
observe) and the timing quantities the merit function consumes
(critical-path membership, slack windows).
"""

import networkx as nx

from .bitset import bitset_view


# -- §4.2: IN(S) / OUT(S) ----------------------------------------------------

def input_values(dfg, members):
    """The set of distinct values subgraph ``members`` reads from outside.

    Counts external block inputs of member nodes plus values flowing in
    over data edges from non-member producers.  ``IN(S)`` of §4.2 is the
    size of this set.
    """
    members = set(members)
    values = set()
    for uid in members:
        values.update(dfg.external_inputs(uid))
        for pred in dfg.data_predecessors(uid):
            if pred not in members:
                values.update(dfg.graph.succ[pred][uid]["values"])
    return values


def output_values(dfg, members):
    """The set of distinct values ``members`` produces for the outside.

    A member's value escapes when a non-member consumes it over a data
    edge or when the member is an output node of the block.  ``OUT(S)``
    of §4.2 is the size of this set.
    """
    members = set(members)
    values = set()
    for uid in members:
        operation = dfg.op(uid)
        escapes = dfg.is_output(uid)
        if not escapes:
            for succ in dfg.data_successors(uid):
                if succ not in members:
                    escapes = True
                    break
        if escapes and operation.dests:
            values.update(operation.dests)
    return values


def io_counts(dfg, members):
    """``(|IN(S)|, |OUT(S)|)`` port counts of a membership set.

    The size-only form of :func:`input_values`/:func:`output_values`
    for callers that never look at the value *names* (constraint
    checks, merit shaping, legalisation), answered by the packed
    bitset kernel (:mod:`repro.graph.bitset`).
    """
    return bitset_view(dfg).io_counts(members)


def is_convex(dfg, members):
    """§4.2 convexity: no path between two members leaves the subgraph.

    Equivalent check: no non-member node is simultaneously reachable
    *from* a member and an ancestor *of* a member — one AND of the
    packed closure rows (:mod:`repro.graph.bitset`).
    """
    return bitset_view(dfg).is_convex(members)


def violates_memory_rule(dfg, members):
    """True when the subgraph contains a load/store (§4.2 rule 4)."""
    return any(dfg.op(uid).is_memory for uid in members)


def check_candidate(dfg, members, constraints):
    """Raise :class:`~repro.errors.ConstraintError` when S is illegal.

    Checks run in a fixed order — empty, memory operations, ungroupable
    operations, ``IN``, ``OUT``, convexity — and the first failure
    names the rule.
    """
    bitset_view(dfg).check_candidate(members, constraints)


def is_legal(dfg, members, constraints):
    """Boolean form of :func:`check_candidate`."""
    return bitset_view(dfg).is_legal(members, constraints)


# -- timing: ASAP / ALAP / critical path ------------------------------------

def asap_schedule(dfg, latency_of):
    """Unconstrained as-soon-as-possible start cycles.

    ``latency_of(uid)`` gives whole-cycle latencies.  Returns a dict
    uid → start cycle (0-based).
    """
    start = {}
    for uid in nx.topological_sort(dfg.graph):
        earliest = 0
        for pred in dfg.predecessors(uid):
            earliest = max(earliest, start[pred] + latency_of(pred))
        start[uid] = earliest
    return start


def alap_schedule(dfg, latency_of, horizon=None, asap=None):
    """Unconstrained as-late-as-possible start cycles.

    ``horizon`` is the schedule length in cycles; defaults to the ASAP
    makespan so that critical operations get zero slack.  The ASAP
    schedule is only needed to derive that default — an explicit
    ``horizon`` skips it entirely, and a caller that already holds the
    ASAP dict can thread it through via ``asap`` instead of having it
    recomputed.
    """
    if horizon is None:
        if asap is None:
            asap = asap_schedule(dfg, latency_of)
        horizon = schedule_length(dfg, asap, latency_of)
    start = {}
    for uid in reversed(list(nx.topological_sort(dfg.graph))):
        latest = horizon - latency_of(uid)
        for succ in dfg.successors(uid):
            latest = min(latest, start[succ] - latency_of(uid))
        start[uid] = latest
    return start


def schedule_length(dfg, start, latency_of):
    """Makespan in cycles of a start-cycle assignment."""
    if not start:
        return 0
    return max(cycle + latency_of(uid) for uid, cycle in start.items())


def slack(dfg, latency_of, horizon=None):
    """Per-node slack = ALAP − ASAP start cycle.

    ASAP is computed once and threaded into :func:`alap_schedule`
    (which previously recomputed it to derive the default horizon).
    """
    asap = asap_schedule(dfg, latency_of)
    alap = alap_schedule(dfg, latency_of, horizon=horizon, asap=asap)
    return {uid: alap[uid] - asap[uid] for uid in asap}


def critical_nodes(dfg, latency_of, horizon=None):
    """Nodes with zero slack — the critical path(s) of the DFG."""
    return {uid for uid, s in slack(dfg, latency_of, horizon=horizon).items()
            if s <= 0}


def longest_path_cycles(dfg, latency_of):
    """Length in cycles of the longest dependence chain."""
    asap = asap_schedule(dfg, latency_of)
    return schedule_length(dfg, asap, latency_of)
