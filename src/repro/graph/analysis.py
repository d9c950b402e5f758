"""Analyses over DFGs: I/O counting, convexity, ASAP/ALAP, critical path.

These implement the formal side of §4.2 (the constraints every ISE must
observe) and the timing quantities the merit function consumes
(critical-path membership, slack windows).
"""

import networkx as nx

from ..errors import ConstraintError
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
                values.update(dfg.graph.edges[pred, uid]["values"])
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


class _IODelta:
    """One previewed membership addition of a :class:`SubgraphIOTracker`.

    Carries the would-be ``IN``/``OUT`` sizes plus everything needed to
    commit the addition without recomputing it.
    """

    __slots__ = ("uid", "n_in", "n_out", "delta_in", "delta_out",
                 "escapes", "stops_escaping", "succ_members")

    def __init__(self, uid, n_in, n_out, delta_in, delta_out,
                 escapes, stops_escaping, succ_members):
        self.uid = uid
        self.n_in = n_in
        self.n_out = n_out
        self.delta_in = delta_in
        self.delta_out = delta_out
        self.escapes = escapes
        self.stops_escaping = stops_escaping
        self.succ_members = succ_members


class SubgraphIOTracker:
    """Incremental ``IN(S)``/``OUT(S)`` sizes of a growing member set.

    Mirrors :func:`input_values`/:func:`output_values` exactly, but
    updates in O(degree) per added member instead of rebuilding from the
    whole set: per value name it counts *contributions* — (member,
    crossing edge) pairs and external block inputs for ``IN``, escaping
    producers for ``OUT`` — so names defined by several producers (the
    DFG is not SSA) stay counted while any external source remains.

    :meth:`preview_add` computes the grown sizes without mutating, so a
    caller (cluster fusion in the iteration scheduler) can reject the
    growth and keep the tracker valid; :meth:`commit` applies a
    previously previewed delta.
    """

    __slots__ = ("dfg", "members", "_in_count", "_out_count", "_escaping",
                 "n_in", "n_out")

    def __init__(self, dfg):
        self.dfg = dfg
        self.members = set()
        self._in_count = {}       # value -> #external contributions
        self._out_count = {}      # value -> #escaping producers
        self._escaping = set()
        self.n_in = 0
        self.n_out = 0

    def _escapes(self, uid, members):
        """True when ``uid``'s value must leave ``members`` (§4.2 OUT)."""
        dfg = self.dfg
        if dfg.is_output(uid):
            return True
        return any(succ not in members for succ in dfg.data_successors(uid))

    def _escapes_grown(self, uid, added):
        """:meth:`_escapes` against ``members | {added}`` without building
        the grown set (previews run per fusion probe, mostly rejected)."""
        dfg = self.dfg
        if dfg.is_output(uid):
            return True
        members = self.members
        return any(succ != added and succ not in members
                   for succ in dfg.data_successors(uid))

    def preview_add(self, uid, n_in_limit=None):
        """Sizes of IN/OUT after adding ``uid``, without committing.

        ``n_in_limit`` enables the caller's own reject test to run
        early: when the grown ``IN`` size already exceeds it, the
        (costlier) ``OUT`` half is skipped and ``None`` is returned —
        join probes are mostly rejected, and mostly on ``IN``.
        """
        dfg = self.dfg
        members = self.members
        tables = dfg.tables()
        # IN: edges uid -> member stop crossing; uid's own external
        # inputs and crossing in-edges start counting.
        delta_in = {}
        succ_members = []
        for succ, values in tables.data_out[uid]:
            if succ in members:
                succ_members.append(succ)
                for value in values:
                    delta_in[value] = delta_in.get(value, 0) - 1
        for value in dfg.external_inputs(uid):
            delta_in[value] = delta_in.get(value, 0) + 1
        for pred, values in tables.data_in[uid]:
            if pred not in members:
                for value in values:
                    delta_in[value] = delta_in.get(value, 0) + 1
        n_in = self.n_in
        for value, delta in delta_in.items():
            old = self._in_count.get(value, 0)
            new = old + delta
            if old > 0 and new <= 0:
                n_in -= 1
            elif old <= 0 and new > 0:
                n_in += 1
        if n_in_limit is not None and n_in > n_in_limit:
            return None
        # OUT: uid may escape; member data-predecessors of uid may stop
        # escaping (uid was their last outside consumer).
        delta_out = {}
        escapes = self._escapes_grown(uid, uid)
        if escapes:
            for value in dfg.op(uid).dests:
                delta_out[value] = delta_out.get(value, 0) + 1
        stops_escaping = []
        for pred in dfg.data_predecessors(uid):
            if pred in self._escaping and not self._escapes_grown(pred, uid):
                stops_escaping.append(pred)
                for value in dfg.op(pred).dests:
                    delta_out[value] = delta_out.get(value, 0) - 1
        n_out = self.n_out
        for value, delta in delta_out.items():
            old = self._out_count.get(value, 0)
            new = old + delta
            if old > 0 and new <= 0:
                n_out -= 1
            elif old <= 0 and new > 0:
                n_out += 1
        return _IODelta(uid, n_in, n_out, delta_in, delta_out,
                        escapes, stops_escaping, succ_members)

    def commit(self, delta):
        """Apply a delta produced by :meth:`preview_add`."""
        for value, change in delta.delta_in.items():
            new = self._in_count.get(value, 0) + change
            if new:
                self._in_count[value] = new
            else:
                self._in_count.pop(value, None)
        for value, change in delta.delta_out.items():
            new = self._out_count.get(value, 0) + change
            if new:
                self._out_count[value] = new
            else:
                self._out_count.pop(value, None)
        if delta.escapes:
            self._escaping.add(delta.uid)
        for uid in delta.stops_escaping:
            self._escaping.discard(uid)
        self.members.add(delta.uid)
        self.n_in = delta.n_in
        self.n_out = delta.n_out

    def add(self, uid):
        """Preview-and-commit in one step; returns the applied delta."""
        delta = self.preview_add(uid)
        self.commit(delta)
        return delta

    def clone(self):
        """Independent copy sharing only the (immutable) DFG.

        The batched ant runner opens every singleton cluster from a
        per-operation template tracker: one :meth:`add` walk at set-up,
        then a cheap state copy per actual open instead of re-walking
        the operation's edges for every ant.
        """
        other = SubgraphIOTracker.__new__(SubgraphIOTracker)
        other.dfg = self.dfg
        other.members = set(self.members)
        other._in_count = dict(self._in_count)
        other._out_count = dict(self._out_count)
        other._escaping = set(self._escaping)
        other.n_in = self.n_in
        other.n_out = self.n_out
        return other


def io_counts(dfg, members):
    """``(|IN(S)|, |OUT(S)|)`` port counts of a membership set.

    The size-only form of :func:`input_values`/:func:`output_values`:
    callers that never look at the value *names* (constraint checks,
    merit shaping, legalisation) go through the packed bitset kernel
    when it is enabled and fall back to the set-based reference
    otherwise — the counts are identical either way.
    """
    view = bitset_view(dfg)
    if view is not None:
        return view.io_counts(members)
    return (len(input_values(dfg, members)),
            len(output_values(dfg, members)))


def is_convex(dfg, members):
    """§4.2 convexity: no path between two members leaves the subgraph.

    Equivalent check: no non-member node is simultaneously reachable
    *from* a member and an ancestor *of* a member.  Dispatches to the
    packed closure-row kernel (:mod:`repro.graph.bitset`) when enabled;
    :func:`is_convex_reference` is the set-based oracle.
    """
    view = bitset_view(dfg)
    if view is not None:
        return view.is_convex(members)
    return is_convex_reference(dfg, members)


def is_convex_reference(dfg, members):
    """Set-based reference convexity check (the bitset kernel's oracle)."""
    members = set(members)
    if len(members) <= 1:
        return True
    reachable_from_s = set()
    for uid in members:
        for succ in dfg.successors(uid):
            if succ not in members:
                reachable_from_s.add(succ)
    # Forward closure of the escape frontier.
    frontier = list(reachable_from_s)
    while frontier:
        node = frontier.pop()
        for succ in dfg.successors(node):
            if succ not in reachable_from_s:
                reachable_from_s.add(succ)
                frontier.append(succ)
    # Convex iff the closure never re-enters S.
    return not any(node in members for node in reachable_from_s)


def violates_memory_rule(dfg, members):
    """True when the subgraph contains a load/store (§4.2 rule 4)."""
    return any(dfg.op(uid).is_memory for uid in members)


def check_candidate(dfg, members, constraints):
    """Raise :class:`~repro.errors.ConstraintError` when S is illegal.

    Dispatches to the packed kernel when enabled — same check order,
    same error messages; :func:`check_candidate_reference` stays as the
    set-based oracle.
    """
    view = bitset_view(dfg)
    if view is not None:
        view.check_candidate(members, constraints)
        return
    check_candidate_reference(dfg, members, constraints)


def check_candidate_reference(dfg, members, constraints):
    """Set-based reference legality check (the bitset kernel's oracle)."""
    if not members:
        raise ConstraintError("empty candidate")
    if violates_memory_rule(dfg, members):
        raise ConstraintError("candidate contains memory operations")
    if any(not dfg.op(uid).groupable for uid in members):
        raise ConstraintError("candidate contains ungroupable operations")
    n_in = len(input_values(dfg, members))
    if n_in > constraints.n_in:
        raise ConstraintError(
            "IN(S)={} exceeds Nin={}".format(n_in, constraints.n_in))
    n_out = len(output_values(dfg, members))
    if n_out > constraints.n_out:
        raise ConstraintError(
            "OUT(S)={} exceeds Nout={}".format(n_out, constraints.n_out))
    if not is_convex_reference(dfg, members):
        raise ConstraintError("candidate is not convex")


def is_legal(dfg, members, constraints):
    """Boolean form of :func:`check_candidate`."""
    view = bitset_view(dfg)
    if view is not None:
        return view.is_legal(members, constraints)
    return is_legal_reference(dfg, members, constraints)


def is_legal_reference(dfg, members, constraints):
    """Boolean form of :func:`check_candidate_reference` (the oracle)."""
    try:
        check_candidate_reference(dfg, members, constraints)
    except ConstraintError:
        return False
    return True


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
