"""Frozen set-based reference for the §4.2 legality checks.

These are the implementations :mod:`repro.graph.analysis` dispatched to
before the packed-bitset kernel (:class:`repro.graph.bitset.BitsetDFG`)
became the only legality path: ``IN``/``OUT`` as Python sets of value
names, convexity as a forward closure of the escape frontier, and the
raising check with its exact check order and error messages.  The
parity tests, the fuzz suite and the other oracles hold the production
kernel to them.  Keep this file frozen; it is an oracle, not a second
implementation to maintain.
"""

from repro.errors import ConstraintError


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
    """``(|IN(S)|, |OUT(S)|)`` port counts of a membership set."""
    return (len(input_values(dfg, members)),
            len(output_values(dfg, members)))


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


def is_legal_reference(dfg, members, constraints):
    """Boolean form of :func:`check_candidate_reference` (the oracle)."""
    try:
        check_candidate_reference(dfg, members, constraints)
    except ConstraintError:
        return False
    return True
