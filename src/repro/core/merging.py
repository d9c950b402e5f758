"""ISE merging (Fig. 3.1.1, §3.1).

Candidates found in different blocks (or rounds) often overlap: if ISE
B's pattern is a subgraph of ISE A's, one ASFU can serve both, so B is
*merged into* A.  The thesis allows the merge when (1) B's execution
cycles are not shorter than the identical subgraph inside A (otherwise
replacing B-sites with A's slower sub-hardware would lose performance),
and (2) A and B never execute simultaneously — guaranteed on machines
with a single ASFU issue slot, which is the evaluated configuration.

B's pattern is in A's when it maps onto A's nodes by a subgraph
monomorphism with equal opcodes; condition (1) is checked on every
distinct node set it maps onto
(:func:`~repro.graph.subgraph.pattern_occurrences`, the native matcher
replacement uses too).
"""

from ..graph.subgraph import pattern_occurrences, same_pattern


class MergedISE:
    """A representative candidate plus the candidates it absorbed."""

    def __init__(self, representative):
        self.representative = representative
        self.absorbed = []

    @property
    def weighted_saving(self):
        """Profile-weighted saving of host plus absorbed."""
        return (self.representative.weighted_saving
                + sum(c.weighted_saving for c in self.absorbed))

    @property
    def area(self):
        """Silicon area of the representative's ASFU."""
        return self.representative.area

    @property
    def cycles(self):
        """ASFU latency of the representative."""
        return self.representative.cycles

    def all_candidates(self):
        """Representative followed by the absorbed candidates."""
        return [self.representative] + list(self.absorbed)

    def __repr__(self):
        return "MergedISE({!r} +{} absorbed)".format(
            self.representative, len(self.absorbed))


def is_single_asfu(machine):
    """Condition (2) holds on ``machine``: at most one ASFU issue slot.

    The one definition :meth:`~repro.core.flow.ISEDesignFlow.evaluate`
    and every other caller of :func:`merge_candidates` share.
    """
    return machine.fu_counts.get("asfu", 1) <= 1


def merge_candidates(candidates, single_asfu=True):
    """Merge subsumed candidates; returns a list of :class:`MergedISE`.

    Candidates are processed largest-first so representatives are the
    maximal patterns.  When ``single_asfu`` is false, condition (2) of
    the thesis cannot be guaranteed and merging is skipped entirely
    (see :func:`is_single_asfu`).
    """
    if not single_asfu:
        return [MergedISE(c) for c in candidates]
    ordered = sorted(candidates, key=lambda c: (-c.size, -c.area))
    hosts = []          # (MergedISE, representative pattern)
    for candidate in ordered:
        pattern = candidate.pattern()
        host = _find_host(hosts, candidate, pattern)
        if host is None:
            hosts.append((MergedISE(candidate), pattern))
        else:
            host.absorbed.append(candidate)
    return [entry for entry, __ in hosts]


def _find_host(hosts, candidate, pattern):
    for entry, rep_pattern in hosts:
        rep = entry.representative
        if same_pattern(rep_pattern, pattern):
            return entry
        # With no occurrence of the pattern the check fails, so it also
        # tests containment.
        if _subgraph_cycles_ok(rep, rep_pattern, candidate, pattern):
            return entry
    return None


def _subgraph_cycles_ok(rep, rep_pattern, candidate, pattern):
    """Condition (1): candidate.cycles ≥ cycles of the identical
    subgraph inside the representative (measured with the
    representative's hardware options)."""
    rep_members = sorted(rep.members)
    for nodes in pattern_occurrences(rep_pattern, pattern):
        mapped_uids = {rep_members[host_idx] for host_idx in nodes}
        delay = _chain_delay(rep, mapped_uids)
        sub_cycles = rep.technology.cycles_for_delay(delay)
        if candidate.cycles >= sub_cycles:
            return True
    return False


def _chain_delay(rep, members):
    """Longest combinational path through ``members`` of ``rep``'s DFG.

    Members are walked in the DFG's topological rank, so each one's
    arrival reads finished predecessors; the maximum does not depend on
    which topological order is walked.
    """
    dfg = rep.dfg
    longest = {}
    for uid in sorted(members, key=dfg.tables().rank.__getitem__):
        arrival = 0.0
        for pred in dfg.predecessors(uid):
            if pred in members:
                arrival = max(arrival, longest[pred])
        longest[uid] = arrival + rep.option_of[uid].delay_ns
    return max(longest.values()) if longest else 0.0
