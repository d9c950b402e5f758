"""ISE merging (Fig. 3.1.1, §3.1).

Candidates found in different blocks (or rounds) often overlap: if ISE
B's pattern is a subgraph of ISE A's, one ASFU can serve both, so B is
*merged into* A.  The thesis allows the merge when (1) B's execution
cycles are not shorter than the identical subgraph inside A (otherwise
replacing B-sites with A's slower sub-hardware would lose performance),
and (2) A and B never execute simultaneously — guaranteed on machines
with a single ASFU issue slot, which is the evaluated configuration.
"""

import networkx as nx
from networkx.algorithms import isomorphism

from ..graph.subgraph import contains_pattern, same_pattern


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
        if not contains_pattern(rep_pattern, pattern):
            continue
        if _subgraph_cycles_ok(rep, rep_pattern, candidate, pattern):
            return entry
    return None


def _subgraph_cycles_ok(rep, rep_pattern, candidate, pattern):
    """Condition (1): candidate.cycles ≥ cycles of the identical
    subgraph inside the representative (measured with the
    representative's hardware options)."""
    matcher = isomorphism.DiGraphMatcher(
        rep_pattern, pattern,
        node_match=lambda a, b: a["opcode"] == b["opcode"])
    rep_members = sorted(rep.members)
    for mapping in matcher.subgraph_monomorphisms_iter():
        mapped_uids = {rep_members[host_idx] for host_idx in mapping}
        delay = _chain_delay(rep, mapped_uids)
        sub_cycles = rep.technology.cycles_for_delay(delay)
        if candidate.cycles >= sub_cycles:
            return True
    return False


def _chain_delay(rep, members):
    graph = rep.dfg.graph
    longest = {}
    for uid in nx.topological_sort(graph.subgraph(members)):
        arrival = 0.0
        for pred in graph.predecessors(uid):
            if pred in members:
                arrival = max(arrival, longest[pred])
        longest[uid] = arrival + rep.option_of[uid].delay_ns
    return max(longest.values()) if longest else 0.0
