"""Subgraph utilities: grouping, components, containment, matching.

Used by Hardware-Grouping (grow a virtual ISE around one operation),
by candidate extraction (connected components of taken-hardware nodes),
by ISE merging (pattern containment) and by ISE replacement (finding
further occurrences of a selected pattern in a DFG).
"""

from contextlib import contextmanager

import networkx as nx
from networkx.algorithms import isomorphism


def grown_group(dfg, seed, chosen_hw):
    """Hardware-Grouping's virtual subgraph around ``seed``.

    Returns ``{seed}`` plus every node reachable from ``seed`` through
    undirected DFG edges traversing only nodes in ``chosen_hw`` (the
    operations that picked a hardware option in the previous iteration).
    Matches the Fig. 4.3.6 examples: parents and children chains of
    hardware-chosen neighbours are swallowed, software nodes block the
    growth.
    """
    if not isinstance(chosen_hw, (set, frozenset)):
        chosen_hw = set(chosen_hw)
    group = {seed}
    frontier = [seed]
    neighbours = dfg.neighbours
    while frontier:
        node = frontier.pop()
        for neighbour in neighbours(node):
            if neighbour in group or neighbour not in chosen_hw:
                continue
            group.add(neighbour)
            frontier.append(neighbour)
    return group


def hardware_components(dfg, chosen_hw):
    """Connected components of hardware-chosen nodes.

    The thesis defines an ISE as "a set of connected/reachable
    operations that all use hardware implementation option"; each
    weakly-connected component of the induced subgraph is one candidate.

    The walk is networkx's weakly-connected-components search on the
    induced subgraph view, run over the DFG's adjacency snapshot: the
    same start nodes, the same neighbour order and so the same member
    sets in the same iteration order, without the view's reference
    cycles.
    """
    chosen_hw = set(chosen_hw)
    graph = dfg.graph
    inside = set(uid for uid in chosen_hw if uid in graph)
    # The view walks the smaller side: the node set itself when it is
    # under half the graph, else the graph's node order.
    if 2 * len(inside) < len(graph):
        starts = inside
    else:
        starts = [uid for uid in graph if uid in inside]
    successors = dfg.successors
    predecessors = dfg.predecessors
    components = []
    seen = set()
    for start in starts:
        if start in seen:
            continue
        left = len(inside) - len(seen)
        component = {start}
        level = [start]
        while level and len(component) < left:
            frontier, level = level, []
            for uid in frontier:
                for near in successors(uid):
                    if near in inside and near not in component:
                        component.add(near)
                        level.append(near)
                for near in predecessors(uid):
                    if near in inside and near not in component:
                        component.add(near)
                        level.append(near)
                if len(component) == left:
                    break
        seen.update(component)
        components.append(set(component))
    return components


def pattern_graph(dfg, members):
    """Opcode-labelled pattern of a node set (for matching/merging).

    Only data edges inside the member set appear; nodes are relabelled
    0..n-1 in sorted-uid order so patterns from different DFGs compare.
    """
    members = sorted(set(members))
    index = {uid: i for i, uid in enumerate(members)}
    pattern = nx.DiGraph()
    for uid in members:
        pattern.add_node(index[uid], opcode=dfg.op(uid).name)
    for uid in members:
        for succ in dfg.data_successors(uid):
            if succ in index:
                pattern.add_edge(index[uid], index[succ])
    return pattern


def _same_opcode(a, b):
    return a["opcode"] == b["opcode"]


@contextmanager
def opcode_matcher(host, pattern):
    """A VF2 matcher of ``pattern`` into ``host`` (opcode-labelled
    DiGraphs from :func:`pattern_graph`) on equal opcodes.

    The matcher and its search state refer to each other; leaving the
    block drops the state, so both die by reference count instead of
    waiting for the cyclic collector.
    """
    matcher = isomorphism.DiGraphMatcher(host, pattern,
                                         node_match=_same_opcode)
    try:
        yield matcher
    finally:
        matcher.state = None


def contains_pattern(host, pattern):
    """True when ``pattern`` occurs inside ``host`` (both opcode-labelled
    DiGraphs from :func:`pattern_graph`).  Containment is subgraph
    monomorphism with opcode-equality node matching — the rule ISE
    merging uses to fold candidate B into candidate A."""
    if pattern.number_of_nodes() > host.number_of_nodes():
        return False
    with opcode_matcher(host, pattern) as matcher:
        return matcher.subgraph_is_monomorphic()


def _degree_sequence(pattern):
    """Sorted in+out degrees, read off the adjacency dicts: a DiGraph's
    degree view (behind ``number_of_edges`` and ``is_isomorphic`` too)
    holds the graph."""
    succ, pred = pattern.succ, pattern.pred
    return sorted(len(succ[node]) + len(pred[node]) for node in succ)


def same_pattern(a, b):
    """Exact (iso) equality of two opcode-labelled patterns."""
    if a.number_of_nodes() != b.number_of_nodes():
        return False
    if _degree_sequence(a) != _degree_sequence(b):
        return False
    with opcode_matcher(a, b) as matcher:
        return next(matcher.isomorphisms_iter(), None) is not None


def match_host(dfg, exclude=frozenset()):
    """The host side of :func:`find_matches` for one DFG.

    Returns ``(host, uids)``: the opcode-labelled pattern graph of every
    groupable operation outside ``exclude``, and the sorted uid list its
    node indices refer to.  The host only depends on the DFG, so callers
    matching many patterns against one block build it once and pass it
    to every :func:`find_matches` call.
    """
    uids = sorted(uid for uid in dfg.nodes
                  if dfg.op(uid).groupable and uid not in exclude)
    return pattern_graph(dfg, uids), uids


#: Match results one DFG's :class:`MatchMemo` holds before it is cleared.
MATCH_MEMO_CAP = 256


class MatchMemo:
    """Pattern matches of one DFG: its :func:`match_host` and a dict of
    match results that callers fill with ``setdefault``, clearing it
    first once it holds :data:`MATCH_MEMO_CAP` entries.

    Cached on the DFG like its scheduling skeleton: built on first use,
    dropped on mutation and by direct ``output_nodes`` edits (legality
    reads ``|OUT|``), never pickled.
    """

    __slots__ = ("host", "matches", "_outputs")

    def __init__(self, dfg):
        self.host = match_host(dfg)
        self.matches = {}
        self._outputs = frozenset(dfg.output_nodes)


def match_memo(dfg):
    """The cached :class:`MatchMemo` of ``dfg``."""
    memo = dfg._matches
    if memo is None or dfg.output_nodes != memo._outputs:
        memo = dfg._matches = MatchMemo(dfg)
    return memo


def find_matches(dfg, pattern, constraints=None, exclude=frozenset(),
                 max_mappings=5000, max_matches=256, obs=None, host=None):
    """Occurrences of ``pattern`` in ``dfg`` as sets of node uids.

    Matches never use nodes in ``exclude`` (already replaced), always
    map onto groupable operations, and — when ``constraints`` is given —
    must be legal candidates (convex, I/O ports, no memory ops).
    Overlapping matches are all returned; the caller prioritises.
    ``host`` is a prebuilt :func:`match_host` of ``dfg`` (built with the
    same ``exclude``); without it the host is built here.

    Unrolled blocks contain combinatorially many monomorphisms of the
    same node sets, so enumeration is capped by ``max_mappings`` raw
    mappings / ``max_matches`` distinct member sets.

    Each mapping first meets the packed kernel's cheap masked
    pre-filter (port counts against the precomputed value tables); only
    survivors reach the convexity stage.  ``obs`` counts the split:
    ``match.prefilter_rejected`` mappings died in the pre-filter,
    ``match.legality_checked`` went the distance.
    """
    from .bitset import bitset_view

    host, uids = host if host is not None else match_host(dfg, exclude)
    view = bitset_view(dfg) if constraints is not None else None
    seen = set()
    matches = []
    with opcode_matcher(host, pattern) as matcher:
        for count, mapping in enumerate(
                matcher.subgraph_monomorphisms_iter()):
            if count >= max_mappings or len(matches) >= max_matches:
                break
            members = frozenset(uids[i] for i in mapping)
            if members in seen:
                continue
            seen.add(members)
            if constraints is not None:
                verdict = view.classify_match(members, constraints)
                if obs:
                    if verdict == "cheap":
                        obs.count("match.prefilter_rejected")
                    else:
                        obs.count("match.legality_checked")
                if verdict != "legal":
                    continue
            matches.append(set(members))
    return matches
