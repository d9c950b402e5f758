"""Subgraph utilities: grouping, components, containment, matching.

Used by Hardware-Grouping (grow a virtual ISE around one operation),
by candidate extraction (connected components of taken-hardware nodes),
by ISE merging (pattern containment) and by ISE replacement (finding
further occurrences of a selected pattern in a DFG).
"""

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
    """
    chosen_hw = set(chosen_hw)
    sub = dfg.graph.subgraph(chosen_hw)
    return [set(component)
            for component in nx.weakly_connected_components(sub)]


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


def contains_pattern(host, pattern):
    """True when ``pattern`` occurs inside ``host`` (both opcode-labelled
    DiGraphs from :func:`pattern_graph`).  Containment is subgraph
    monomorphism with opcode-equality node matching — the rule ISE
    merging uses to fold candidate B into candidate A."""
    if pattern.number_of_nodes() > host.number_of_nodes():
        return False
    matcher = isomorphism.DiGraphMatcher(
        host, pattern,
        node_match=lambda a, b: a["opcode"] == b["opcode"])
    return matcher.subgraph_is_monomorphic()


def same_pattern(a, b):
    """Exact (iso) equality of two opcode-labelled patterns."""
    if a.number_of_nodes() != b.number_of_nodes():
        return False
    if a.number_of_edges() != b.number_of_edges():
        return False
    matcher = isomorphism.DiGraphMatcher(
        a, b, node_match=lambda x, y: x["opcode"] == y["opcode"])
    return matcher.is_isomorphic()


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

    With the packed bitset kernel enabled, each mapping first meets the
    cheap masked pre-filter (port counts against the precomputed value
    tables); only survivors reach the convexity stage.  ``obs`` counts
    the split: ``match.prefilter_rejected`` mappings died in the
    pre-filter, ``match.legality_checked`` went the distance.
    """
    from .analysis import is_legal
    from .bitset import bitset_view

    host, uids = host if host is not None else match_host(dfg, exclude)
    matcher = isomorphism.DiGraphMatcher(
        host, pattern,
        node_match=lambda a, b: a["opcode"] == b["opcode"])
    view = bitset_view(dfg) if constraints is not None else None
    seen = set()
    matches = []
    for count, mapping in enumerate(matcher.subgraph_monomorphisms_iter()):
        if count >= max_mappings or len(matches) >= max_matches:
            break
        members = frozenset(uids[i] for i in mapping)
        if members in seen:
            continue
        seen.add(members)
        if constraints is not None:
            if view is not None:
                verdict = view.classify_match(members, constraints)
                if obs:
                    if verdict == "cheap":
                        obs.count("match.prefilter_rejected")
                    else:
                        obs.count("match.legality_checked")
                if verdict != "legal":
                    continue
            else:
                if obs:
                    obs.count("match.legality_checked")
                if not is_legal(dfg, members, constraints):
                    continue
        matches.append(set(members))
    return matches
