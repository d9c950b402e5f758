"""Frozen networkx VF2 reference for ISE pattern matching.

These are the implementations replacement and merging matched with
before the native backtracking matcher of :mod:`repro.graph.subgraph`:
the host is the opcode-labelled pattern graph of a block's groupable
operations, and every search runs networkx's ``DiGraphMatcher`` with
opcode-equality node matching.  Legality of a mapping is the frozen
set-based check of ``legality_oracle``.  The parity tests hold the
production matcher to them.  Keep this file frozen; it is an oracle,
not a second implementation to maintain.
"""

from contextlib import contextmanager

import networkx as nx
from networkx.algorithms import isomorphism

from legality_oracle import is_legal_reference


def pattern_graph(dfg, members):
    """Opcode-labelled pattern of a node set: data edges inside the
    member set, nodes relabelled 0..n-1 in sorted-uid order."""
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
    """A VF2 matcher of ``pattern`` into ``host`` on equal opcodes; the
    search state is dropped on leaving the block."""
    matcher = isomorphism.DiGraphMatcher(host, pattern,
                                         node_match=_same_opcode)
    try:
        yield matcher
    finally:
        matcher.state = None


def match_host(dfg, exclude=frozenset()):
    """``(host, uids)``: the pattern graph of every groupable operation
    outside ``exclude`` and the sorted uid list its indices refer to."""
    uids = sorted(uid for uid in dfg.nodes
                  if dfg.op(uid).groupable and uid not in exclude)
    return pattern_graph(dfg, uids), uids


def find_matches(dfg, pattern, constraints=None, exclude=frozenset(),
                 max_mappings=5000, max_matches=256):
    """Occurrences of ``pattern`` in ``dfg`` as sets of node uids, in
    VF2 enumeration order, capped by ``max_mappings`` raw mappings and
    ``max_matches`` distinct (legal, with ``constraints``) member sets."""
    host, uids = match_host(dfg, exclude)
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
            if constraints is not None and not is_legal_reference(
                    dfg, members, constraints):
                continue
            matches.append(set(members))
    return matches


def contains_pattern(host, pattern):
    """VF2's verdict on whether ``pattern`` is monomorphic to a
    subgraph of ``host``."""
    with opcode_matcher(host, pattern) as matcher:
        return matcher.subgraph_is_monomorphic()


def same_pattern(a, b):
    """VF2's verdict on whether ``a`` and ``b`` are isomorphic."""
    with opcode_matcher(a, b) as matcher:
        return matcher.is_isomorphic()


def occurrence_sets(host, pattern):
    """Every distinct host node set VF2 maps ``pattern`` onto."""
    with opcode_matcher(host, pattern) as matcher:
        return {frozenset(mapping)
                for mapping in matcher.subgraph_monomorphisms_iter()}
