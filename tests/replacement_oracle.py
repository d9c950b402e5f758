"""Frozen networkx reference for ISE replacement's match proposals and
greedy pick.

These are the implementations replacement used before it moved onto
open prefix contractions and the per-DFG match memo: every proposal
list runs ``find_matches`` afresh (networkx VF2, from
``match_oracle``), chain lengths walk
``nx.topological_sort`` of the match subgraph, and every greedy pick
builds a new quotient ``nx.DiGraph`` of all picks so far to test that
their joint contraction stays acyclic.  The parity tests hold the
production code to them.  Keep this file frozen; it is an oracle, not
a second implementation to maintain.
"""

from operator import itemgetter

import networkx as nx

from repro.core.replacement import (
    _meets_pipestage_limit,
    _options_by_opcode,
    _realize,
)
from repro.graph.analysis import is_legal

from match_oracle import find_matches


def match_proposals(dfg, rep, constraints, technology):
    """Every admissible occurrence of ``rep``'s pattern in ``dfg``."""
    option_by_opcode = _options_by_opcode(rep)
    proposals = []
    for members in find_matches(dfg, rep.pattern(), constraints):
        if not is_legal(dfg, members, constraints):
            continue
        option_of = _realize(dfg, members, option_by_opcode)
        if option_of is None or not _meets_pipestage_limit(
                dfg, members, option_of, constraints, technology):
            continue
        key = (-chain_length(dfg, members), -len(members), sorted(members))
        proposals.append((key, frozenset(members), option_of))
    return proposals


def choose_groups(dfg, proposals):
    """Greedy disjoint pick over ``proposals``, best sort key first."""
    used = set()
    groups = []
    for __, members, option_of in sorted(proposals, key=itemgetter(0)):
        if members & used:
            continue
        if not jointly_acyclic(dfg, [g for g, __ in groups] + [members]):
            continue
        groups.append((members, option_of))
        used |= members
    return groups


def jointly_acyclic(dfg, member_sets):
    """True when contracting all ``member_sets`` leaves a DAG."""
    group_of = {}
    for index, members in enumerate(member_sets):
        for uid in members:
            group_of[uid] = "g{}".format(index)
    quotient = nx.DiGraph()
    for src, dst in dfg.graph.edges:
        u = group_of.get(src, src)
        v = group_of.get(dst, dst)
        if u != v:
            quotient.add_edge(u, v)
    return nx.is_directed_acyclic_graph(quotient)


def chain_length(dfg, members):
    """Dependence-chain cycles the match would collapse."""
    longest = {}
    for uid in nx.topological_sort(dfg.graph.subgraph(members)):
        arrival = 0
        for pred in dfg.predecessors(uid):
            if pred in members:
                arrival = max(arrival, longest[pred])
        longest[uid] = arrival + 1
    return max(longest.values()) if longest else 0
