"""Subgraph utilities: grouping, components, containment, matching.

Used by Hardware-Grouping (grow a virtual ISE around one operation),
by candidate extraction (connected components of taken-hardware nodes),
by ISE merging (pattern containment) and by ISE replacement (finding
further occurrences of a selected pattern in a DFG).

Containment and matching share one backtracking matcher of
opcode-labelled patterns (:func:`pattern_graph`): a subgraph
monomorphism with opcode-equal nodes, the non-induced match networkx's
VF2 ``subgraph_monomorphisms_iter`` enumerates.  The host is a
:class:`MatchHost` of int bit rows: a block's groupable operations and
their data edges (built once per DFG, cached in its :class:`MatchMemo`)
or another pattern.  A pattern compiles into a search order
(:func:`_search_plan`) in which every node after a component's root is
drawn from the edge row of a placed neighbour and filtered, by bit
operations, on opcode, injectivity and every edge back to placed
nodes.
"""

import networkx as nx


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


def _bits(row):
    """Indices of the set bits of ``row``, ascending."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


class MatchHost:
    """The host side of pattern matching, as int bit rows.

    ``nodes[i]`` is host node ``i``; ``succ[i]`` and ``pred[i]`` are
    the rows of its data successors and predecessors, ``by_opcode``
    maps an opcode to the row of host nodes that carry it, and
    ``loops`` is the row of nodes with a self-loop.  Only nodes in an
    opcode row can be matched, so the edge rows may name other nodes.
    No row refers back to the graph it was read from.
    """

    __slots__ = ("nodes", "succ", "pred", "by_opcode", "loops")

    def __init__(self, nodes, succ, by_opcode):
        self.nodes = nodes
        self.succ = succ
        pred = [0] * len(succ)
        loops = 0
        for i, row in enumerate(succ):
            bit = 1 << i
            if row & bit:
                loops |= bit
            for j in _bits(row):
                pred[j] |= bit
        self.pred = pred
        self.by_opcode = by_opcode
        self.loops = loops

    @classmethod
    def of_dfg(cls, dfg):
        """The groupable operations of ``dfg`` with their data edges,
        indexed like its :class:`~repro.graph.tables.DFGTables`."""
        tables = dfg.tables()
        by_opcode = {}
        for i, uid in enumerate(tables.uids):
            op = dfg.op(uid)
            if op.groupable:
                by_opcode[op.name] = by_opcode.get(op.name, 0) | 1 << i
        return cls(tables.uids, tables.dsucc_bits, by_opcode)

    @classmethod
    def of_pattern(cls, graph):
        """An opcode-labelled DiGraph (a :func:`pattern_graph`),
        indexed in node order."""
        nodes = list(graph)
        index = {node: i for i, node in enumerate(nodes)}
        by_opcode = {}
        succ = []
        for node, out in graph.adjacency():
            bit = 1 << index[node]
            opcode = graph.nodes[node]["opcode"]
            by_opcode[opcode] = by_opcode.get(opcode, 0) | bit
            row = 0
            for dst in out:
                row |= 1 << index[dst]
            succ.append(row)
        return cls(nodes, succ, by_opcode)


def _search_plan(pattern):
    """``pattern``'s nodes in search order, one step per node.

    Each step is ``(opcode, into, outof, loop)``: ``into`` holds the
    earlier steps with an edge to the node, ``outof`` those with an edge
    from it, and ``loop`` says whether it has a self-loop.  Components
    are walked breadth-first from their highest-degree node, so each
    later node of a component has a placed neighbour whose edge row
    supplies its candidates.
    """
    # Plain dicts off the raw adjacency: networkx's per-node views cost
    # more than the walk itself.
    succ = dict(pattern.adjacency())
    pred = {node: [] for node in succ}
    for src, out in succ.items():
        for dst in out:
            pred[dst].append(src)
    degree = {node: len(out) + len(pred[node]) for node, out in succ.items()}
    opcode = pattern.nodes
    position = {}
    plan = []
    for root in sorted(succ, key=degree.__getitem__, reverse=True):
        if root in position:
            continue
        queue = [root]
        queued = {root}
        for node in queue:
            into = []
            for src in pred[node]:
                if src in position:
                    into.append(position[src])
                elif src not in queued:
                    queued.add(src)
                    queue.append(src)
            outof = []
            out = succ[node]
            for dst in out:
                if dst in position:
                    outof.append(position[dst])
                elif dst not in queued:
                    queued.add(dst)
                    queue.append(dst)
            position[node] = len(plan)
            plan.append((opcode[node]["opcode"], into, outof, node in out))
    return plan


def _embeddings(host, plan, free=-1):
    """Every mapping of ``plan``'s pattern into ``host``, as the row of
    its image.

    A mapping is injective, keeps opcodes, stays inside the ``free``
    row and sends every pattern edge onto a host edge; host edges
    between matched nodes need no pattern edge (a monomorphism, not an
    induced match).  Mappings are enumerated by backtracking over the
    plan's steps, each drawing its candidates from the edge rows of
    placed nodes; a mapping is yielded once per assignment, so pattern
    automorphisms yield the same row several times.
    """
    succ, pred = host.succ, host.pred
    base = []
    for opcode, __, __, loop in plan:
        row = host.by_opcode.get(opcode, 0) & free
        if loop:
            row &= host.loops
        if not row:
            return
        base.append(row)
    if not plan:
        yield 0
        return
    last = len(plan) - 1
    image = [0] * last
    bits = [0] * last
    left = [0] * len(plan)
    left[0] = base[0]
    used = 0
    depth = 0
    while True:
        cand = left[depth]
        if not cand:
            if not depth:
                return
            depth -= 1
            used ^= bits[depth]
            continue
        bit = cand & -cand
        left[depth] = cand ^ bit
        if depth == last:
            yield used | bit
            continue
        image[depth] = bit.bit_length() - 1
        bits[depth] = bit
        used |= bit
        depth += 1
        __, into, outof, __ = plan[depth]
        cand = base[depth] & ~used
        for step in into:
            cand &= succ[image[step]]
        for step in outof:
            cand &= pred[image[step]]
        left[depth] = cand


def pattern_occurrences(host, pattern):
    """The distinct node sets of ``host`` that ``pattern`` maps onto
    (both opcode-labelled DiGraphs from :func:`pattern_graph`), each a
    list of host nodes in node order.  The map is a subgraph
    monomorphism with opcode-equality node matching."""
    if len(pattern) > len(host):
        return
    target = MatchHost.of_pattern(host)
    nodes = target.nodes
    seen = set()
    for row in _embeddings(target, _search_plan(pattern)):
        if row not in seen:
            seen.add(row)
            yield [nodes[i] for i in _bits(row)]


def contains_pattern(host, pattern):
    """True when ``pattern`` occurs inside ``host`` (both opcode-labelled
    DiGraphs from :func:`pattern_graph`).  Containment is subgraph
    monomorphism with opcode-equality node matching — the rule ISE
    merging uses to fold candidate B into candidate A."""
    return next(pattern_occurrences(host, pattern), None) is not None


def _degree_sequence(pattern):
    """Sorted in+out degrees, read off the adjacency dicts: a DiGraph's
    degree view (behind ``number_of_edges`` and ``is_isomorphic`` too)
    holds the graph."""
    succ, pred = pattern.succ, pattern.pred
    return sorted(len(succ[node]) + len(pred[node]) for node in succ)


def same_pattern(a, b):
    """Exact (iso) equality of two opcode-labelled patterns.

    Equal degree sequences give equal node and edge counts, so a
    monomorphism of ``b`` into ``a`` maps ``b``'s edges one-to-one onto
    all of ``a``'s: the two patterns are the same shape."""
    if len(a) != len(b):
        return False
    if _degree_sequence(a) != _degree_sequence(b):
        return False
    return contains_pattern(a, b)


#: Match results one DFG's :class:`MatchMemo` holds before it is cleared.
MATCH_MEMO_CAP = 256


class MatchMemo:
    """Pattern matches of one DFG: its :class:`MatchHost` and a dict of
    match results that callers fill with ``setdefault``, clearing it
    first once it holds :data:`MATCH_MEMO_CAP` entries.

    Cached on the DFG like its scheduling skeleton: built on first use,
    dropped on mutation and by direct ``output_nodes`` edits (legality
    reads ``|OUT|``), never pickled.
    """

    __slots__ = ("host", "matches", "_outputs")

    def __init__(self, dfg):
        self.host = MatchHost.of_dfg(dfg)
        self.matches = {}
        self._outputs = frozenset(dfg.output_nodes)


def match_memo(dfg):
    """The cached :class:`MatchMemo` of ``dfg``."""
    memo = dfg._matches
    if memo is None or dfg.output_nodes != memo._outputs:
        memo = dfg._matches = MatchMemo(dfg)
    return memo


def find_matches(dfg, pattern, constraints=None, exclude=frozenset(),
                 max_mappings=5000, max_matches=256, obs=None):
    """Occurrences of ``pattern`` in ``dfg`` as sets of node uids.

    Matches never use nodes in ``exclude`` (already replaced), always
    map onto groupable operations, and — when ``constraints`` is given —
    must be legal candidates (convex, I/O ports, no memory ops).
    Overlapping matches are all returned; the caller prioritises.  The
    host is the DFG's cached :class:`MatchHost` (see :func:`match_memo`).

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

    host = match_memo(dfg).host
    uids = host.nodes
    free = -1
    if exclude:
        index = dfg.tables().index
        for uid in exclude:
            if uid in index:
                free &= ~(1 << index[uid])
    view = bitset_view(dfg) if constraints is not None else None
    seen = set()
    matches = []
    for count, row in enumerate(
            _embeddings(host, _search_plan(pattern), free)):
        if count >= max_mappings or len(matches) >= max_matches:
            break
        if row in seen:
            continue
        seen.add(row)
        members = frozenset(uids[i] for i in _bits(row))
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
