"""Make-Convex and candidate legalisation.

After a round converges, the taken-hardware nodes form connected
components; a component may violate convexity (a dependence path leaves
and re-enters it) or the register-port limits.  ``make_convex`` splits
non-convex sets the way the thesis describes — repeatedly dividing the
candidate into smaller ones until every piece is convex — and
``legalize_components`` additionally trims pieces that overflow the
I/O-port budget, so exploration always returns constraint-satisfying
candidates.

Both walks here (connected components and ancestors) are plain BFS over
the DFG's cached adjacency tuples.  They visit nodes in the order the
networkx routines they replace did, so pieces come out in the same
order and with the same set layout.
"""

from ..graph.analysis import io_counts, is_convex
from ..graph.subgraph import hardware_components


def make_convex(dfg, members):
    """Split ``members`` into convex connected pieces.

    Strategy: while some piece is non-convex, find a *witness* node — a
    non-member on a dependence path between two members — and cut the
    piece at the witness's frontier: members that can reach the witness
    are separated from members reachable from it.  Each resulting part
    is re-split into connected components and re-checked.
    """
    pieces = [set(members)]
    result = []
    while pieces:
        piece = pieces.pop()
        if not piece:
            continue
        components = _components(dfg, piece)
        if len(components) > 1:
            pieces.extend(components)
            continue
        if is_convex(dfg, piece):
            result.append(frozenset(piece))
            continue
        witness = _find_witness(dfg, piece)
        ancestors = _ancestors(dfg, witness)
        upstream = piece & ancestors
        downstream = piece - upstream
        if not upstream or not downstream:
            # Degenerate (should not happen): drop the largest offender
            # to guarantee progress.
            piece.discard(max(piece))
            pieces.append(piece)
            continue
        pieces.append(upstream)
        pieces.append(downstream)
    return result


def _components(dfg, piece):
    """Weakly connected components of the subgraph induced by ``piece``.

    Seeds are taken in the induced view's node order: the member set
    itself when it is under half the graph, else graph node order.  Each
    BFS adds successors before predecessors, level by level.
    """
    # Built element by element, as networkx's induced view builds its
    # node filter, so the seed order below matches it exactly.
    members = set(uid for uid in piece)
    if 2 * len(members) < len(dfg):
        seeds = members
    else:
        seeds = [uid for uid in dfg.graph if uid in members]
    components = []
    seen = set()
    for source in seeds:
        if source in seen:
            continue
        component = {source}
        level = [source]
        while level:
            below = []
            for node in level:
                for nbr in dfg.successors(node):
                    if nbr in members and nbr not in component:
                        component.add(nbr)
                        below.append(nbr)
                for nbr in dfg.predecessors(node):
                    if nbr in members and nbr not in component:
                        component.add(nbr)
                        below.append(nbr)
            level = below
        seen.update(component)
        components.append(set(component))
    return components


def _ancestors(dfg, source):
    """All strict ancestors of ``source``, in BFS discovery order."""
    seen = {source}
    found = set()
    level = [source]
    while level:
        above = []
        for node in level:
            for pred in dfg.predecessors(node):
                if pred not in seen:
                    seen.add(pred)
                    found.add(pred)
                    above.append(pred)
        level = above
    return found


def _find_witness(dfg, piece):
    """A non-member on a member→member dependence path."""
    descendants = set()
    for uid in piece:
        for succ in dfg.successors(uid):
            if succ not in piece:
                descendants.add(succ)
    frontier = list(descendants)
    while frontier:
        node = frontier.pop()
        for succ in dfg.successors(node):
            if succ not in descendants and succ not in piece:
                descendants.add(succ)
                frontier.append(succ)
    for node in sorted(descendants):
        if any(succ in piece for succ in dfg.successors(node)):
            return node
    raise AssertionError("non-convex set without witness")


def legalize_components(dfg, members, constraints):
    """Convex, port-legal, multi-op candidates covering ``members``.

    Pieces that overflow ``Nin``/``Nout`` shed boundary nodes (the one
    consuming the most external inputs first) until legal; singletons
    are dropped (a one-op ISE saves nothing, merit case 2).
    """
    legal = []
    queue = list(make_convex(dfg, members))
    while queue:
        piece = set(queue.pop())
        if len(piece) < 2:
            continue
        n_in, n_out = io_counts(dfg, piece)
        if n_in <= constraints.n_in and n_out <= constraints.n_out:
            legal.append(frozenset(piece))
            continue
        shed = _worst_boundary_node(dfg, piece)
        piece.discard(shed)
        # Shedding may disconnect or un-convex the rest: restart the
        # piece through make_convex.
        queue.extend(make_convex(dfg, piece))
    return legal


def _worst_boundary_node(dfg, piece):
    """Member contributing the most external input values (ties: most
    external outputs, then highest uid so shedding is deterministic).

    A member's external inputs are the values of ``IN({uid})`` that
    ``IN(piece - {uid})`` lacks; its outputs are ``OUT({uid})``.  Both
    come from one pass of per-value contribution counts over the piece
    (external inputs plus values on data edges from non-members), which
    each member then adjusts by its own edges: O(edges), not O(k^2).
    """
    tables = dfg.tables()
    data_in, data_out = tables.data_in, tables.data_out
    count = {}
    for uid in piece:
        for value in dfg.external_inputs(uid):
            count[value] = count.get(value, 0) + 1
        for pred, values in data_in[uid]:
            if pred not in piece:
                for value in values:
                    count[value] = count.get(value, 0) + 1
    worst = None
    for uid in piece:
        # Contributions to IN(piece - {uid}) differ from ``count`` by
        # uid's own (dropped) and by the values uid sends to members
        # (added: uid is outside the rest).
        delta = {}
        own = set()
        for value in dfg.external_inputs(uid):
            delta[value] = delta.get(value, 0) - 1
            own.add(value)
        for pred, values in data_in[uid]:
            outside = pred not in piece
            for value in values:
                if outside:
                    delta[value] = delta.get(value, 0) - 1
                own.add(value)
        for succ, values in data_out[uid]:
            if succ in piece:
                for value in values:
                    delta[value] = delta.get(value, 0) + 1
        ext_in = sum(1 for value in own
                     if count.get(value, 0) + delta.get(value, 0) <= 0)
        if data_out[uid] or dfg.is_output(uid):
            outs = len(set(dfg.op(uid).dests))
        else:
            outs = 0
        key = (ext_in, outs, uid)
        if worst is None or key > worst:
            worst = key
    return worst[2]


def extract_components(dfg, chosen_hw):
    """Connected hardware components (pre Make-Convex)."""
    return hardware_components(dfg, chosen_hw)
