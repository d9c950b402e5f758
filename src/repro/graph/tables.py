"""Plain-table walk view of one frozen DFG.

The ant construction and legalisation loops read two things off the
DFG millions of times per block: the value names carried by each data
edge, and a topological order of the nodes.  :class:`DFGTables` keeps
both as plain tuples and dicts, built once on first use and stashed on
the DFG (see :meth:`~repro.graph.dfg.DFG.tables`).  Like the scheduling
skeleton it is dropped on mutation and never pickled, so DFG pickles
stay byte-identical however much a DFG has been explored.
"""


class DFGTables:
    """Data-edge value tuples and a topological rank of one DFG.

    ``data_in[uid]`` holds one ``(pred, values)`` pair per data
    predecessor and ``data_out[uid]`` one ``(succ, values)`` pair per
    data successor, both in the DFG's neighbour order; ``values`` is the
    edge's value-name set as a tuple, in the set's iteration order.
    ``rank`` maps every uid to its position in one topological order of
    the whole DFG, or is ``None`` when the graph has a cycle.
    """

    __slots__ = ("data_in", "data_out", "rank")

    def __init__(self, dfg):
        edges = dfg.graph.edges
        uids = dfg.nodes
        self.data_in = {
            uid: tuple((pred, tuple(edges[pred, uid]["values"]))
                       for pred in dfg.data_predecessors(uid))
            for uid in uids}
        self.data_out = {
            uid: tuple((succ, tuple(edges[uid, succ]["values"]))
                       for succ in dfg.data_successors(uid))
            for uid in uids}
        self.rank = _topological_rank(dfg, uids)


def _topological_rank(dfg, uids):
    """uid -> position in one Kahn order, or ``None`` on a cycle."""
    indegree = {uid: len(dfg.predecessors(uid)) for uid in uids}
    ready = [uid for uid in uids if not indegree[uid]]
    rank = {}
    while ready:
        uid = ready.pop()
        rank[uid] = len(rank)
        for succ in dfg.successors(uid):
            indegree[succ] -= 1
            if not indegree[succ]:
                ready.append(succ)
    return rank if len(rank) == len(uids) else None
