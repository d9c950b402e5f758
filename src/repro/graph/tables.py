"""Plain-table walk view of one frozen DFG.

The ant construction, legality and legalisation loops read the same
facts off the DFG millions of times per block: the value names carried
by each data edge, a topological order, each node's neighbours by
index and which values a node set reads and writes.  :class:`DFGTables`
keeps them as plain tuples, lists and int bit rows, built once on first
use and stashed on the DFG (see :meth:`~repro.graph.dfg.DFG.tables`).
Like the scheduling skeleton it is dropped on mutation, rebuilt when
``output_nodes`` drifts and never pickled, so DFG pickles stay
byte-identical however much a DFG has been explored.
"""


class DFGTables:
    """Walk tables, node index and value-ownership tables of one DFG.

    ``data_in[uid]`` holds one ``(pred, values)`` pair per data
    predecessor and ``data_out[uid]`` one ``(succ, values)`` pair per
    data successor, both in the DFG's neighbour order; ``values`` is the
    edge's value-name set as a tuple, in the set's iteration order.
    ``rank`` maps every uid to its position in one topological order of
    the whole DFG, or is ``None`` when the graph has a cycle.
    ``preds[uid]`` is the DFG's own (data and order) predecessor tuple,
    one dict lookup away.

    Nodes are also indexed ``0..n-1`` in ``uids`` (sorted-uid) order;
    ``index`` maps back.  By index: ``succ_index`` holds each node's
    successor indices (data and order edges, deduplicated) and
    ``base_preds`` its predecessor count.  A node set is an int bit
    row over these indices.  The §4.2 value tables give every value
    name a dense id per direction and hold, per node:

    * ``ext_vid_mask`` — the ids of its external block inputs,
    * ``pred_vid_bits`` — one ``(producer bit, value bit)`` pair per
      value on an incoming data edge,
    * ``dest_vid_mask`` — the ids of the values it defines,
    * ``dsucc_bits`` — its data successors as a bit row,
    * ``output_flags`` — whether it is an output node,
    * ``singleton_io`` — ``(|IN|, |OUT|)`` of the node on its own.

    ``IN(S)`` is then the popcount of the value bits a member reads
    from outside ``S`` and ``OUT(S)`` that of the dest masks of members
    that are outputs or have a data successor outside ``S`` (see
    :meth:`in_count`/:meth:`out_count`) — equal to
    :func:`~repro.graph.analysis.input_values` /
    :func:`~repro.graph.analysis.output_values`, including names
    defined by several producers.
    """

    __slots__ = ("data_in", "data_out", "rank", "preds", "uids", "index",
                 "succ_index", "base_preds", "n_in_values", "n_out_values",
                 "ext_vid_mask", "pred_vid_bits", "dest_vid_mask",
                 "dsucc_bits", "output_flags", "singleton_io", "_outputs")

    def __init__(self, dfg):
        succ = dfg.graph.succ
        uids = dfg.nodes
        self.data_in = {
            uid: tuple((pred, tuple(succ[pred][uid]["values"]))
                       for pred in dfg.data_predecessors(uid))
            for uid in uids}
        self.data_out = {
            uid: tuple((dst, tuple(succ[uid][dst]["values"]))
                       for dst in dfg.data_successors(uid))
            for uid in uids}
        self.rank = _topological_rank(dfg, uids)
        self.preds = {uid: dfg.predecessors(uid) for uid in uids}
        self.uids = uids
        index = self.index = {uid: i for i, uid in enumerate(uids)}
        self.succ_index = [tuple(index[succ] for succ in dfg.successors(uid))
                           for uid in uids]
        self.base_preds = [len(dfg.predecessors(uid)) for uid in uids]
        self._outputs = frozenset(dfg.output_nodes)
        self._value_tables(dfg, uids, index)

    def _value_tables(self, dfg, uids, index):
        in_names = set()
        out_names = set()
        for uid in uids:
            in_names.update(dfg.external_inputs(uid))
            for __, values in self.data_in[uid]:
                in_names.update(values)
            out_names.update(dfg.op(uid).dests)
        in_vid = {name: k for k, name in enumerate(sorted(in_names))}
        out_vid = {name: k for k, name in enumerate(sorted(out_names))}
        self.n_in_values = len(in_vid)
        self.n_out_values = len(out_vid)
        ext = self.ext_vid_mask = []
        pairs = self.pred_vid_bits = []
        dest = self.dest_vid_mask = []
        dsucc = self.dsucc_bits = []
        flags = self.output_flags = []
        ports = self.singleton_io = []
        for uid in uids:
            ext_mask = 0
            for name in dfg.external_inputs(uid):
                ext_mask |= 1 << in_vid[name]
            node_pairs = tuple(
                (1 << index[pred], 1 << in_vid[name])
                for pred, values in self.data_in[uid] for name in values)
            dest_mask = 0
            for name in dfg.op(uid).dests:
                dest_mask |= 1 << out_vid[name]
            succ_row = 0
            for succ, __ in self.data_out[uid]:
                succ_row |= 1 << index[succ]
            is_output = dfg.is_output(uid)
            ext.append(ext_mask)
            pairs.append(node_pairs)
            dest.append(dest_mask)
            dsucc.append(succ_row)
            flags.append(is_output)
            # On its own every producer is outside and every data
            # successor is external.
            reads = ext_mask
            for __, vbit in node_pairs:
                reads |= vbit
            writes = dest_mask if is_output or succ_row else 0
            ports.append((reads.bit_count(), writes.bit_count()))

    def in_count(self, row, idxs):
        """``|IN(S)|`` of the node set with bit row ``row`` and node
        indices ``idxs``."""
        ext = self.ext_vid_mask
        pairs = self.pred_vid_bits
        vids = 0
        for i in idxs:
            vids |= ext[i]
            for pbit, vbit in pairs[i]:
                if not row & pbit:
                    vids |= vbit
        return vids.bit_count()

    def out_count(self, row, idxs):
        """``|OUT(S)|`` of the node set with bit row ``row`` and node
        indices ``idxs``."""
        out = self.output_flags
        dsucc = self.dsucc_bits
        dest = self.dest_vid_mask
        nrow = ~row
        vids = 0
        for i in idxs:
            if out[i] or dsucc[i] & nrow:
                vids |= dest[i]
        return vids.bit_count()


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
