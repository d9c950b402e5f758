"""Data-flow graphs of basic blocks.

A :class:`DFG` wraps a :class:`networkx.DiGraph` whose nodes are the
integer uids of :class:`~repro.isa.instruction.Operation` objects and
whose edges carry dependences:

* ``kind="data"`` — true dependences, annotated with the value name,
* ``kind="order"`` — memory-ordering edges (store→load, store→store,
  load→store) keeping loads/stores in program order.

Construction lowers one IR basic block: every computational instruction
becomes an operation node; values read before any in-block definition
become *external inputs*; values that are live out of the block (or
used by the terminator) mark their producers as *output* nodes.  The
terminator itself is not part of the DFG — it executes in the branch
slot after the block body, as in the thesis's examples.
"""

import functools

import networkx as nx

from ..errors import IRError
from ..isa.instruction import Operation
from .tables import DFGTables

#: Attributes a networkx graph caches on itself on first use (its
#: adjacency/degree views); pickles leave them out.
_GRAPH_VIEWS = frozenset(
    name for klass in nx.DiGraph.__mro__
    for name, attr in vars(klass).items()
    if isinstance(attr, functools.cached_property))


class DFG:
    """The data-flow graph of one basic block.

    A DFG is mutated only while it is built (``build_dfg``, contraction,
    the fuzzer).  Lowered blocks are then shared read-only: the flow's
    front-end memo hands the same DFGs to every explore of equal program
    content, on any machine and from any thread.  Every lazy cache is one
    attribute written once with a complete object, which is safe under
    the GIL when threads race to build it (the loser's equal copy is
    dropped): ``_adj`` (adjacency tuples), ``_tables``
    (:class:`~repro.graph.tables.DFGTables`), ``_skeleton`` (the
    scheduling skeleton, whose own memos swap whole tuples or store
    deterministic values per key), ``_matches`` (the match memo, filled
    per pattern with ``setdefault``) and ``_bitset`` (the legality
    view).  The evaluation cache's ``_evalcache_fp`` digest follows the
    same rule.  Only ``_adj`` pickles, and every lowered block has it
    after its base cycles are scheduled, so a pickle does not depend on
    which explores touched the DFG before.  For the same reason the
    networkx graph pickles without the views it caches on itself on
    first use.

    None of these caches refers back to the DFG, and the walk code
    reads networkx's adjacency dicts rather than its edge and degree
    views (which hold their graph), so a DFG of a finished round dies
    by reference count.
    """

    def __init__(self, label="", function=""):
        self.graph = nx.DiGraph()
        self.label = label
        self.function = function
        #: value name -> uid of its (final) producer in this block
        self.producer_of = {}
        #: uids whose value must reach the register file (live-out or
        #: used by the terminator)
        self.output_nodes = set()
        #: per-node list of external input value names
        self._ext_inputs = {}
        # Flat adjacency cache: the exploration engine walks neighbours
        # millions of times per block but never mutates the graph, so
        # the networkx adjacency views are snapshotted into plain tuples
        # (same iteration order) on first use and dropped on mutation.
        self._adj = None
        # Packed-bitset legality view (repro.graph.bitset), built
        # lazily on first legality query, dropped on mutation and
        # excluded from pickles (pool workers rebuild their own).
        self._bitset = None
        # Scheduling skeleton (repro.sched.units.BlockSkeleton): node
        # order, edge pairs, software resource needs and the ISE
        # geometry memo, built lazily on the first contraction, dropped
        # on mutation and left out of pickles entirely.
        self._skeleton = None
        # Walk tables (repro.graph.tables.DFGTables): data-edge value
        # tuples, a topological rank, the node index and the §4.2
        # value-ownership tables, same lifecycle as _skeleton.
        # Kept out of _adj, which pickles: DFGs from older caches carry
        # the 8-tuple _adj and must keep loading.
        self._tables = None
        # Match memo (repro.graph.subgraph.MatchMemo): the replacement
        # host graph and each pattern's legal matches, same lifecycle
        # as _skeleton.
        self._matches = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["graph"] = _bare_graph(self.graph)
        state["_bitset"] = None
        del state["_skeleton"]
        del state["_tables"]
        del state["_matches"]
        state.pop("_evalcache_fp", None)
        return state

    def __setstate__(self, state):
        # Pickles predating the adjacency/bitset caches lack the slots.
        self.__dict__.update(state)
        self.__dict__.setdefault("_adj", None)
        self.__dict__.setdefault("_bitset", None)
        self._skeleton = None
        self._tables = None
        self._matches = None

    def _drop_caches(self):
        """Forget every lazy view; the graph just changed."""
        self._adj = None
        self._bitset = None
        self._skeleton = None
        self._tables = None
        self._matches = None

    def _adjacency(self):
        adj = self._adj
        if adj is None:
            # Read the adjacency dicts, not networkx's edge/degree
            # views: those hold the graph and would put it in a
            # reference cycle.
            graph = self.graph
            adjacency = graph.succ
            preds, succs, dpreds, dsuccs, ops, both = {}, {}, {}, {}, {}, {}
            for uid in graph.nodes:
                ops[uid] = graph.nodes[uid]["op"]
                pred = tuple(graph.predecessors(uid))
                out = adjacency[uid]
                succ = tuple(out)
                preds[uid] = pred
                succs[uid] = succ
                both[uid] = pred + succ
                dpreds[uid] = tuple(
                    p for p in pred if adjacency[p][uid]["kind"] == "data")
                dsuccs[uid] = tuple(
                    s for s in succ if out[s]["kind"] == "data")
            adj = self._adj = (preds, succs, dpreds, dsuccs,
                               tuple(sorted(graph.nodes)), ops,
                               tuple((src, dst) for src in succs
                                     for dst in succs[src]),
                               both)
        return adj

    # -- structure ----------------------------------------------------------

    def add_operation(self, operation, ext_inputs=()):
        """Add an operation node; ``ext_inputs`` are the value names it
        reads from outside the block."""
        if operation.uid in self.graph:
            raise IRError("duplicate DFG node uid {}".format(operation.uid))
        self.graph.add_node(operation.uid, op=operation)
        self._ext_inputs[operation.uid] = list(ext_inputs)
        self._drop_caches()
        return operation.uid

    def add_data_edge(self, src, dst, value):
        """Add (or widen) a data edge carrying ``value`` from src to dst."""
        if self.graph.has_edge(src, dst):
            edge = self.graph.succ[src][dst]
            edge["kind"] = "data"
            values = edge.setdefault("values", set())
            values.add(value)
        else:
            self.graph.add_edge(src, dst, kind="data", values={value})
        self._drop_caches()

    def add_order_edge(self, src, dst):
        """Add a memory-ordering edge (no value carried)."""
        if not self.graph.has_edge(src, dst):
            self.graph.add_edge(src, dst, kind="order", values=set())
            self._drop_caches()

    def op(self, uid):
        """The :class:`Operation` at node ``uid``."""
        adj = self._adj
        if adj is None:
            adj = self._adjacency()
        return adj[5][uid]

    @property
    def nodes(self):
        """All node uids, sorted (== program order by construction)."""
        adj = self._adj
        if adj is None:
            adj = self._adjacency()
        return list(adj[4])

    def __len__(self):
        return self.graph.number_of_nodes()

    def __contains__(self, uid):
        return uid in self.graph

    def predecessors(self, uid):
        """All predecessors (data and order edges)."""
        adj = self._adj
        if adj is None:
            adj = self._adjacency()
        return adj[0][uid]

    def successors(self, uid):
        """All successors (data and order edges)."""
        adj = self._adj
        if adj is None:
            adj = self._adjacency()
        return adj[1][uid]

    def data_predecessors(self, uid):
        """Predecessors connected by data edges."""
        adj = self._adj
        if adj is None:
            adj = self._adjacency()
        return adj[2][uid]

    def data_successors(self, uid):
        """Successors connected by data edges."""
        adj = self._adj
        if adj is None:
            adj = self._adjacency()
        return adj[3][uid]

    def edge_pairs(self):
        """All ``(src, dst)`` edges, in graph iteration order."""
        adj = self._adj
        if adj is None:
            adj = self._adjacency()
        return adj[6]

    def neighbours(self, uid):
        """Predecessors then successors, as one cached tuple."""
        adj = self._adj
        if adj is None:
            adj = self._adjacency()
        return adj[7][uid]

    def tables(self):
        """The cached :class:`~repro.graph.tables.DFGTables` walk view.

        Graph mutations drop it; direct ``output_nodes`` edits, which
        change the output flags, are caught by a freshness check.
        """
        tables = self._tables
        if tables is None or self.output_nodes != tables._outputs:
            tables = self._tables = DFGTables(self)
        return tables

    def external_inputs(self, uid):
        """Value names node ``uid`` reads from outside the block.

        The returned sequence is shared — treat it as read-only.
        """
        return self._ext_inputs.get(uid, ())

    def is_output(self, uid):
        """True when the node's value must reach the register file."""
        return uid in self.output_nodes

    def groupable_nodes(self):
        """Uids of operations that §4.2 allows inside an ISE."""
        return [uid for uid in self.nodes if self.op(uid).groupable]

    def pretty(self):
        """Multi-line human-readable dump of the DFG."""
        lines = ["DFG {}:{} ({} nodes)".format(
            self.function, self.label, len(self))]
        for uid in self.nodes:
            preds = sorted(self.graph.predecessors(uid))
            lines.append("  #{:<3} {:<24} <- {}".format(
                uid, self.op(uid).pretty(), preds))
        return "\n".join(lines)

    def __repr__(self):
        return "DFG({}:{}, {} nodes)".format(
            self.function, self.label, len(self))


def _bare_graph(graph):
    """A shallow copy of ``graph`` without its cached views and with an
    empty networkx dispatch cache."""
    bare = graph.__class__.__new__(graph.__class__)
    bare.__dict__.update((name, value) for name, value in vars(graph).items()
                         if name not in _GRAPH_VIEWS)
    if "__networkx_cache__" in vars(graph):
        bare.__networkx_cache__ = {}
    return bare


def build_dfg(block, live_out=frozenset(), function=""):
    """Lower one IR basic block to a :class:`DFG`.

    Parameters
    ----------
    block:
        The :class:`~repro.ir.function.BasicBlock` to lower.
    live_out:
        Value names live on exit of the block (from
        :func:`repro.ir.analysis.liveness`); their final producers
        become output nodes.
    """
    dfg = DFG(label=block.label, function=function)
    last_def = {}            # value name -> uid of current producer
    last_store = None
    loads_since_store = []
    uid = 0
    for instr in block.body:
        if not instr.is_computational:
            # Calls split scheduling regions; the flow never hands blocks
            # with calls to exploration (they are inlined or the block is
            # skipped), so treat one here as a construction error.
            raise IRError(
                "cannot lower block {!r}: contains a call".format(block.label))
        operation = Operation(
            uid, instr.op,
            sources=instr.sources,
            dests=instr.defs(),
            immediate=instr.imm,
        )
        ext = []
        for value in instr.sources:
            if value in last_def:
                pass
            else:
                ext.append(value)
        dfg.add_operation(operation, ext_inputs=ext)
        for value in instr.sources:
            if value in last_def:
                dfg.add_data_edge(last_def[value], uid, value)
        # Memory ordering.
        if instr.is_load:
            if last_store is not None:
                dfg.add_order_edge(last_store, uid)
            loads_since_store.append(uid)
        elif instr.is_store:
            if last_store is not None:
                dfg.add_order_edge(last_store, uid)
            for load in loads_since_store:
                dfg.add_order_edge(load, uid)
            last_store = uid
            loads_since_store = []
        for value in instr.defs():
            last_def[value] = uid
        uid += 1
    # Output nodes: final producers of live-out / terminator-used values.
    needed = set(live_out)
    if block.terminator is not None:
        needed.update(block.terminator.uses())
    for value, producer in last_def.items():
        if value in needed:
            dfg.output_nodes.add(producer)
    dfg.producer_of = dict(last_def)
    return dfg
