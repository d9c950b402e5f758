"""Schedulable units and DFG contraction.

A *unit* is what the list scheduler places: either a single software
operation or a whole ISE (a contracted group of operations executing on
an ASFU).  :func:`contract_dfg` folds chosen ISE groups of a DFG into
supernodes and returns the :class:`UnitGraph` both the final scheduler
and the exploration-side analyses operate on.

Exploration scores thousands of contractions of one unchanging DFG, so
the contraction-invariant part — node order, edge pairs, the software
:class:`~repro.sched.resources.Needs` of every node and a memo of ISE
geometry — lives in a :class:`BlockSkeleton` built once per DFG and
cached on it (dropped on mutation, never pickled).  A contraction is
then one pass over plain tuples.
"""

from ..errors import SchedulingError
from ..graph.analysis import io_counts
from ..hwlib.asfu import subgraph_area, subgraph_delay_ns
from ..isa.opcodes import OpCategory
from .resources import Needs

#: Entries one DFG's ISE-geometry memo holds before it is cleared.
ISE_MEMO_CAP = 4096


class SchedUnit:
    """One schedulable unit: a software op or an ISE supernode."""

    __slots__ = ("uid", "latency", "needs", "members", "is_ise", "area")

    def __init__(self, uid, latency, needs, members, is_ise=False, area=0.0):
        self.uid = uid
        self.latency = int(latency)
        self.needs = needs
        self.members = frozenset(members)
        self.is_ise = is_ise
        self.area = float(area)

    def __repr__(self):
        kind = "ISE" if self.is_ise else "op"
        return "SchedUnit({} {}, lat={}, members={})".format(
            kind, self.uid, self.latency, sorted(self.members))


def software_needs(operation):
    """Per-cycle resource demand of one software operation."""
    category = operation.opcode.category
    if category == OpCategory.MULTIPLY:
        fu_kind = "mul"
    elif category in (OpCategory.LOAD, OpCategory.STORE):
        fu_kind = "mem"
    elif operation.opcode.is_control:
        fu_kind = "branch"
    else:
        fu_kind = "alu"
    return Needs(reads=len(operation.sources),
                 writes=len(operation.dests),
                 fu_kind=fu_kind)


class BlockSkeleton:
    """The contraction-invariant scheduling view of one DFG.

    ``nodes`` (sorted uids) and ``needs`` (uid → software
    :class:`Needs`) never change while the DFG does not.
    ``succ``/``pred`` are the software-only adjacency (uid → neighbour
    tuple in the order of the DFG's edge pairs): a contraction
    rebuilds only the units whose edges touch an ISE member and shares
    every other tuple, and the software units and their "children"
    rank keys are likewise built once.  ``ise_geometry`` memoises
    ``(latency, |IN|, |OUT|, area)`` of ISE groups, keyed on the members
    and their options in the members' iteration order plus the
    technology: the area is a float sum in that order, so only an
    identically ordered group may reuse it.  The memo is cleared once it
    holds :data:`ISE_MEMO_CAP` entries.
    """

    __slots__ = ("nodes", "needs", "ise_geometry", "_outputs",
                 "succ", "pred", "_out_edges", "_in_edges", "_rank_entries",
                 "_graph", "_latencies", "_units")

    def __init__(self, dfg):
        self.nodes = nodes = tuple(dfg.nodes)
        self.needs = {uid: software_needs(dfg.op(uid)) for uid in nodes}
        self.ise_geometry = {}
        self._outputs = frozenset(dfg.output_nodes)
        out_edges = {uid: [] for uid in nodes}
        in_edges = {uid: [] for uid in nodes}
        for index, (src, dst) in enumerate(dfg.edge_pairs()):
            out_edges[src].append((index, dst))
            in_edges[dst].append((index, src))
        self._out_edges = {uid: tuple(e) for uid, e in out_edges.items()}
        self._in_edges = {uid: tuple(e) for uid, e in in_edges.items()}
        self.succ = {uid: tuple(dst for __, dst in e)
                     for uid, e in self._out_edges.items()}
        self.pred = {uid: tuple(src for __, src in e)
                     for uid, e in self._in_edges.items()}
        #: ``(-children, str(uid), uid)`` of every software unit, sorted:
        #: the list scheduler's default rank order of the bare block.
        self._rank_entries = sorted(
            (-len(self.succ[uid]), str(uid), uid) for uid in nodes)
        self._graph = None            # UnitGraph of the bare block
        self._latencies = None        # (io_tables, cycles, cache key)
        self._units = (None, None)    # (software_cycles, software units)

    def geometry(self, dfg, members, option_of, technology):
        """``(latency, |IN|, |OUT|, area)`` of one ISE group (memoised)."""
        ordered = tuple(members)
        key = (ordered, tuple(option_of[uid] for uid in ordered), technology)
        memo = self.ise_geometry
        found = memo.get(key)
        if found is None:
            delay = subgraph_delay_ns(dfg, members, option_of.__getitem__)
            n_in, n_out = io_counts(dfg, members)
            found = (technology.cycles_for_delay(delay), n_in, n_out,
                     subgraph_area(members, option_of.__getitem__))
            if len(memo) >= ISE_MEMO_CAP:
                memo.clear()
            memo[key] = found
        return found

    def latencies(self, io_tables):
        """``(uid → software cycles, cache key)`` under ``io_tables``.

        Built once per tables object: a block's io tables stay frozen
        while it is explored, so repeated scoring calls share one map
        (the key is its sorted item tuple, as the evaluation cache
        expects).
        """
        memo = self._latencies
        if memo is None or memo[0] is not io_tables:
            cycles = {uid: io_tables[uid].software[0].cycles
                      for uid in self.nodes if uid in io_tables}
            memo = self._latencies = (io_tables, cycles,
                                      tuple(sorted(cycles.items())))
        return memo[1], memo[2]

    def software_units(self, software_cycles):
        """uid → :class:`SchedUnit` of every node run in software.

        Built once per latency map object (``None`` means one cycle
        each); units are never mutated, so contractions share them.
        """
        cycles, units = self._units
        if units is None or cycles is not software_cycles:
            needs = self.needs
            units = {}
            for node in self.nodes:
                latency = 1
                if software_cycles is not None:
                    latency = software_cycles.get(node, 1)
                units[node] = SchedUnit(node, latency, needs[node], (node,))
            self._units = (software_cycles, units)
        return units

    def bare_graph(self):
        """The :class:`UnitGraph` of the block with no ISE contracted."""
        graph = self._graph
        if graph is None:
            graph = self._graph = UnitGraph(
                dict(self.succ), dict(self.pred),
                [uid for __, __, uid in self._rank_entries])
        return graph

    def contract(self, unit_of, ise_units):
        """The :class:`UnitGraph` with ``ise_units`` contracted.

        ``unit_of`` maps every ISE member to its unit uid.  Only ISE
        units and the software units next to a member get fresh
        neighbour tuples; every neighbour list keeps the order of the
        edges that produced it.
        """
        out_edges = self._out_edges
        in_edges = self._in_edges
        succ = {}
        pred = {}
        touched = set()
        for uid, unit in ise_units.items():
            out = []
            inc = []
            for member in unit.members:
                for edge in out_edges[member]:
                    if unit_of.get(edge[1]) != uid:
                        out.append(edge)
                for edge in in_edges[member]:
                    if unit_of.get(edge[1]) != uid:
                        inc.append(edge)
            out.sort()
            inc.sort()
            succ[uid] = tuple(dict.fromkeys(
                [unit_of.get(node, node) for __, node in out]))
            pred[uid] = tuple(dict.fromkeys(
                [unit_of.get(node, node) for __, node in inc]))
            touched.update(node for __, node in out if node not in unit_of)
            touched.update(node for __, node in inc if node not in unit_of)
        sw_succ = self.succ
        sw_pred = self.pred
        for node in self.nodes:
            if node in unit_of:
                continue
            if node in touched:
                succ[node] = tuple(dict.fromkeys(
                    [unit_of.get(n, n) for n in sw_succ[node]]))
                pred[node] = tuple(dict.fromkeys(
                    [unit_of.get(n, n) for n in sw_pred[node]]))
            else:
                succ[node] = sw_succ[node]
                pred[node] = sw_pred[node]
        entries = [entry for entry in self._rank_entries
                   if entry[2] not in unit_of and entry[2] not in touched]
        entries.extend((-len(succ[uid]), str(uid), uid)
                       for uid in (*ise_units, *touched))
        entries.sort()
        return UnitGraph(succ, pred, [uid for __, __, uid in entries])


def block_skeleton(dfg):
    """The cached :class:`BlockSkeleton` of ``dfg``.

    Built on first use and stashed on the DFG; graph mutations drop it
    (see :class:`~repro.graph.dfg.DFG`) and direct ``output_nodes``
    edits, which change ``|OUT|``, are caught by a freshness check.
    """
    skeleton = dfg._skeleton
    if skeleton is None or dfg.output_nodes != skeleton._outputs:
        skeleton = dfg._skeleton = BlockSkeleton(dfg)
    return skeleton


class UnitGraph:
    """Read-only DAG over unit uids, as built by :func:`contract_dfg`.

    Successor and predecessor tuples per unit, in the order a
    :class:`networkx.DiGraph` built from the same edges would report
    them.  Exposes the DiGraph subset the scheduler, the SP functions
    and the schedule renderers use.  ``topo_order`` is one Kahn order of
    the units, or ``None`` when the graph has a cycle.
    ``children_ranked`` lists the units by the list scheduler's default
    key, ``(-children, str(uid))``.
    """

    __slots__ = ("_succ", "_pred", "topo_order", "_ranked")

    def __init__(self, succ, pred, ranked=None):
        self._succ = succ
        self._pred = pred
        self._ranked = ranked
        self.topo_order = _kahn(succ, pred)

    @property
    def nodes(self):
        """Unit uids, in insertion order."""
        return self._succ.keys()

    @property
    def edges(self):
        """All ``(src, dst)`` pairs, grouped by source."""
        return [(src, dst) for src, succ in self._succ.items()
                for dst in succ]

    def successors(self, uid):
        """Units depending on ``uid``."""
        return self._succ[uid]

    def predecessors(self, uid):
        """Units ``uid`` depends on."""
        return self._pred[uid]

    def in_degree(self, uid):
        """Number of predecessors of ``uid``."""
        return len(self._pred[uid])

    def out_degree(self, uid):
        """Number of successors of ``uid``."""
        return len(self._succ[uid])

    def has_edge(self, src, dst):
        """True when ``dst`` depends directly on ``src``."""
        return src in self._succ and dst in self._succ[src]

    def children_ranked(self):
        """Units sorted by ``(-out_degree, str(uid))``."""
        ranked = self._ranked
        if ranked is None:
            succ = self._succ
            ranked = self._ranked = sorted(
                succ, key=lambda uid: (-len(succ[uid]), str(uid)))
        return ranked

    def __iter__(self):
        return iter(self._succ)

    def __len__(self):
        return len(self._succ)


def _kahn(succ, pred):
    """Kahn order of the adjacency ``succ``/``pred``; ``None`` on a cycle."""
    indegree = {node: len(preds) for node, preds in pred.items()}
    ready = [node for node, degree in indegree.items() if not degree]
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                ready.append(nxt)
    return order if len(order) == len(indegree) else None


def topological_order(graph):
    """One topological order of a :class:`UnitGraph` or an acyclic
    :class:`networkx.DiGraph`; ``None`` when the graph has a cycle."""
    if isinstance(graph, UnitGraph):
        return graph.topo_order
    return _kahn({node: tuple(graph.successors(node)) for node in graph},
                 {node: tuple(graph.predecessors(node)) for node in graph})


def contract_dfg(dfg, ise_groups, technology, software_cycles=None):
    """Contract ISE groups of ``dfg`` into supernodes.

    Parameters
    ----------
    dfg:
        The source :class:`~repro.graph.dfg.DFG`.
    ise_groups:
        Iterable of ``(members, option_of)`` pairs: a set of node uids
        and a mapping uid → chosen
        :class:`~repro.hwlib.options.HardwareOption`.  Groups must be
        disjoint.
    technology:
        Converts ASFU combinational delay to cycles.
    software_cycles:
        Optional mapping uid → latency for non-grouped operations
        (default 1 cycle each, the paper's assumption).

    Returns
    -------
    (graph, units):
        ``graph`` — a :class:`UnitGraph` over unit uids; ``units`` —
        dict uid → :class:`SchedUnit`.  ISE unit uids are strings
        ``"ise<N>"``; software units keep their integer uids.
    """
    skeleton = block_skeleton(dfg)
    unit_of = {}
    units = {}
    for index, (members, option_of) in enumerate(ise_groups):
        members = frozenset(members)
        uid = "ise{}".format(index)
        taken = members.intersection(unit_of)
        if taken:
            raise SchedulingError(
                "ISE groups overlap on nodes {}".format(sorted(taken)))
        latency, n_in, n_out, area = skeleton.geometry(
            dfg, members, option_of, technology)
        needs = Needs(reads=n_in, writes=n_out, fu_kind="asfu")
        units[uid] = SchedUnit(uid, latency, needs, members, is_ise=True,
                               area=area)
        for member in members:
            unit_of[member] = uid
    software = skeleton.software_units(software_cycles)
    if not units:
        return skeleton.bare_graph(), dict(software)
    graph = skeleton.contract(unit_of, units)
    if graph.topo_order is None:
        raise SchedulingError("contraction produced a cycle "
                              "(non-convex ISE group)")
    for node in skeleton.nodes:
        if node not in unit_of:
            units[node] = software[node]
    return graph, units
