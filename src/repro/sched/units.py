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

    ``nodes`` (sorted uids), ``edges`` (``(src, dst)`` pairs in graph
    order) and ``needs`` (uid → software :class:`Needs`) never change
    while the DFG does not.  ``ise_geometry`` memoises
    ``(latency, |IN|, |OUT|, area)`` of ISE groups, keyed on the members
    and their options in the members' iteration order plus the
    technology: the area is a float sum in that order, so only an
    identically ordered group may reuse it.  The memo is cleared once it
    holds :data:`ISE_MEMO_CAP` entries.
    """

    __slots__ = ("nodes", "edges", "needs", "ise_geometry", "_outputs")

    def __init__(self, dfg):
        self.nodes = tuple(dfg.nodes)
        self.edges = dfg.edge_pairs()
        self.needs = {uid: software_needs(dfg.op(uid)) for uid in self.nodes}
        self.ise_geometry = {}
        self._outputs = frozenset(dfg.output_nodes)

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
    """

    __slots__ = ("_succ", "_pred", "topo_order")

    def __init__(self, succ, pred):
        self._succ = succ
        self._pred = pred
        self.topo_order = _kahn(self)

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

    def __iter__(self):
        return iter(self._succ)

    def __len__(self):
        return len(self._succ)


def _kahn(graph):
    """Kahn topological order of ``graph``, or ``None`` on a cycle."""
    indegree = {node: graph.in_degree(node) for node in graph}
    ready = [node for node, degree in indegree.items() if not degree]
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        for succ in graph.successors(node):
            indegree[succ] -= 1
            if not indegree[succ]:
                ready.append(succ)
    return order if len(order) == len(indegree) else None


def topological_order(graph):
    """One topological order of a :class:`UnitGraph` or an acyclic
    :class:`networkx.DiGraph`; ``None`` when the graph has a cycle."""
    if isinstance(graph, UnitGraph):
        return graph.topo_order
    return _kahn(graph)


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
    needs_of = skeleton.needs
    for node in skeleton.nodes:
        if node in unit_of:
            continue
        latency = 1
        if software_cycles is not None:
            latency = software_cycles.get(node, 1)
        units[node] = SchedUnit(node, latency, needs_of[node], (node,))
        unit_of[node] = node
    succ = {uid: {} for uid in units}
    pred = {uid: {} for uid in units}
    for src, dst in skeleton.edges:
        u, v = unit_of[src], unit_of[dst]
        if u != v:
            succ[u][v] = None
            pred[v][u] = None
    graph = UnitGraph({uid: tuple(s) for uid, s in succ.items()},
                      {uid: tuple(p) for uid, p in pred.items()})
    if graph.topo_order is None:
        raise SchedulingError("contraction produced a cycle "
                              "(non-convex ISE group)")
    return graph, units
