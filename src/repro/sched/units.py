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
cached on it (dropped on mutation, never pickled).  Scoring trials
mostly add one group to a prefix of groups fixed earlier, so the
skeleton also keeps a few :class:`OpenContraction` prefixes: a trial
extends its prefix by the one new group, re-contracting only the units
next to it, instead of contracting the whole block again.
"""

from bisect import bisect_left, insort

from ..errors import SchedulingError
from ..graph.analysis import io_counts
from ..hwlib.asfu import subgraph_area, subgraph_delay_ns
from ..isa.opcodes import OpCategory
from .resources import Needs

#: Entries one DFG's ISE-geometry memo holds before it is cleared.
ISE_MEMO_CAP = 4096

#: Open prefix contractions one DFG's memo holds before it is cleared.
OPEN_MEMO_CAP = 8


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


def _group_key(members, option_of):
    """A group's members in iteration order and their options.

    The ISE-geometry and open-contraction memos key groups on this: an
    ISE's area is a float sum in the members' iteration order, so only
    an identically ordered group may reuse a stored unit.
    """
    ordered = tuple(members)
    return ordered, tuple(option_of[uid] for uid in ordered)


def _geometry(memo, dfg, members, option_of, technology):
    """``(latency, |IN|, |OUT|, area)`` of one ISE group, memoised in
    ``memo`` (cleared once it holds :data:`ISE_MEMO_CAP` entries)."""
    key = (*_group_key(members, option_of), technology)
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


_CYCLE = "contraction produced a cycle (non-convex ISE group)"


class BlockSkeleton:
    """The contraction-invariant scheduling view of one DFG.

    ``nodes`` (sorted uids) and ``needs`` (uid → software
    :class:`Needs`) never change while the DFG does not.
    ``succ``/``pred`` are the software-only adjacency (uid → neighbour
    tuple in the order of the DFG's edge pairs), and the software units
    and their "children" rank keys are likewise built once.
    ``ise_geometry`` memoises ``(latency, |IN|, |OUT|, area)`` of ISE
    groups, keyed on the members and their options in the members'
    iteration order plus the technology.  ``open_memo`` keeps up to
    :data:`OPEN_MEMO_CAP` :class:`OpenContraction` prefixes, keyed on
    the same per-group keys in group order, the technology and the
    identity of the software-latency map (each entry holds its map, so
    the identity stays unique while the entry lives);
    ``prefix_hits``/``prefix_misses`` tally its lookups.  Both memos
    are cleared when full and filled with whole values, so threads
    sharing a skeleton at worst build an entry twice.
    """

    __slots__ = ("nodes", "needs", "ise_geometry", "open_memo",
                 "prefix_hits", "prefix_misses", "_outputs", "succ", "pred",
                 "_out_edges", "_in_edges", "_rank_entries", "_graph",
                 "_latencies", "_units")

    def __init__(self, dfg):
        self.nodes = nodes = tuple(dfg.nodes)
        self.needs = {uid: software_needs(dfg.op(uid)) for uid in nodes}
        self.ise_geometry = {}
        self.open_memo = {}
        self.prefix_hits = self.prefix_misses = 0
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

    def open_contraction(self, dfg, groups, technology,
                         software_cycles=None):
        """The :class:`OpenContraction` of ``groups`` (memoised).

        ``groups`` is a sequence of ``(members, option_of)`` pairs, as
        :func:`contract_dfg` takes them.  A miss opens the groups but
        the last from the memo in turn and extends that by the last
        group, so a chain of prefixes costs one extension per group.
        With ``technology=None`` the contraction keeps structure only:
        enough to test more groups for overlap and cycles.
        """
        keys = tuple(_group_key(frozenset(members), option_of)
                     for members, option_of in groups)
        return self._open(dfg, groups, keys, technology, software_cycles)

    def _open(self, dfg, groups, keys, technology, software_cycles):
        memo = self.open_memo
        key = (keys, technology, id(software_cycles))
        found = memo.get(key)
        if found is not None:
            self.prefix_hits += 1
            return found
        self.prefix_misses += 1
        if keys:
            members, option_of = groups[-1]
            found = self._open(dfg, groups[:-1], keys[:-1], technology,
                               software_cycles).extend(dfg, members,
                                                       option_of)
        else:
            units = None
            if technology is not None:
                units = self.software_units(software_cycles)
            found = OpenContraction(
                self._out_edges, self._in_edges, self.ise_geometry,
                technology, software_cycles, {}, (), self.succ, self.pred,
                units, self._rank_entries, graph=self.bare_graph())
        if len(memo) >= OPEN_MEMO_CAP:
            memo.clear()
        return memo.setdefault(key, found)


def _renamed(neighbours, members, uid):
    """``neighbours`` with every member of a new ISE named ``uid``."""
    return tuple(dict.fromkeys(
        [uid if node in members else node for node in neighbours]))


class OpenContraction:
    """ISE groups of one DFG contracted into units, open for one more.

    ``unit_of`` maps every ISE member to its unit uid; ``succ``/``pred``
    (uid → neighbour tuple) and ``units`` (uid → :class:`SchedUnit`)
    keep :func:`contract_dfg`'s insertion order, ISE units ``ise0``,
    ``ise1``, ... first and then software units in node order, and
    ``entries`` holds the sorted ``(-children, str(uid), uid)`` rank
    keys of every unit.  Without a technology ``units`` is ``None``:
    the structure alone, no ISE geometry.  A contraction is never mutated:
    :meth:`extend` copies what it changes, so a prefix is shared by
    every trial that extends it.  ``software_cycles`` is held so that
    its identity, part of the memo key, stays unique.  Only the block's
    edge tables and geometry memo are referenced, never the skeleton
    itself, so a skeleton and its memoised prefixes form no reference
    cycle.
    """

    __slots__ = ("_out_edges", "_in_edges", "_geometry", "technology",
                 "software_cycles", "unit_of", "ise_uids", "succ", "pred",
                 "units", "entries", "_graph", "_position")

    def __init__(self, out_edges, in_edges, geometry, technology,
                 software_cycles, unit_of, ise_uids, succ, pred, units,
                 entries, graph=None):
        self._out_edges = out_edges
        self._in_edges = in_edges
        self._geometry = geometry
        self.technology = technology
        self.software_cycles = software_cycles
        self.unit_of = unit_of
        self.ise_uids = ise_uids
        self.succ = succ
        self.pred = pred
        self.units = units
        self.entries = entries
        self._graph = graph
        self._position = None

    def graph(self):
        """The :class:`UnitGraph` of this contraction."""
        graph = self._graph
        if graph is None:
            graph = self._graph = UnitGraph(
                self.succ, self.pred, [uid for __, __, uid in self.entries],
                acyclic=True)
        return graph

    def extend(self, dfg, members, option_of):
        """This contraction plus ``members`` as the next ISE unit.

        Only the new unit's neighbour tuples are built (from its
        members' edges, in edge order) and only the units next to it are
        renamed; everything else is shared or copied.  Raises
        :class:`~repro.errors.SchedulingError` with
        :func:`contract_dfg`'s texts when the group overlaps an ISE
        already contracted or is not convex in this contraction.
        """
        members = frozenset(members)
        unit_of = self.unit_of
        taken = members.intersection(unit_of)
        if taken:
            raise _overlap(taken)
        out = []
        inc = []
        out_edges = self._out_edges
        in_edges = self._in_edges
        for member in members:
            for edge in out_edges[member]:
                if edge[1] not in members:
                    out.append(edge)
            for edge in in_edges[member]:
                if edge[1] not in members:
                    inc.append(edge)
        out.sort()
        inc.sort()
        get = unit_of.get
        new_succ = tuple(dict.fromkeys([get(node, node) for __, node in out]))
        new_pred = tuple(dict.fromkeys([get(node, node) for __, node in inc]))
        if new_succ and new_pred and self._reenters(new_succ, new_pred):
            raise SchedulingError(_CYCLE)
        uid = "ise{}".format(len(self.ise_uids))
        # ISE units first, then the prefix's software units minus the
        # new members: contract_dfg's insertion order.
        old_succ = self.succ
        old_pred = self.pred
        prefix = self.ise_uids
        succ = {ise: old_succ[ise] for ise in prefix}
        pred = {ise: old_pred[ise] for ise in prefix}
        succ[uid] = new_succ
        pred[uid] = new_pred
        succ.update(old_succ)
        pred.update(old_pred)
        units = self._units_with(dfg, uid, members, option_of)
        entries = list(self.entries)
        for member in members:
            del succ[member]
            del pred[member]
            del entries[bisect_left(
                entries, (-len(old_succ[member]), str(member), member))]
        for node in new_pred:
            renamed = succ[node] = _renamed(old_succ[node], members, uid)
            if len(renamed) != len(old_succ[node]):
                name = str(node)
                del entries[bisect_left(
                    entries, (-len(old_succ[node]), name, node))]
                insort(entries, (-len(renamed), name, node))
        for node in new_succ:
            pred[node] = _renamed(old_pred[node], members, uid)
        insort(entries, (-len(new_succ), uid, uid))
        grown = dict(unit_of)
        grown.update(dict.fromkeys(members, uid))
        return OpenContraction(
            out_edges, in_edges, self._geometry, self.technology,
            self.software_cycles, grown, prefix + (uid,), succ, pred, units,
            entries)

    def _units_with(self, dfg, uid, members, option_of):
        """:attr:`units` plus ``members`` as ISE unit ``uid``, or
        ``None`` when this contraction has no technology."""
        old_units = self.units
        if old_units is None:
            return None
        latency, n_in, n_out, area = _geometry(
            self._geometry, dfg, members, option_of, self.technology)
        units = {ise: old_units[ise] for ise in self.ise_uids}
        units[uid] = SchedUnit(
            uid, latency, Needs(reads=n_in, writes=n_out, fu_kind="asfu"),
            members, is_ise=True, area=area)
        units.update(old_units)
        for member in members:
            del units[member]
        return units

    def _reenters(self, succs, preds):
        """True when a path leaves a new group through ``succs`` and
        comes back through ``preds`` — contracting it closes a cycle.

        This contraction is acyclic, so only units placed before the
        last predecessor in one of its topological orders can lead back.
        """
        position = self._position
        if position is None:
            order = self.graph().topo_order
            if order is None:
                raise SchedulingError(_CYCLE)
            position = self._position = {
                uid: index for index, uid in enumerate(order)}
        bound = max(position[node] for node in preds)
        preds = set(preds)
        stack = [node for node in succs if position[node] <= bound]
        seen = set(stack)
        succ = self.succ
        while stack:
            node = stack.pop()
            if node in preds:
                return True
            for nxt in succ[node]:
                if nxt not in seen and position[nxt] <= bound:
                    seen.add(nxt)
                    stack.append(nxt)
        return False


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


#: ``UnitGraph._order`` before the Kahn order is built.
_UNBUILT = object()


class UnitGraph:
    """Read-only DAG over unit uids, as built by :func:`contract_dfg`.

    Successor and predecessor tuples per unit, in the order a
    :class:`networkx.DiGraph` built from the same edges would report
    them.  Exposes the DiGraph subset the scheduler, the SP functions
    and the schedule renderers use.  ``topo_order`` is one Kahn order of
    the units, or ``None`` when the graph has a cycle; it is built on
    first use, and contractions pass ``acyclic=True`` because they
    prove it without one.  ``children_ranked`` lists the units by the
    list scheduler's default key, ``(-children, str(uid))``.
    """

    __slots__ = ("_succ", "_pred", "_ranked", "_order", "_acyclic")

    def __init__(self, succ, pred, ranked=None, acyclic=False):
        self._succ = succ
        self._pred = pred
        self._ranked = ranked
        self._order = _UNBUILT
        self._acyclic = acyclic

    @property
    def topo_order(self):
        """One Kahn order of the units; ``None`` on a cycle."""
        order = self._order
        if order is _UNBUILT:
            order = self._order = _kahn(self._succ, self._pred)
        return order

    def is_acyclic(self):
        """True when the graph has no cycle."""
        return self._acyclic or self.topo_order is not None

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

    The groups but the last are opened from the skeleton's prefix memo
    (:meth:`BlockSkeleton.open_contraction`) and extended by the last
    one, so trials sharing a prefix contract only their own group.

    Returns
    -------
    (graph, units):
        ``graph`` — a :class:`UnitGraph` over unit uids; ``units`` —
        dict uid → :class:`SchedUnit`.  ISE unit uids are strings
        ``"ise<N>"``; software units keep their integer uids.
    """
    skeleton = block_skeleton(dfg)
    groups = list(ise_groups)
    if not groups:
        return (skeleton.bare_graph(),
                dict(skeleton.software_units(software_cycles)))
    members, option_of = groups[-1]
    try:
        contraction = skeleton.open_contraction(
            dfg, groups[:-1], technology, software_cycles).extend(
                dfg, members, option_of)
    except SchedulingError:
        # A prefix fails on its first bad group; a whole contraction
        # reports any overlap before a cycle.
        _check_disjoint(groups)
        raise
    return contraction.graph(), contraction.units


def _check_disjoint(groups):
    """Raise the overlap error of the first group sharing a node with an
    earlier one."""
    seen = set()
    for members, __ in groups:
        taken = seen.intersection(members)
        if taken:
            raise _overlap(taken)
        seen.update(members)


def _overlap(taken):
    return SchedulingError(
        "ISE groups overlap on nodes {}".format(sorted(taken)))
