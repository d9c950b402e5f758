"""One ACO iteration's incremental schedule (Operation-Scheduling).

Implements Figs. 4.3.3/4.3.4: as the ant draws (operation, option)
pairs, operations are placed into time slots under issue-width,
register-port and function-unit constraints.  Operations that chose a
hardware option try to *pack* into an ISE cluster started by one of
their parents in the same time slot (combinational chaining inside the
ASFU); failing that they open a new cluster at the earliest feasible
slot.  Clusters grow as members join — their reservation (register
ports, critical-path cycles) is revised in place.

A cluster is an int bit row over the DFG's node index
(:class:`~repro.graph.tables.DFGTables`).  A join probe recounts the
grown row's §4.2 ``IN`` — and, only when that fits, ``OUT`` — from the
DFG's per-node value tables: a probe is a recount, not an update of
per-value bookkeeping, and a rejected one leaves the cluster untouched.
Placements go through one fused first-fit-and-commit,
:meth:`~repro.sched.resources.ReservationTable.reserve`.
"""

from functools import lru_cache

from ..errors import ExplorationError, SchedulingError
from ..hwlib.asfu import IncrementalDelay
from ..sched.resources import Needs, ReservationTable

#: Sentinel "no placed external consumer yet" — larger than any cycle.
_NO_CONSUMER = float("inf")


@lru_cache(maxsize=None)
def asfu_needs(n_in, n_out):
    """The shared :class:`Needs` of an ASFU reading ``n_in`` and
    writing ``n_out`` register values (treat it as read-only).

    Every cluster open and join probe needs one, and only a few port
    counts ever occur, so each is built once.
    """
    return Needs(reads=n_in, writes=n_out, fu_kind="asfu")


@lru_cache(maxsize=None)
def _software_needs(reads, writes, fu_kind):
    """The shared :class:`Needs` of a software operation (read-only)."""
    return Needs(reads=reads, writes=writes, fu_kind=fu_kind)


class Cluster(IncrementalDelay):
    """An ISE under construction within one iteration's schedule.

    ``option_of`` maps each member to its hardware option; ``row`` is
    the member set as an int bit row over the DFG's node index and
    ``idxs`` the members' indices in join order, over which a join probe
    recounts ``IN``/``OUT``.  The cluster is its own
    :class:`~repro.hwlib.asfu.IncrementalDelay`: ``longest`` and
    ``delay_ns`` hold the combinational critical path, revised as
    members join.  ``min_ext_start`` caches the earliest start cycle of
    any already-placed external consumer of a member, so growing the
    critical path checks one number instead of walking every member's
    successors.
    """

    __slots__ = ("cid", "start", "option_of", "cycles", "needs", "row",
                 "idxs", "min_ext_start")

    def __init__(self, dfg, cid, start, uid, index, option, needs, cycles):
        """The singleton cluster of ``uid`` (node ``index``) opened at
        cycle ``start``."""
        self.graph = dfg
        self.longest = {uid: option.delay_ns}
        self.delay_ns = option.delay_ns
        self.cid = cid
        self.start = start
        self.option_of = {uid: option}
        self.cycles = cycles
        self.needs = needs
        self.row = 1 << index
        self.idxs = (index,)
        self.min_ext_start = _NO_CONSUMER

    @property
    def members(self):
        """The member uids (a live view of ``option_of``'s keys)."""
        return self.option_of.keys()

    def __repr__(self):
        return "Cluster({} @C{}, {} ops, {} cyc)".format(
            self.cid, self.start, len(self.members), self.cycles)


class IterationSchedule:
    """Incremental schedule for one solution-construction pass."""

    def __init__(self, dfg, machine, technology, constraints):
        self.dfg = dfg
        tables = self._tables = dfg.tables()
        self._preds = tables.preds
        self.machine = machine
        self.technology = technology
        self.constraints = constraints
        self.table = ReservationTable(machine)
        self.start = {}
        self.chosen = {}
        self.cluster_of = {}
        self.clusters = []
        self.order = {}
        # Software finish cycles never change once committed, so they
        # are kept per operation and folded into the makespan; cluster
        # finishes can still grow as members join and are read off the
        # cluster when asked.
        self._finish_sw = {}         # uid -> finish of a sw placement
        self._makespan_sw = 0
        # Cheap always-on packing tallies (Fig. 4.3.4), aggregated into
        # the observability counters at round end.
        self.stat_cluster_opens = 0
        self.stat_cluster_joins = 0
        self.stat_join_rejects = 0

    # -- queries ------------------------------------------------------------

    def is_scheduled(self, uid):
        """True once ``uid`` has been placed."""
        return uid in self.start

    def finish(self, uid):
        """First cycle after ``uid`` completes (cluster-aware)."""
        finish = self._finish_sw.get(uid)
        if finish is None:
            cluster = self.cluster_of[uid]
            finish = cluster.start + cluster.cycles
        return finish

    def data_ready(self, uid):
        """Earliest start cycle permitted by already-placed parents."""
        ready = 0
        finish_sw = self._finish_sw
        cluster_of = self.cluster_of
        for pred in self._preds[uid]:
            finish = finish_sw.get(pred)
            if finish is None:
                cluster = cluster_of.get(pred)
                if cluster is None:
                    continue              # not placed yet
                finish = cluster.start + cluster.cycles
            if finish > ready:
                ready = finish
        return ready

    @property
    def makespan(self):
        """Cycles until the last placed operation finishes."""
        span = self._makespan_sw
        for cluster in self.clusters:
            finish = cluster.start + cluster.cycles
            if finish > span:
                span = finish
        return span

    def chose_hardware(self, uid):
        """True when ``uid`` sits in an ISE cluster."""
        return uid in self.cluster_of

    def hardware_chosen_set(self):
        """All uids currently in clusters."""
        return set(self.cluster_of)

    # -- software placement (Fig. 4.3.3) ---------------------------------------

    def schedule_software(self, uid, option):
        """Place ``uid`` with a software option (Fig. 4.3.3)."""
        self._place_software(uid, option, self.software_needs(uid, option))

    def software_needs(self, uid, option):
        """Resource demand of placing ``uid`` with a software option.

        Split out of :meth:`schedule_software` so the batched runner
        can compute it once per slot instead of once per placement.
        Equal demands share one :class:`Needs`.
        """
        operation = self.dfg.op(uid)
        return _software_needs(len(operation.sources),
                               len(operation.dests), option.fu_kind)

    def _place_software(self, uid, option, needs):
        cycle = self.table.reserve(needs, self.data_ready(uid))
        self._commit(uid, option, cycle, None)

    # -- hardware placement (Fig. 4.3.4) ----------------------------------------

    def schedule_hardware(self, uid, option):
        """Pack into a parent's cluster if possible, else open a new one."""
        if not self.join_parent(uid, option):
            self._open_cluster(uid, option)

    def join_parent(self, uid, option):
        """Pack ``uid`` into the first parent cluster that accepts it;
        False (nothing placed) when none does."""
        for cluster in self._parent_clusters(uid):
            if self._try_join(cluster, uid, option):
                self.stat_cluster_joins += 1
                self._commit(uid, option, cluster.start, cluster)
                return True
            self.stat_join_rejects += 1
        return False

    def _parent_clusters(self, uid):
        """Clusters containing a parent, latest start first."""
        seen = []
        cluster_of = self.cluster_of
        for pred in self._preds[uid]:
            cluster = cluster_of.get(pred)
            if cluster is not None and cluster not in seen:
                seen.append(cluster)
        if len(seen) > 1:
            seen.sort(key=lambda c: -c.start)
        return seen

    def _try_join(self, cluster, uid, option):
        """Fuse ``uid`` into ``cluster`` when legal and resource-feasible.

        Fusion requires every parent of ``uid`` to either be a member of
        the cluster or to have finished by the cluster's start slot, and
        the grown cluster must respect the register-port constraints of
        §4.2 as well as the cycle's remaining budget.
        """
        members = cluster.option_of
        for pred in self._preds[uid]:
            if pred in members:
                continue
            if self.finish(pred) > cluster.start:
                return False
        tables = self._tables
        index = tables.index[uid]
        row = cluster.row | (1 << index)
        idxs = cluster.idxs + (index,)
        constraints = self.constraints
        n_in = tables.in_count(row, idxs)
        if n_in > constraints.n_in:
            return False
        n_out = tables.out_count(row, idxs)
        if n_out > constraints.n_out:
            return False
        probe = None
        if tables.dsucc_bits[index] & cluster.row:
            # A member already consumes uid — not a sink addition, so
            # the cached arrival times cannot be extended in place.
            option_map = dict(members)
            option_map[uid] = option
            probe = IncrementalDelay(self.dfg)
            probe.rebuild(option_map, option_map.__getitem__)
            new_delay = probe.delay_ns
        else:
            arrival, new_delay = cluster.preview_add(uid, option.delay_ns)
        new_cycles = self.technology.cycles_for_delay(new_delay)
        limit = constraints.max_ise_cycles
        if limit is not None and new_cycles > limit:
            return False              # pipestage timing constraint
        # Growing the critical path must not overrun an already-placed
        # consumer of any current member — one compare against the
        # cluster's cached earliest external-consumer start.
        new_finish = cluster.start + new_cycles
        if new_finish > cluster.min_ext_start:
            return False
        new_needs = asfu_needs(n_in, n_out)
        if not self.table.try_resize(cluster.start, cluster.needs,
                                     new_needs):
            return False
        cluster.row = row
        cluster.idxs = idxs
        members[uid] = option
        if probe is None:
            cluster.commit(uid, arrival, new_delay)
        else:
            cluster.longest = probe.longest
            cluster.delay_ns = new_delay
        cluster.needs = new_needs
        cluster.cycles = new_cycles
        self.cluster_of[uid] = cluster
        return True

    def _open_cluster(self, uid, option):
        """Open a singleton cluster at the first cycle its ASFU fits."""
        tables = self._tables
        index = tables.index[uid]
        needs = asfu_needs(*tables.singleton_io[index])
        cycle = self.table.reserve(needs, self.data_ready(uid))
        self.stat_cluster_opens += 1
        cluster = Cluster(self.dfg, len(self.clusters), cycle, uid, index,
                          option, needs,
                          self.technology.cycles_for_delay(option.delay_ns))
        self.clusters.append(cluster)
        self.cluster_of[uid] = cluster
        self._commit(uid, option, cycle, cluster)

    def _commit(self, uid, option, cycle, cluster):
        """Record ``uid`` at ``cycle``; ``cluster`` is the one it now
        sits in, or ``None`` for a software placement."""
        start = self.start
        if uid in start:
            raise ExplorationError("operation {} scheduled twice".format(uid))
        start[uid] = cycle
        self.chosen[uid] = option
        order = self.order
        order[uid] = len(order)
        if cluster is None:
            finish = self._finish_sw[uid] = cycle + option.cycles
            if finish > self._makespan_sw:
                self._makespan_sw = finish
        # This placement is an external consumer of every *other*
        # cluster a parent sits in: tighten their growth ceilings.
        cluster_of = self.cluster_of
        if cluster_of:
            for pred in self._preds[uid]:
                pred_cluster = cluster_of.get(pred)
                if (pred_cluster is not None and pred_cluster is not cluster
                        and cycle < pred_cluster.min_ext_start):
                    pred_cluster.min_ext_start = cycle

    # -- realized-assignment views --------------------------------------------

    def ise_groups(self):
        """The clusters as ``(members, option_of)`` pairs (for analysis)."""
        return [(frozenset(c.option_of), dict(c.option_of))
                for c in self.clusters]

    def software_cycles(self):
        """uid → latency of software-scheduled operations."""
        return {uid: option.cycles
                for uid, option in self.chosen.items()
                if uid not in self.cluster_of}

    def verify(self):
        """Sanity-check dependences of the (possibly partial) schedule."""
        start = self.start
        chosen = self.chosen
        cluster_of = self.cluster_of
        for src, dst in self.dfg.edge_pairs():
            dst_start = start.get(dst)
            if dst_start is None or src not in start:
                continue
            src_cluster = cluster_of.get(src)
            if src_cluster is not None:
                if src_cluster is cluster_of.get(dst):
                    continue
                src_finish = src_cluster.start + src_cluster.cycles
            else:
                src_finish = start[src] + chosen[src].cycles
            if dst_start < src_finish:
                raise SchedulingError(
                    "iteration schedule violates edge {}->{}".format(src, dst))
        return self
