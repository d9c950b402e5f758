"""One ACO iteration's incremental schedule (Operation-Scheduling).

Implements Figs. 4.3.3/4.3.4: as the ant draws (operation, option)
pairs, operations are placed into time slots under issue-width,
register-port and function-unit constraints.  Operations that chose a
hardware option try to *pack* into an ISE cluster started by one of
their parents in the same time slot (combinational chaining inside the
ASFU); failing that they open a new cluster at the earliest feasible
slot.  Clusters grow as members join — their reservation (register
ports, critical-path cycles) is revised in place.
"""

from functools import lru_cache

from ..errors import ExplorationError, SchedulingError
from ..graph.analysis import SubgraphIOTracker
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


class Cluster:
    """An ISE under construction within one iteration's schedule.

    Geometry (the §4.2 ``IN``/``OUT`` value sets and the combinational
    critical path) is cached in incremental trackers and revised as
    members join, instead of being rebuilt from the member set on every
    join attempt.  ``min_ext_start`` caches the earliest start cycle of
    any already-placed external consumer of a member, so growing the
    critical path checks one number instead of walking every member's
    successors.
    """

    __slots__ = ("cid", "members", "start", "option_of", "delay_ns",
                 "cycles", "needs", "io", "timing", "min_ext_start")

    def __init__(self, cid, start):
        self.cid = cid
        self.members = set()
        self.start = start
        self.option_of = {}
        self.delay_ns = 0.0
        self.cycles = 1
        self.needs = None
        self.io = None
        self.timing = None
        self.min_ext_start = _NO_CONSUMER

    def __repr__(self):
        return "Cluster({} @C{}, {} ops, {} cyc)".format(
            self.cid, self.start, len(self.members), self.cycles)


class IterationSchedule:
    """Incremental schedule for one solution-construction pass."""

    def __init__(self, dfg, machine, technology, constraints):
        self.dfg = dfg
        self.machine = machine
        self.technology = technology
        self.constraints = constraints
        self.table = ReservationTable(machine)
        self.start = {}
        self.chosen = {}
        self.cluster_of = {}
        self.clusters = []
        self.order = {}
        self._next_order = 0
        self._next_cluster = 0
        # Incremental readiness/makespan bookkeeping, maintained at
        # _commit time so placements never rescan their predecessors:
        # software finish cycles are immutable once committed and fold
        # into scalars; cluster finishes can still grow as members
        # join, so a node keeps references to its placed predecessor
        # clusters and reads their current finish on demand.
        self._ready_sw = {}          # uid -> max finish of sw-placed preds
        self._pred_clusters = {}     # uid -> [distinct placed pred clusters]
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
        cluster = self.cluster_of.get(uid)
        if cluster is not None:
            return cluster.start + cluster.cycles
        option = self.chosen[uid]
        return self.start[uid] + option.cycles

    def data_ready(self, uid):
        """Earliest start cycle permitted by already-placed parents."""
        ready = self._ready_sw.get(uid, 0)
        clusters = self._pred_clusters.get(uid)
        if clusters:
            for cluster in clusters:
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
        needs = self.software_needs(uid, option)
        cycle = self.table.first_fit(needs, not_before=self.data_ready(uid))
        self.place_software(uid, option, needs, cycle)

    def software_needs(self, uid, option):
        """Resource demand of placing ``uid`` with a software option.

        Split out of :meth:`schedule_software` so the batched runner
        can compute it once per slot instead of once per placement.
        """
        operation = self.dfg.op(uid)
        return Needs(reads=len(operation.sources),
                     writes=len(operation.dests),
                     fu_kind=option.fu_kind)

    def place_software(self, uid, option, needs, cycle):
        """Commit a software placement whose first-fit cycle is known."""
        self.table.place(cycle, needs)
        self._commit(uid, option, cycle)

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
                self._commit(uid, option, cluster.start)
                return True
            self.stat_join_rejects += 1
        return False

    def _parent_clusters(self, uid):
        """Clusters containing a parent, latest start first."""
        seen = []
        for pred in self.dfg.predecessors(uid):
            cluster = self.cluster_of.get(pred)
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
        for pred in self.dfg.predecessors(uid):
            if pred in cluster.members:
                continue
            if self.finish(pred) > cluster.start:
                return False
        io_delta = cluster.io.preview_add(uid,
                                          n_in_limit=self.constraints.n_in)
        if io_delta is None:
            return False
        n_in, n_out = io_delta.n_in, io_delta.n_out
        if n_out > self.constraints.n_out:
            return False
        arrival = None
        if io_delta.succ_members:
            # A member already consumes uid — not a sink addition, so
            # the cached arrival times cannot be extended in place.
            option_map = dict(cluster.option_of)
            option_map[uid] = option
            probe = IncrementalDelay(self.dfg)
            probe.rebuild(cluster.members | {uid}, option_map.__getitem__)
            new_delay = probe.delay_ns
        else:
            arrival, new_delay = cluster.timing.preview_add(
                uid, option.delay_ns)
        new_cycles = self.technology.cycles_for_delay(new_delay)
        limit = self.constraints.max_ise_cycles
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
        cluster.io.commit(io_delta)
        cluster.members.add(uid)
        cluster.option_of[uid] = option
        if arrival is not None:
            cluster.timing.commit(uid, arrival, new_delay)
        else:
            cluster.timing.rebuild(cluster.members,
                                   cluster.option_of.__getitem__)
        cluster.needs = new_needs
        cluster.delay_ns = new_delay
        cluster.cycles = new_cycles
        self.cluster_of[uid] = cluster
        return True

    def _open_cluster(self, uid, option):
        io = SubgraphIOTracker(self.dfg)
        io.add(uid)
        needs = asfu_needs(io.n_in, io.n_out)
        cycle = self.table.first_fit(needs, not_before=self.data_ready(uid))
        self.place_cluster(uid, option, io, needs, cycle)

    def place_cluster(self, uid, option, io, needs, cycle):
        """Open a singleton cluster at a known first-fit cycle."""
        self.stat_cluster_opens += 1
        self.table.place(cycle, needs)
        cluster = Cluster(self._next_cluster, cycle)
        self._next_cluster += 1
        cluster.members = {uid}
        cluster.option_of = {uid: option}
        cluster.io = io
        cluster.timing = IncrementalDelay(self.dfg)
        cluster.timing.commit(uid, option.delay_ns, option.delay_ns)
        cluster.needs = needs
        cluster.delay_ns = option.delay_ns
        cluster.cycles = self.technology.cycles_for_delay(option.delay_ns)
        self.clusters.append(cluster)
        self.cluster_of[uid] = cluster
        self._commit(uid, option, cycle)

    def _commit(self, uid, option, cycle):
        if uid in self.start:
            raise ExplorationError("operation {} scheduled twice".format(uid))
        self.start[uid] = cycle
        self.chosen[uid] = option
        self.order[uid] = self._next_order
        self._next_order = self._next_order + 1
        dfg = self.dfg
        cluster = self.cluster_of.get(uid)
        if cluster is None:
            # Software finish cycles never change again: fold them into
            # the per-successor readiness scalars and the makespan.
            finish = cycle + option.cycles
            if finish > self._makespan_sw:
                self._makespan_sw = finish
            ready_sw = self._ready_sw
            for succ in dfg.successors(uid):
                if finish > ready_sw.get(succ, 0):
                    ready_sw[succ] = finish
        else:
            # Cluster finishes can still grow; successors track the
            # cluster itself and read its finish when asked.
            pred_clusters = self._pred_clusters
            for succ in dfg.successors(uid):
                clusters = pred_clusters.get(succ)
                if clusters is None:
                    pred_clusters[succ] = [cluster]
                elif cluster not in clusters:
                    clusters.append(cluster)
        # This placement is an external consumer of every *other*
        # cluster a parent sits in: tighten their growth ceilings.
        for pred in dfg.predecessors(uid):
            pred_cluster = self.cluster_of.get(pred)
            if (pred_cluster is not None and pred_cluster is not cluster
                    and cycle < pred_cluster.min_ext_start):
                pred_cluster.min_ext_start = cycle

    # -- realized-assignment views --------------------------------------------

    def ise_groups(self):
        """The clusters as ``(members, option_of)`` pairs (for analysis)."""
        return [(frozenset(c.members), dict(c.option_of))
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
