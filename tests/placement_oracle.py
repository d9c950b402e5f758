"""Frozen reference for Operation-Scheduling's placement path.

The placement code the iteration scheduler ran before clusters moved
onto bit rows over per-DFG value tables and the reservation table fused
its first-fit probe with the commit: ``IterationSchedule`` (with
``Cluster``) placing through ``first_fit`` then ``place``, clusters
tracking ``IN``/``OUT`` with a per-value contribution-count
``SubgraphIOTracker``, and the dense ``ReservationTable`` with its
``first_fit``/``_scan`` pair.  ``batch_oracle`` builds its schedules
from these classes, so the parity tests hold the production placement
to an implementation that shares none of its code.  Keep this file
frozen; it is an oracle, not a second implementation to maintain.
"""

from functools import lru_cache

import numpy as np

from repro.errors import ExplorationError, SchedulingError
from repro.hwlib.asfu import IncrementalDelay
from repro.sched.resources import Needs

#: Initial column capacity of the dense matrix; grows by doubling.
_INITIAL_CYCLES = 64

#: Rows 0-2 of the matrix; FU kinds follow.
_ISSUE, _READS, _WRITES = 0, 1, 2


class ReservationTable:
    """Dense per-cycle usage counters against a machine's budgets."""

    __slots__ = ("machine", "_use", "_views", "_size", "_hi",
                 "_issue_width", "_read_ports", "_write_ports",
                 "_fu_row", "_fu_avail", "stat_first_fit_scans",
                 "stat_scan_cycles")

    def __init__(self, machine):
        self.machine = machine
        self._issue_width = machine.issue_width
        rf = machine.register_file
        self._read_ports = rf.read_ports
        self._write_ports = rf.write_ports
        kinds = sorted(machine.fu_counts)
        self._fu_row = {kind: 3 + index for index, kind in enumerate(kinds)}
        self._fu_avail = dict(machine.fu_counts)
        self._size = _INITIAL_CYCLES
        self._use = np.zeros((3 + len(kinds), self._size), dtype=np.int32)
        self._views = [memoryview(row) for row in self._use]
        self._hi = 0                  # cycles >= _hi are known-empty
        #: Always-on kernel tallies, aggregated into the ``sched.*``
        #: observability counters at round end.
        self.stat_first_fit_scans = 0
        self.stat_scan_cycles = 0

    # -- storage ------------------------------------------------------------

    def _grow(self, cycles):
        """Ensure at least ``cycles`` columns exist (geometric growth)."""
        size = self._size
        while size < cycles:
            size *= 2
        grown = np.zeros((self._use.shape[0], size), dtype=np.int32)
        grown[:, :self._size] = self._use
        self._use = grown
        self._views = [memoryview(row) for row in grown]
        self._size = size

    # -- queries ------------------------------------------------------------

    def usage(self, cycle):
        """Current ``(issue, reads, writes, {fu: used})`` at a cycle.

        Only function-unit kinds with a non-zero count appear in the
        dict — released capacity never leaves stale zero entries.
        """
        if cycle < 0 or cycle >= self._hi:
            return (0, 0, 0, {})
        views = self._views
        fus = {}
        for kind, row in self._fu_row.items():
            used = views[row][cycle]
            if used:
                fus[kind] = used
        return (views[_ISSUE][cycle], views[_READS][cycle],
                views[_WRITES][cycle], fus)

    def fits(self, cycle, needs):
        """True when ``needs`` fits in the remaining budget of ``cycle``."""
        if cycle >= self._hi:
            # Untouched region: feasibility is the pure budget check.
            return (needs.issue <= self._issue_width
                    and needs.reads <= self._read_ports
                    and needs.writes <= self._write_ports
                    and needs.fu_count <= self._fu_avail.get(needs.fu_kind, 0))
        views = self._views
        if views[_ISSUE][cycle] + needs.issue > self._issue_width:
            return False
        if views[_READS][cycle] + needs.reads > self._read_ports:
            return False
        if views[_WRITES][cycle] + needs.writes > self._write_ports:
            return False
        row = self._fu_row.get(needs.fu_kind)
        if row is None:
            return needs.fu_count <= 0
        if views[row][cycle] + needs.fu_count > self._fu_avail[needs.fu_kind]:
            return False
        return True

    def place(self, cycle, needs):
        """Commit ``needs`` at ``cycle``; raises when it does not fit."""
        if not self.try_place(cycle, needs):
            raise SchedulingError(
                "resources exhausted at cycle {}: {}".format(cycle, needs))

    def try_place(self, cycle, needs):
        """Commit ``needs`` at ``cycle`` if it fits; True when placed.

        The list scheduler's probe-and-commit in one step.
        """
        if cycle < 0:
            raise SchedulingError("cannot place at negative cycle")
        if not self.fits(cycle, needs):
            return False
        if cycle >= self._size:
            self._grow(cycle + 1)
        if cycle >= self._hi:
            self._hi = cycle + 1
        views = self._views
        views[_ISSUE][cycle] += needs.issue
        views[_READS][cycle] += needs.reads
        views[_WRITES][cycle] += needs.writes
        row = self._fu_row.get(needs.fu_kind)
        if row is not None:
            views[row][cycle] += needs.fu_count
        return True

    def release(self, cycle, needs):
        """Undo a previous :meth:`place` (cluster-revision support)."""
        if cycle < 0 or cycle >= self._hi:
            raise SchedulingError("release without matching place")
        views = self._views
        views[_ISSUE][cycle] -= needs.issue
        views[_READS][cycle] -= needs.reads
        views[_WRITES][cycle] -= needs.writes
        row = self._fu_row.get(needs.fu_kind)
        if row is not None:
            views[row][cycle] -= needs.fu_count
        if (views[_ISSUE][cycle] < 0 or views[_READS][cycle] < 0
                or views[_WRITES][cycle] < 0
                or (row is not None and views[row][cycle] < 0)):
            raise SchedulingError("release without matching place")

    def try_resize(self, cycle, old, new):
        """Swap a placed ``old`` reservation at ``cycle`` for ``new``.

        One fit check against the usage without ``old``: True when
        ``new`` fits and has replaced it, False (table unchanged) when
        it does not.  The same effect as :meth:`release` then
        :meth:`fits` then :meth:`place` (or re-placing ``old``), and the
        same :class:`~repro.errors.SchedulingError` when ``old`` was
        never placed there.
        """
        if cycle < 0 or cycle >= self._hi:
            raise SchedulingError("release without matching place")
        views = self._views
        issue = views[_ISSUE][cycle] - old.issue
        reads = views[_READS][cycle] - old.reads
        writes = views[_WRITES][cycle] - old.writes
        old_row = self._fu_row.get(old.fu_kind)
        new_row = self._fu_row.get(new.fu_kind)
        old_fu = 0 if old_row is None else (
            views[old_row][cycle] - old.fu_count)
        if issue < 0 or reads < 0 or writes < 0 or old_fu < 0:
            raise SchedulingError("release without matching place")
        if (issue + new.issue > self._issue_width
                or reads + new.reads > self._read_ports
                or writes + new.writes > self._write_ports):
            return False
        if new_row is None:
            if new.fu_count > 0:
                return False
        else:
            fu = old_fu if new_row == old_row else views[new_row][cycle]
            if fu + new.fu_count > self._fu_avail[new.fu_kind]:
                return False
        views[_ISSUE][cycle] = issue + new.issue
        views[_READS][cycle] = reads + new.reads
        views[_WRITES][cycle] = writes + new.writes
        if old_row is not None:
            views[old_row][cycle] -= old.fu_count
        if new_row is not None:
            views[new_row][cycle] += new.fu_count
        return True

    def first_fit(self, needs, not_before=0, horizon=1 << 20):
        """Earliest cycle ≥ ``not_before`` where ``needs`` fits.

        Demands that can *never* fit (exceeding a machine budget
        outright) raise immediately instead of scanning the horizon.
        The common case — the first candidate cycle fits — is one
        probe; otherwise the rest of the occupied region is walked.
        """
        self.stat_first_fit_scans += 1
        if (needs.issue > self._issue_width
                or needs.reads > self._read_ports
                or needs.writes > self._write_ports
                or needs.fu_count > self._fu_avail.get(needs.fu_kind, 0)):
            raise SchedulingError(
                "no feasible cycle below horizon: {} exceeds the machine "
                "budget".format(needs))
        cycle = max(0, int(not_before))
        if cycle >= horizon:
            raise SchedulingError("no feasible cycle below horizon")
        hi = self._hi
        if cycle >= hi:
            return cycle              # known-empty region
        if self.fits(cycle, needs):
            return cycle
        stop = hi if hi < horizon else horizon
        found = self._scan(cycle + 1, stop, needs)
        if found >= 0:
            return found
        if hi < horizon:
            return hi
        raise SchedulingError("no feasible cycle below horizon")

    def _scan(self, start, stop, needs):
        """Earliest fit over ``[start, stop)``; -1 when every cycle is full.

        A plain walk over the row memoryviews: the occupied region is a
        handful of cycles, too short for array set-up to pay.
        """
        if start >= stop:
            return -1
        self.stat_scan_cycles += stop - start
        views = self._views
        checks = []
        for row, demand, budget in (
                (_ISSUE, needs.issue, self._issue_width),
                (_READS, needs.reads, self._read_ports),
                (_WRITES, needs.writes, self._write_ports),
                (self._fu_row.get(needs.fu_kind), needs.fu_count,
                 self._fu_avail.get(needs.fu_kind, 0))):
            if demand and row is not None:
                checks.append((views[row], budget - demand))
        if not checks:
            return start              # demands nothing: first cycle fits
        for cycle in range(start, stop):
            for view, cap in checks:
                if view[cycle] > cap:
                    break
            else:
                return cycle
        return -1

    # -- pickling (memoryviews do not pickle) -------------------------------

    def __getstate__(self):
        return {
            "machine": self.machine,
            "use": self._use[:, :self._hi].copy(),
            "scans": self.stat_first_fit_scans,
            "scan_cycles": self.stat_scan_cycles,
        }

    def __setstate__(self, state):
        self.__init__(state["machine"])
        used = state["use"]
        if used.shape[1]:
            self._grow(used.shape[1])
            self._use[:, :used.shape[1]] = used
            self._views = [memoryview(row) for row in self._use]
            self._hi = used.shape[1]
        self.stat_first_fit_scans = state["scans"]
        self.stat_scan_cycles = state["scan_cycles"]

    # -- invariants ---------------------------------------------------------

    def verify_nonnegative(self):
        """Debug check: no usage counter anywhere went negative.

        Guards the reservation revisions of cluster growth
        (:meth:`release`, :meth:`try_resize`) against capacity leaks;
        raises
        :class:`~repro.errors.SchedulingError` on violation.
        """
        if self._hi and bool((self._use[:, :self._hi] < 0).any()):
            rows, cycles = np.nonzero(self._use[:, :self._hi] < 0)
            raise SchedulingError(
                "negative reservation at cycle(s) {} — release without "
                "matching place".format(sorted(set(int(c) for c in cycles))))
        return True


class _IODelta:
    """One previewed membership addition of a :class:`SubgraphIOTracker`.

    Carries the would-be ``IN``/``OUT`` sizes plus everything needed to
    commit the addition without recomputing it.
    """

    __slots__ = ("uid", "n_in", "n_out", "delta_in", "delta_out",
                 "escapes", "stops_escaping", "succ_members")

    def __init__(self, uid, n_in, n_out, delta_in, delta_out,
                 escapes, stops_escaping, succ_members):
        self.uid = uid
        self.n_in = n_in
        self.n_out = n_out
        self.delta_in = delta_in
        self.delta_out = delta_out
        self.escapes = escapes
        self.stops_escaping = stops_escaping
        self.succ_members = succ_members


class SubgraphIOTracker:
    """Incremental ``IN(S)``/``OUT(S)`` sizes of a growing member set.

    Mirrors :func:`input_values`/:func:`output_values` exactly, but
    updates in O(degree) per added member instead of rebuilding from the
    whole set: per value name it counts *contributions* — (member,
    crossing edge) pairs and external block inputs for ``IN``, escaping
    producers for ``OUT`` — so names defined by several producers (the
    DFG is not SSA) stay counted while any external source remains.

    :meth:`preview_add` computes the grown sizes without mutating, so a
    caller (cluster fusion in the iteration scheduler) can reject the
    growth and keep the tracker valid; :meth:`commit` applies a
    previously previewed delta.
    """

    __slots__ = ("dfg", "members", "_in_count", "_out_count", "_escaping",
                 "n_in", "n_out")

    def __init__(self, dfg):
        self.dfg = dfg
        self.members = set()
        self._in_count = {}       # value -> #external contributions
        self._out_count = {}      # value -> #escaping producers
        self._escaping = set()
        self.n_in = 0
        self.n_out = 0

    def _escapes(self, uid, members):
        """True when ``uid``'s value must leave ``members`` (§4.2 OUT)."""
        dfg = self.dfg
        if dfg.is_output(uid):
            return True
        return any(succ not in members for succ in dfg.data_successors(uid))

    def _escapes_grown(self, uid, added):
        """:meth:`_escapes` against ``members | {added}`` without building
        the grown set (previews run per fusion probe, mostly rejected)."""
        dfg = self.dfg
        if dfg.is_output(uid):
            return True
        members = self.members
        return any(succ != added and succ not in members
                   for succ in dfg.data_successors(uid))

    def preview_add(self, uid, n_in_limit=None):
        """Sizes of IN/OUT after adding ``uid``, without committing.

        ``n_in_limit`` enables the caller's own reject test to run
        early: when the grown ``IN`` size already exceeds it, the
        (costlier) ``OUT`` half is skipped and ``None`` is returned —
        join probes are mostly rejected, and mostly on ``IN``.
        """
        dfg = self.dfg
        members = self.members
        tables = dfg.tables()
        # IN: edges uid -> member stop crossing; uid's own external
        # inputs and crossing in-edges start counting.
        delta_in = {}
        succ_members = []
        for succ, values in tables.data_out[uid]:
            if succ in members:
                succ_members.append(succ)
                for value in values:
                    delta_in[value] = delta_in.get(value, 0) - 1
        for value in dfg.external_inputs(uid):
            delta_in[value] = delta_in.get(value, 0) + 1
        for pred, values in tables.data_in[uid]:
            if pred not in members:
                for value in values:
                    delta_in[value] = delta_in.get(value, 0) + 1
        n_in = self.n_in
        for value, delta in delta_in.items():
            old = self._in_count.get(value, 0)
            new = old + delta
            if old > 0 and new <= 0:
                n_in -= 1
            elif old <= 0 and new > 0:
                n_in += 1
        if n_in_limit is not None and n_in > n_in_limit:
            return None
        # OUT: uid may escape; member data-predecessors of uid may stop
        # escaping (uid was their last outside consumer).
        delta_out = {}
        escapes = self._escapes_grown(uid, uid)
        if escapes:
            for value in dfg.op(uid).dests:
                delta_out[value] = delta_out.get(value, 0) + 1
        stops_escaping = []
        for pred in dfg.data_predecessors(uid):
            if pred in self._escaping and not self._escapes_grown(pred, uid):
                stops_escaping.append(pred)
                for value in dfg.op(pred).dests:
                    delta_out[value] = delta_out.get(value, 0) - 1
        n_out = self.n_out
        for value, delta in delta_out.items():
            old = self._out_count.get(value, 0)
            new = old + delta
            if old > 0 and new <= 0:
                n_out -= 1
            elif old <= 0 and new > 0:
                n_out += 1
        return _IODelta(uid, n_in, n_out, delta_in, delta_out,
                        escapes, stops_escaping, succ_members)

    def commit(self, delta):
        """Apply a delta produced by :meth:`preview_add`."""
        for value, change in delta.delta_in.items():
            new = self._in_count.get(value, 0) + change
            if new:
                self._in_count[value] = new
            else:
                self._in_count.pop(value, None)
        for value, change in delta.delta_out.items():
            new = self._out_count.get(value, 0) + change
            if new:
                self._out_count[value] = new
            else:
                self._out_count.pop(value, None)
        if delta.escapes:
            self._escaping.add(delta.uid)
        for uid in delta.stops_escaping:
            self._escaping.discard(uid)
        self.members.add(delta.uid)
        self.n_in = delta.n_in
        self.n_out = delta.n_out

    def add(self, uid):
        """Preview-and-commit in one step; returns the applied delta."""
        delta = self.preview_add(uid)
        self.commit(delta)
        return delta

    def clone(self):
        """Independent copy sharing only the (immutable) DFG.

        The batched ant runner opens every singleton cluster from a
        per-operation template tracker: one :meth:`add` walk at set-up,
        then a cheap state copy per actual open instead of re-walking
        the operation's edges for every ant.
        """
        other = SubgraphIOTracker.__new__(SubgraphIOTracker)
        other.dfg = self.dfg
        other.members = set(self.members)
        other._in_count = dict(self._in_count)
        other._out_count = dict(self._out_count)
        other._escaping = set(self._escaping)
        other.n_in = self.n_in
        other.n_out = self.n_out
        return other


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
