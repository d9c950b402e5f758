"""Per-cycle resource reservation table (dense kernel).

Tracks, per cycle: issue slots, register-file read/write ports, and
function units by kind.  Both the exploration-internal incremental
scheduler (Operation-Scheduling) and the final list scheduler consult
and update the same table type; the exploration side additionally needs
to *revise* a placed reservation when a hardware operation joins an
existing ISE cluster, which :meth:`release` + re-:meth:`place` support.

Layout
------
Usage counters live in one dense ``numpy.int32`` matrix with one row
per resource — row 0 issue slots, row 1 RF reads, row 2 RF writes, one
further row per function-unit kind of the machine — and one column per
cycle.  The matrix grows geometrically as later cycles are touched, and
``_hi`` marks the end of the ever-touched prefix: every column at or
beyond ``_hi`` is known-empty, so feasibility there is a pure budget
check.  Scalar probes (:meth:`fits`, :meth:`place`, :meth:`release`)
go through per-row :class:`memoryview`\\ s over the same buffer — as
cheap as list indexing — while :meth:`first_fit` falls back to a
single vectorized boolean-AND scan over the occupied region when the
scalar fast path misses.  Infeasible demands (a :class:`Needs` that
exceeds a machine budget outright) are rejected upfront instead of
scanning the cycle horizon.
"""

import numpy as np

from ..errors import SchedulingError

#: Initial column capacity of the dense matrix; grows by doubling.
_INITIAL_CYCLES = 64

#: Rows 0-2 of the matrix; FU kinds follow.
_ISSUE, _READS, _WRITES = 0, 1, 2


class Needs:
    """Resource demand of one issued instruction in one cycle."""

    __slots__ = ("issue", "reads", "writes", "fu_kind", "fu_count")

    def __init__(self, reads=0, writes=0, fu_kind="alu", fu_count=1, issue=1):
        self.issue = int(issue)
        self.reads = int(reads)
        self.writes = int(writes)
        self.fu_kind = fu_kind
        self.fu_count = int(fu_count)

    def __repr__(self):
        return "Needs(issue={}, r={}, w={}, fu={}x{})".format(
            self.issue, self.reads, self.writes, self.fu_kind, self.fu_count)


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

    def first_fit(self, needs, not_before=0, horizon=1 << 20):
        """Earliest cycle ≥ ``not_before`` where ``needs`` fits.

        Demands that can *never* fit (exceeding a machine budget
        outright) raise immediately instead of scanning the horizon.
        The common case — the first candidate cycle fits — is a scalar
        probe; otherwise the occupied region is scanned with one
        vectorized boolean-AND feasibility mask.
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
        """Vectorized earliest-fit over ``[start, stop)``; -1 when full."""
        if start >= stop:
            return -1
        self.stat_scan_cycles += stop - start
        use = self._use
        ok = None
        for row, demand, budget in (
                (_ISSUE, needs.issue, self._issue_width),
                (_READS, needs.reads, self._read_ports),
                (_WRITES, needs.writes, self._write_ports),
                (self._fu_row.get(needs.fu_kind), needs.fu_count,
                 self._fu_avail.get(needs.fu_kind, 0))):
            if not demand or row is None:
                continue
            mask = use[row, start:stop] <= budget - demand
            ok = mask if ok is None else (ok & mask)
        if ok is None:
            return start              # demands nothing: first cycle fits
        index = int(ok.argmax())
        if ok[index]:
            return start + index
        return -1

    def _budget_of(self, needs):
        """(row, demand, budget) triples of a demand, or ``None`` when
        the demand can never fit this machine."""
        if (needs.issue > self._issue_width
                or needs.reads > self._read_ports
                or needs.writes > self._write_ports
                or needs.fu_count > self._fu_avail.get(needs.fu_kind, 0)):
            return None
        triples = [(_ISSUE, needs.issue, self._issue_width),
                   (_READS, needs.reads, self._read_ports),
                   (_WRITES, needs.writes, self._write_ports)]
        row = self._fu_row.get(needs.fu_kind)
        if row is not None:
            triples.append((row, needs.fu_count,
                            self._fu_avail[needs.fu_kind]))
        return triples

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

        Guards the place/release/re-place revision cycles of cluster
        growth against capacity leaks; raises
        :class:`~repro.errors.SchedulingError` on violation.
        """
        if self._hi and bool((self._use[:, :self._hi] < 0).any()):
            rows, cycles = np.nonzero(self._use[:, :self._hi] < 0)
            raise SchedulingError(
                "negative reservation at cycle(s) {} — release without "
                "matching place".format(sorted(set(int(c) for c in cycles))))
        return True


#: Probe count below which the scalar fits-at-start loop beats the
#: stacked-tensor scan (dominated by its per-probe set-up copies).
#: Benchmarked on the BENCH_sched workloads: the scalar loop wins for
#: every lockstep width up to the default batch of 16.
_TENSOR_CUTOVER = 24


def first_fit_batch(tables, needs_list, not_befores):
    """Earliest-fit cycle for one ``(table, needs, not_before)`` probe
    per entry, resolved in a single vectorised pass.

    The batched ant runner stages the independent first-fit probes of a
    lockstep step (each ant owns its own table) and scans them all at
    once: the occupied prefixes are stacked into one ``(K, rows, H)``
    tensor — columns beyond a table's high-water mark are zero, exactly
    what an untouched cycle looks like — and feasibility is one
    boolean reduction.  Per-probe results are identical to calling
    :meth:`ReservationTable.first_fit` table by table, including the
    known-empty fast path and the ``hi`` fallback; infeasible demands
    raise the same :class:`~repro.errors.SchedulingError`.  Small
    batches skip the stacking and loop the scalar method instead: its
    fits-at-start fast path beats the tensor set-up cost until well
    past the default lockstep width (measured cutover above).
    """
    count = len(tables)
    if count != len(needs_list) or count != len(not_befores):
        raise SchedulingError("mismatched first_fit_batch arguments")
    if count <= _TENSOR_CUTOVER:
        return [table.first_fit(needs, not_before=not_before)
                for table, needs, not_before
                in zip(tables, needs_list, not_befores)]
    budgets = []
    for table, needs in zip(tables, needs_list):
        triples = table._budget_of(needs)
        if triples is None:
            raise SchedulingError(
                "no feasible cycle below horizon: {} exceeds the machine "
                "budget".format(needs))
        budgets.append(triples)
    cycles = [0] * count
    scan = []                     # probes that must look at occupancy
    for probe, (table, not_before) in enumerate(zip(tables, not_befores)):
        table.stat_first_fit_scans += 1
        start = max(0, int(not_before))
        if start >= table._hi:
            cycles[probe] = start     # known-empty region
        else:
            scan.append(probe)
    if not scan:
        return cycles
    width = max(tables[probe]._hi for probe in scan)
    rows = tables[scan[0]]._use.shape[0]
    stack = np.zeros((len(scan), rows, width), dtype=np.int32)
    demand = np.zeros((len(scan), rows), dtype=np.int32)
    budget = np.zeros((len(scan), rows), dtype=np.int32)
    budget[:, :] = np.iinfo(np.int32).max
    starts = np.empty(len(scan), dtype=np.intp)
    for index, probe in enumerate(scan):
        table = tables[probe]
        hi = table._hi
        stack[index, :, :hi] = table._use[:, :hi]
        for row, need, cap in budgets[probe]:
            demand[index, row] = need
            budget[index, row] = cap
        starts[index] = max(0, int(not_befores[probe]))
        table.stat_scan_cycles += hi - starts[index]
    feasible = ((stack + demand[:, :, None] <= budget[:, :, None])
                .all(axis=1))
    feasible &= np.arange(width)[None, :] >= starts[:, None]
    first = feasible.argmax(axis=1)
    found = feasible[np.arange(len(scan)), first]
    for index, probe in enumerate(scan):
        # No fit inside the stacked window only happens when this
        # table's occupancy spans the whole window; the scalar path
        # then falls through to its known-empty high-water mark.
        cycles[probe] = int(first[index]) if found[index] \
            else tables[probe]._hi
    return cycles
