"""Per-cycle resource reservation table (dense kernel).

Tracks, per cycle: issue slots, register-file read/write ports, and
function units by kind.  Both the exploration-internal incremental
scheduler (Operation-Scheduling) and the final list scheduler consult
and update the same table type; the exploration side additionally needs
to *revise* a placed reservation when a hardware operation joins an
existing ISE cluster, which :meth:`try_resize` does in one fit check.

Layout
------
Usage counters live in one dense ``numpy.int32`` matrix with one row
per resource — row 0 issue slots, row 1 RF reads, row 2 RF writes, one
further row per function-unit kind of the machine — and one column per
cycle.  The matrix grows geometrically as later cycles are touched, and
``_hi`` marks the end of the ever-touched prefix: every column at or
beyond ``_hi`` is known-empty, so feasibility there is a pure budget
check.  Every probe (:meth:`fits`, :meth:`place`, :meth:`release`,
:meth:`try_resize` and the :meth:`first_fit` scan over the occupied
region) goes through per-row :class:`memoryview`\\ s over the same
buffer — as cheap as list indexing.  Infeasible demands (a
:class:`Needs` that exceeds a machine budget outright) are rejected
upfront instead of scanning the cycle horizon.
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

