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
cycle (``_use``).  It is stored cycle-major, so the matrix grows
geometrically as later cycles are touched without moving any counter,
and ``_hi`` marks the end of the ever-touched prefix: every column at
or beyond ``_hi`` is known-empty, so feasibility there is a pure budget
check.  Every probe (:meth:`fits`, :meth:`place`, :meth:`release`,
:meth:`try_resize` and the :meth:`reserve` scan over the occupied
region) goes through one flat :class:`memoryview` over the buffer,
counter ``(row, cycle)`` at ``cycle * rows + row`` — as cheap as list
indexing, and one view per table.

Operation-Scheduling places through :meth:`reserve`, which finds the
first fitting cycle and commits there in one pass.  Its per-resource
checks (row, spare capacity) are worked out once per machine and
:class:`Needs` and shared by every table of that machine, not rebuilt
per probe or per ant.  Infeasible demands (a :class:`Needs` that
exceeds a machine budget outright) are rejected upfront instead of
scanning the cycle horizon.
"""

from functools import lru_cache

import numpy as np

from ..errors import SchedulingError

#: Initial column capacity of the dense matrix; grows by doubling.
_INITIAL_CYCLES = 64

#: Rows 0-2 of the matrix; FU kinds follow.
_ISSUE, _READS, _WRITES = 0, 1, 2

#: First cycle :meth:`ReservationTable.reserve` never searches.
_HORIZON = 1 << 20


@lru_cache(maxsize=64)
def _layout(machine):
    """``(fu_row, fit_rows)`` shared by every table of an equal machine:
    the FU-kind row map and the memo of
    :meth:`ReservationTable._check_rows`."""
    kinds = sorted(machine.fu_counts)
    return {kind: 3 + index for index, kind in enumerate(kinds)}, {}


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

    __slots__ = ("machine", "_use", "_flat", "_rows", "_size", "_hi",
                 "_issue_width", "_read_ports", "_write_ports",
                 "_fu_row", "_fu_avail", "_fit_rows", "stat_first_fit_scans",
                 "stat_scan_cycles")

    def __init__(self, machine):
        self.machine = machine
        self._issue_width = machine.issue_width
        rf = machine.register_file
        self._read_ports = rf.read_ports
        self._write_ports = rf.write_ports
        self._fu_row, self._fit_rows = _layout(machine)
        self._fu_avail = machine.fu_counts
        self._rows = 3 + len(self._fu_row)
        self._size = 0
        self._grow(_INITIAL_CYCLES)
        self._hi = 0                  # cycles >= _hi are known-empty
        #: Always-on kernel tallies, aggregated into the ``sched.*``
        #: observability counters at round end.
        self.stat_first_fit_scans = 0
        self.stat_scan_cycles = 0

    # -- storage ------------------------------------------------------------

    def _grow(self, cycles):
        """Ensure at least ``cycles`` columns exist (geometric growth)."""
        size = self._size or _INITIAL_CYCLES
        while size < cycles:
            size *= 2
        cells = np.zeros((size, self._rows), dtype=np.int32)
        if self._size:
            cells[:self._size] = self._use.T
        self._use = cells.T
        self._flat = memoryview(cells).cast("B").cast("i")
        self._size = size

    # -- queries ------------------------------------------------------------

    def usage(self, cycle):
        """Current ``(issue, reads, writes, {fu: used})`` at a cycle.

        Only function-unit kinds with a non-zero count appear in the
        dict — released capacity never leaves stale zero entries.
        """
        if cycle < 0 or cycle >= self._hi:
            return (0, 0, 0, {})
        flat = self._flat
        base = cycle * self._rows
        fus = {}
        for kind, row in self._fu_row.items():
            used = flat[base + row]
            if used:
                fus[kind] = used
        return (flat[base + _ISSUE], flat[base + _READS],
                flat[base + _WRITES], fus)

    def fits(self, cycle, needs):
        """True when ``needs`` fits in the remaining budget of ``cycle``."""
        if cycle >= self._hi:
            # Untouched region: feasibility is the pure budget check.
            return (needs.issue <= self._issue_width
                    and needs.reads <= self._read_ports
                    and needs.writes <= self._write_ports
                    and needs.fu_count <= self._fu_avail.get(needs.fu_kind, 0))
        flat = self._flat
        base = cycle * self._rows
        if flat[base + _ISSUE] + needs.issue > self._issue_width:
            return False
        if flat[base + _READS] + needs.reads > self._read_ports:
            return False
        if flat[base + _WRITES] + needs.writes > self._write_ports:
            return False
        row = self._fu_row.get(needs.fu_kind)
        if row is None:
            return needs.fu_count <= 0
        if flat[base + row] + needs.fu_count > self._fu_avail[needs.fu_kind]:
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
        flat = self._flat
        base = cycle * self._rows
        flat[base + _ISSUE] += needs.issue
        flat[base + _READS] += needs.reads
        flat[base + _WRITES] += needs.writes
        row = self._fu_row.get(needs.fu_kind)
        if row is not None:
            flat[base + row] += needs.fu_count
        return True

    def release(self, cycle, needs):
        """Undo a previous :meth:`place` (cluster-revision support)."""
        if cycle < 0 or cycle >= self._hi:
            raise SchedulingError("release without matching place")
        flat = self._flat
        base = cycle * self._rows
        flat[base + _ISSUE] -= needs.issue
        flat[base + _READS] -= needs.reads
        flat[base + _WRITES] -= needs.writes
        row = self._fu_row.get(needs.fu_kind)
        if row is not None:
            flat[base + row] -= needs.fu_count
        if (flat[base + _ISSUE] < 0 or flat[base + _READS] < 0
                or flat[base + _WRITES] < 0
                or (row is not None and flat[base + row] < 0)):
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
        flat = self._flat
        base = cycle * self._rows
        issue = flat[base + _ISSUE] - old.issue
        reads = flat[base + _READS] - old.reads
        writes = flat[base + _WRITES] - old.writes
        old_row = self._fu_row.get(old.fu_kind)
        new_row = self._fu_row.get(new.fu_kind)
        old_fu = 0 if old_row is None else (
            flat[base + old_row] - old.fu_count)
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
            fu = old_fu if new_row == old_row else flat[base + new_row]
            if fu + new.fu_count > self._fu_avail[new.fu_kind]:
                return False
        flat[base + _ISSUE] = issue + new.issue
        flat[base + _READS] = reads + new.reads
        flat[base + _WRITES] = writes + new.writes
        if old_row is not None:
            flat[base + old_row] -= old.fu_count
        if new_row is not None:
            flat[base + new_row] += new.fu_count
        return True

    def reserve(self, needs, not_before=0):
        """Commit ``needs`` at the earliest cycle ≥ ``not_before`` where
        it fits, and return that cycle.

        The first-fit search and the commit in one pass: the common
        case — the first candidate cycle fits, or lies beyond the
        occupied prefix — is one probe; otherwise the rest of the
        occupied region is walked (:meth:`_scan`).  Demands that can
        *never* fit (exceeding a machine budget outright) raise
        immediately instead of scanning the horizon.  Each call counts
        one ``stat_first_fit_scans``.  ``needs`` should be long-lived
        (shared per demand): its checks are memoised per machine.
        """
        self.stat_first_fit_scans += 1
        rows = self._fit_rows.get(needs)
        if rows is None:
            rows = self._check_rows(needs)
            if needs not in self._fit_rows:
                raise SchedulingError(
                    "no feasible cycle below horizon: {} exceeds the "
                    "machine budget".format(needs))
        if not_before <= 0:
            cycle = 0
        elif not_before < _HORIZON:
            cycle = not_before
        else:
            raise SchedulingError("no feasible cycle below horizon")
        hi = self._hi
        if cycle < hi:
            flat = self._flat
            base = cycle * self._rows
            for row, spare, __ in rows:
                if flat[base + row] > spare:
                    cycle = self._first_fit_after(cycle, rows)
                    break
        if cycle >= hi:
            if cycle >= self._size:
                self._grow(cycle + 1)
            self._hi = cycle + 1
        flat = self._flat
        base = cycle * self._rows
        for row, __, demand in rows:
            flat[base + row] += demand
        return cycle

    def _first_fit_after(self, cycle, rows):
        """First fit after a missed ``cycle`` inside the occupied prefix:
        the rest of the prefix, else the first cycle past it."""
        hi = self._hi
        stop = hi if hi < _HORIZON else _HORIZON
        found = self._scan(cycle + 1, stop, rows)
        if found >= 0:
            return found
        if hi < _HORIZON:
            return hi
        raise SchedulingError("no feasible cycle below horizon")

    def _check_rows(self, needs):
        """``(row, spare, demand)`` of every resource ``needs`` uses:
        ``spare`` is the most that row may already hold at a cycle where
        ``needs`` still fits.  Memoised per machine for demands the
        machine can meet; the others are left out of the memo."""
        rows = self._fit_rows.get(needs)
        if rows is None:
            fu_avail = self._fu_avail.get(needs.fu_kind, 0)
            rows = tuple(
                (row, budget - demand, demand)
                for row, demand, budget in (
                    (_ISSUE, needs.issue, self._issue_width),
                    (_READS, needs.reads, self._read_ports),
                    (_WRITES, needs.writes, self._write_ports),
                    (self._fu_row.get(needs.fu_kind), needs.fu_count,
                     fu_avail))
                if demand and row is not None)
            if (needs.issue <= self._issue_width
                    and needs.reads <= self._read_ports
                    and needs.writes <= self._write_ports
                    and needs.fu_count <= fu_avail):
                self._fit_rows[needs] = rows
        return rows

    def _scan(self, start, stop, rows):
        """Earliest cycle in ``[start, stop)`` passing the
        :meth:`_check_rows` checks ``rows``; -1 when every cycle is full.

        A plain walk over the flat memoryview: the occupied region is a
        handful of cycles, too short for array set-up to pay.  Adds
        ``stop - start`` to ``stat_scan_cycles``.
        """
        if start >= stop:
            return -1
        self.stat_scan_cycles += stop - start
        flat = self._flat
        stride = self._rows
        for cycle in range(start, stop):
            base = cycle * stride
            for row, spare, __ in rows:
                if flat[base + row] > spare:
                    break
            else:
                return cycle          # also when ``rows`` demands nothing
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

