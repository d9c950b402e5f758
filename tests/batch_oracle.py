"""Frozen numpy reference for the lockstep ant step and its kernels.

These are the implementations the batched runner and the reservation
table used before the step loop moved onto plain per-ant tables —
plus the one-ant-at-a-time iteration the engine ran at ``batch=1``
until that width moved onto the runner: a
dense successor matrix folded into a ``(B, n_nodes)`` remaining-count
matrix, a masked row-wise ``cumsum`` roulette over every flat slot,
staged first-fit probes, the release/fits/place cluster resize, the
numpy boolean-AND first-fit scan, Kahn-ordered ASFU delays and the
set-based shedding rule of legalisation.  The parity tests hold the
production code to them.  Keep this file frozen; it is an oracle, not a
second implementation to maintain.
"""

import numpy as np

from legality_oracle import input_values, output_values
from repro.errors import ConfigError, ExplorationError
from placement_oracle import IterationSchedule, SubgraphIOTracker
from repro.sched.resources import Needs, _ISSUE, _READS, _WRITES


class NumpyAntRunner:
    """The matrix-step lockstep runner (same constructor and ``run``)."""

    def __init__(self, dfg, state, machine, technology, constraints):
        self.dfg = dfg
        self.state = state
        self.machine = machine
        self.technology = technology
        self.constraints = constraints
        uids = list(dfg.nodes)
        self._uids = uids
        index = {uid: i for i, uid in enumerate(uids)}
        n = len(uids)
        succ = np.zeros((n, n), dtype=np.int8)
        preds = np.zeros(n, dtype=np.int32)
        for src, dst in dfg.edge_pairs():
            succ[index[src], index[dst]] = 1
            preds[index[dst]] += 1
        np.fill_diagonal(succ, -1)
        self._succ_matrix = succ
        self._base_preds = preds
        pairs = state.slot_pairs()
        self._slot_pairs = pairs
        self._slot_node = np.fromiter(
            (index[uid] for uid, __ in pairs), dtype=np.intp,
            count=len(pairs))
        self._preds_of = {uid: tuple(dfg.predecessors(uid))
                          for uid in uids}
        probe = IterationSchedule(dfg, machine, technology, constraints)
        self._slot_sw_needs = [
            None if option.is_hardware
            else probe.software_needs(uid, option)
            for uid, option in pairs]
        self._open_template = {}
        for uid in uids:
            io = SubgraphIOTracker(dfg)
            io.add(uid)
            self._open_template[uid] = (
                io, Needs(reads=io.n_in, writes=io.n_out, fu_kind="asfu"))

    def run(self, rng, n_ants):
        n_nodes = len(self._uids)
        schedules = [IterationSchedule(self.dfg, self.machine,
                                       self.technology, self.constraints)
                     for __ in range(n_ants)]
        if not n_nodes:
            return schedules
        n_slots = len(self._slot_pairs)
        weights = self.state.cp_weights_batch()
        remaining = np.tile(self._base_preds, (n_ants, 1))
        rows = np.arange(n_ants)
        draws = np.empty(n_ants, dtype=np.float64)
        picks = np.empty(n_ants, dtype=np.float64)
        chosen = np.empty(n_ants, dtype=np.intp)
        ready = np.empty((n_ants, n_nodes), dtype=bool)
        slot_ready = np.empty((n_ants, n_slots), dtype=bool)
        masked = np.empty((n_ants, n_slots), dtype=np.float64)
        cum = np.empty((n_ants, n_slots), dtype=np.float64)
        below = np.empty((n_ants, n_slots), dtype=bool)
        succ_rows = np.empty((n_ants, n_nodes), dtype=np.int8)
        for __ in range(n_nodes):
            np.equal(remaining, 0, out=ready)
            np.take(ready, self._slot_node, axis=1, out=slot_ready)
            for ant in range(n_ants):
                draws[ant] = rng.random()
            slots = _roulette_rows(weights, slot_ready, draws,
                                   masked=masked, cum=cum, below=below,
                                   rows=rows, picks=picks)
            self._place(schedules, slots)
            np.take(self._slot_node, slots, out=chosen)
            np.take(self._succ_matrix, chosen, axis=0, out=succ_rows)
            remaining -= succ_rows
        return [schedule.verify() for schedule in schedules]

    def _place(self, schedules, slots):
        probes = []
        tables = []
        needs_list = []
        ready_list = []
        for ant, slot in enumerate(slots.tolist()):
            schedule = schedules[ant]
            uid, option = self._slot_pairs[slot]
            needs = self._slot_sw_needs[slot]
            if needs is not None:
                io = None
            else:
                cluster_of = schedule.cluster_of
                if cluster_of:
                    joined = False
                    for pred in self._preds_of[uid]:
                        if pred in cluster_of:
                            schedule.schedule_hardware(uid, option)
                            joined = True
                            break
                    if joined:
                        continue
                io, needs = self._open_template[uid]
                io = io.clone()
            probes.append((schedule, uid, option, io, needs))
            tables.append(schedule.table)
            needs_list.append(needs)
            ready_list.append(schedule.data_ready(uid))
        if not probes:
            return
        cycles = first_fit_batch(tables, needs_list, ready_list)
        for (schedule, uid, option, io, needs), cycle in zip(probes, cycles):
            if io is None:
                schedule.place_software(uid, option, needs, cycle)
            else:
                schedule.place_cluster(uid, option, io, needs, cycle)


def first_fit_batch(tables, needs_list, not_befores):
    """The staged probes' resolution at every width up to 24 (the old
    stacked-tensor branch above that never ran at the default width)."""
    return [table.first_fit(needs, not_before=not_before)
            for table, needs, not_before
            in zip(tables, needs_list, not_befores)]


def _roulette_rows(weights, slot_ready, draws,
                   masked=None, cum=None, below=None, rows=None,
                   picks=None):
    masked = np.multiply(weights, slot_ready, out=masked)
    cum = np.cumsum(masked, axis=1, out=cum)
    totals = cum[:, -1]
    picks = np.multiply(draws, totals, out=picks)
    below = np.less(cum, picks[:, None], out=below)
    slots = np.count_nonzero(below, axis=1)
    n_slots = slot_ready.shape[1]
    if rows is None:
        rows = np.arange(len(slots))
    if (totals.min() > 0.0 and int(slots.max()) < n_slots
            and slot_ready[rows, slots].all()):
        return slots
    for row in range(len(slots)):
        slot = slots[row]
        if (totals[row] > 0.0 and slot < n_slots
                and slot_ready[row, slot]):
            continue
        candidates = np.flatnonzero(slot_ready[row])
        count = len(candidates)
        if not count:
            raise ExplorationError("ready set empty with work remaining")
        if totals[row] <= 0.0:
            slots[row] = candidates[min(int(draws[row] * count), count - 1)]
        elif slot >= n_slots:
            slots[row] = candidates[-1]
        else:
            slots[row] = candidates[0]
    return slots


# -- reservation-table kernels ------------------------------------------------

def resize(table, cycle, old, new):
    """The cluster resize as release, fits, then place (or re-place)."""
    table.release(cycle, old)
    if not table.fits(cycle, new):
        table.place(cycle, old)
        return False
    table.place(cycle, new)
    return True


def scan(table, start, stop, needs):
    """The numpy boolean-AND earliest-fit scan (without its tally)."""
    if start >= stop:
        return -1
    use = table._use
    ok = None
    for row, demand, budget in (
            (_ISSUE, needs.issue, table._issue_width),
            (_READS, needs.reads, table._read_ports),
            (_WRITES, needs.writes, table._write_ports),
            (table._fu_row.get(needs.fu_kind), needs.fu_count,
             table._fu_avail.get(needs.fu_kind, 0))):
        if not demand or row is None:
            continue
        mask = use[row, start:stop] <= budget - demand
        ok = mask if ok is None else (ok & mask)
    if ok is None:
        return start
    index = int(ok.argmax())
    if ok[index]:
        return start + index
    return -1


# -- ASFU delay and shedding ----------------------------------------------------

def subgraph_delay_ns(graph, nodes, option_of):
    """Kahn-ordered longest path through ``nodes``."""
    members = set(nodes)
    if not members:
        raise ConfigError("an ASFU needs at least one operation")
    longest = {}
    for node in _topological(graph, members):
        arrival = 0.0
        for pred in graph.predecessors(node):
            if pred in members:
                arrival = max(arrival, longest[pred])
        longest[node] = arrival + option_of(node).delay_ns
    return max(longest.values())


def _topological(graph, members):
    indegree = {}
    for node in members:
        degree = 0
        for p in graph.predecessors(node):
            if p in members:
                degree += 1
        indegree[node] = degree
    ready = sorted(node for node, deg in indegree.items() if deg == 0)
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        for succ in graph.successors(node):
            if succ in members:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
    if len(order) != len(members):
        raise ConfigError("ASFU node set contains a cycle")
    return order


def worst_boundary_node(dfg, piece):
    """The set-based shedding choice of legalisation."""

    def badness(uid):
        ext_in = len(input_values(dfg, {uid})
                     - input_values(dfg, piece - {uid}))
        outs = len(output_values(dfg, {uid}))
        return (ext_in, outs, uid)

    return max(piece, key=badness)


def scalar_iteration(dfg, state, rng, machine, technology, constraints):
    """One ant of the former ``batch=1`` loop: a sorted ready-uid list,
    Eq. 1 rows of the ready operations and one cumsum roulette draw per
    step, placed through ``schedule_hardware``/``schedule_software``."""
    from bisect import bisect_left, insort

    params = state.params
    weights = (params.alpha * state._trail_vec
               + (1.0 - params.alpha) * state._merit_vec
               + params.lam * state._sp_vec)
    np.maximum(weights, 1e-12, out=weights)
    flat = weights.tolist()
    rows = {}
    for slot, pair in enumerate(state.slot_pairs()):
        rows.setdefault(pair[0], []).append((pair, flat[slot]))
    schedule = IterationSchedule(dfg, machine, technology, constraints)
    remaining_preds = {uid: len(dfg.predecessors(uid)) for uid in dfg.nodes}
    ready = sorted(uid for uid, count in remaining_preds.items()
                   if count == 0)
    remaining = len(remaining_preds)
    while remaining:
        if not ready:
            raise ExplorationError("ready set empty with work remaining")
        entries = []
        for uid in ready:
            entries.extend(rows[uid])
        uid, option = _roulette(entries, rng)
        if option.is_hardware:
            schedule.schedule_hardware(uid, option)
        else:
            schedule.schedule_software(uid, option)
        del ready[bisect_left(ready, uid)]
        remaining -= 1
        for succ in dfg.successors(uid):
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                insort(ready, succ)
    return schedule.verify()


def _roulette(entries, rng):
    cum = np.cumsum(np.fromiter((weight for __, weight in entries),
                                dtype=np.float64, count=len(entries)))
    total = cum[-1]
    draw = rng.random()
    if total <= 0.0:
        return entries[min(int(draw * len(entries)), len(entries) - 1)][0]
    index = int(np.searchsorted(cum, draw * total))
    if index >= len(entries):
        index = len(entries) - 1
    return entries[index][0]
