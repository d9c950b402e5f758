"""Frozen per-seed reference for Hardware-Grouping and the merit update.

These are the implementations the merit sweep used before grouping
moved onto one component pass per update: one ``grown_group`` walk per
seed, a full ``subgraph_delay_ns``/``subgraph_area`` pass per
(seed, option), a round memo keyed on growth, group geometry and the
whole sweep, and merit writes through the state's ``(uid, label)``
mapping view.  The parity tests hold the production code to them.
``ScheduleAnalysis`` (critical path and Max_AEC windows on the
contracted unit DAG) is copied here too, so a rewrite of the production
analysis is checked against this copy rather than against itself.
Keep this file frozen; it is an oracle, not a second implementation to
maintain.
"""

from asfu_oracle import subgraph_area, subgraph_delay_ns
from legality_oracle import io_counts, is_convex_reference as is_convex
from repro.core.grouping import VirtualGroup
from repro.core.state import RoundMemo


class ScheduleAnalysis:
    """Dependence-timing facts about one iteration's realized choices."""

    def __init__(self, dfg, schedule):
        self.dfg = dfg
        self.schedule = schedule
        unit_of, latency, succs, preds, order = _contracted_units(
            dfg, schedule)
        self._unit_of = unit_of
        self._latency = latency
        asap = {}
        for unit in order:
            earliest = 0
            for pred in preds[unit]:
                ready = asap[pred] + latency[pred]
                if ready > earliest:
                    earliest = ready
            asap[unit] = earliest
        self._asap = asap
        self.dependence_makespan = max(
            (asap[unit] + latency[unit] for unit in order), default=0)
        alap = {}
        for unit in reversed(order):
            latest = self.dependence_makespan - latency[unit]
            for succ in succs[unit]:
                bound = alap[succ] - latency[unit]
                if bound < latest:
                    latest = bound
            alap[unit] = latest
        self._alap = alap
        self.critical = {
            node for node in dfg.nodes
            if alap[unit_of[node]] <= asap[unit_of[node]]
        }
        self._aec_memo = {}

    # -- per-node windows -------------------------------------------------

    def asap_start(self, node):
        """Earliest dependence-feasible start cycle of ``node``."""
        return self._asap[self._unit_of[node]]

    def alap_start(self, node):
        """Latest start cycle that preserves the makespan."""
        return self._alap[self._unit_of[node]]

    def unit_latency(self, node):
        """Latency of the unit containing ``node``."""
        return self._latency[self._unit_of[node]]

    def is_critical(self, node):
        """True when ``node`` has zero slack."""
        return node in self.critical

    def max_aec(self, members):
        """Maximal allowable execution cycles of a (virtual) group.

        Fig. 4.3.8: the slack window a group can occupy without hurting
        the schedule — from the earliest its external inputs can be
        ready to the latest its external consumers can still start.
        Memoised per analysis: every hardware option of a seed shares
        the same member set.
        """
        key = members if isinstance(members, frozenset) else None
        if key is not None:
            cached = self._aec_memo.get(key)
            if cached is not None:
                return cached
        members = set(members)
        ready = 0
        deadline = self.dependence_makespan
        for node in members:
            for pred in self.dfg.predecessors(node):
                if pred in members:
                    continue
                unit = self._unit_of[pred]
                ready = max(ready, self._asap[unit] + self._latency[unit])
            for succ in self.dfg.successors(node):
                if succ in members:
                    continue
                deadline = min(deadline, self._alap[self._unit_of[succ]])
        window = max(0, deadline - ready)
        if key is not None:
            self._aec_memo[key] = window
        return window


def _contracted_units(dfg, schedule):
    """Unit DAG of the realized assignment (clusters → supernodes).

    Returns ``(unit_of, latency, succs, preds, topo_order)`` as plain
    dicts/lists — adjacency is deduplicated exactly like the DiGraph it
    replaces, and the order is a Kahn topological sort of the units.
    """
    unit_of = {}
    latency = {}
    for index, cluster in enumerate(schedule.clusters):
        uid = "c{}".format(index)
        for member in cluster.members:
            unit_of[member] = uid
        latency[uid] = cluster.cycles
    chosen = schedule.chosen
    for node in dfg.nodes:
        if node not in unit_of:
            unit_of[node] = node
            latency[node] = chosen[node].cycles
    succs = {unit: set() for unit in latency}
    for src, dst in dfg.edge_pairs():
        u, v = unit_of[src], unit_of[dst]
        if u != v:
            succs[u].add(v)
    preds = {unit: [] for unit in latency}
    indegree = {unit: 0 for unit in latency}
    for unit, out in succs.items():
        for succ in out:
            preds[succ].append(unit)
            indegree[succ] += 1
    order = [unit for unit, degree in indegree.items() if degree == 0]
    for unit in order:               # grows while iterating (Kahn)
        for succ in succs[unit]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                order.append(succ)
    return unit_of, latency, succs, preds, order


def grown_group(dfg, seed, chosen_hw):
    if not isinstance(chosen_hw, (set, frozenset)):
        chosen_hw = set(chosen_hw)
    group = {seed}
    frontier = [seed]
    neighbours = dfg.neighbours
    while frontier:
        node = frontier.pop()
        for neighbour in neighbours(node):
            if neighbour in group or neighbour not in chosen_hw:
                continue
            group.add(neighbour)
            frontier.append(neighbour)
    return group


def hardware_grouping(dfg, state, prev_schedule, memo=None):
    chosen_hw = prev_schedule.hardware_chosen_set()
    chosen_sig = frozenset(chosen_hw)
    chosen = prev_schedule.chosen
    full_key = None
    if memo is not None:
        full_key = ("groups", chosen_sig,
                    tuple(chosen[m].label for m in sorted(chosen_hw)))
        cached = memo.get(full_key)
        if cached is not None:
            return cached
    groups = {}
    for uid in getattr(state, "hw_uids", None) or dfg.nodes:
        hw_options = state.hardware_options(uid)
        if not hw_options:
            continue
        members = None
        if memo is not None:
            grow_key = ("grow", uid, chosen_sig)
            members = memo.get(grow_key)
            if members is None:
                members = frozenset(grown_group(dfg, uid, chosen_hw))
                memo[grow_key] = members
        else:
            members = frozenset(grown_group(dfg, uid, chosen_hw))
        label_sig = None
        for option in hw_options:
            if memo is not None:
                if label_sig is None:
                    label_sig = tuple(sorted(
                        (m, chosen[m].label) for m in members if m != uid))
                group_key = ("vg", uid, option.label, members, label_sig)
                cached = memo.get(group_key)
                if cached is not None:
                    delay, cycles, area = cached
                    groups[(uid, option.label)] = VirtualGroup(
                        uid, option, members, delay, cycles, area)
                    continue

            def option_of(node, _seed=uid, _opt=option):
                if node == _seed:
                    return _opt
                return chosen[node]

            delay = subgraph_delay_ns(dfg, members, option_of)
            area = subgraph_area(members, option_of)
            cycles = prev_schedule.technology.cycles_for_delay(delay)
            if memo is not None:
                memo[group_key] = (delay, cycles, area)
            groups[(uid, option.label)] = VirtualGroup(
                uid, option, members, delay, cycles, area)
    if memo is not None:
        memo[full_key] = groups
    return groups


def best_groups(groups):
    best = {}
    for (seed, __), group in groups.items():
        current = best.get(seed)
        if current is None or (
                (group.cycles, group.delay_ns, group.area)
                < (current.cycles, current.delay_ns, current.area)):
            best[seed] = group
    return best


def update_merits(dfg, state, schedule, constraints, memo):
    """The merit sweep with its own round memo ``memo`` (a RoundMemo)."""
    params = state.params
    analysis = ScheduleAnalysis(dfg, schedule)
    groups = hardware_grouping(dfg, state, schedule, memo=memo)
    best_of = best_groups(groups)
    state.multiply_software_merits()
    for uid in state.hw_uids:
        hw_options = state.hardware_options(uid)
        if (params.use_critical_path_boost and analysis.is_critical(uid)):
            for option in hw_options:
                key = (uid, option.label)
                state.merit[key] /= params.beta_cp
        best = best_of.get(uid)
        for option in hw_options:
            key = (uid, option.label)
            group = groups[(uid, option.label)]
            state.merit[key] = _hardware_merit(
                state.merit[key], dfg, analysis, group, best,
                params, constraints, memo,
                on_critical=analysis.is_critical(uid))
    state.normalize_merits()
    return analysis


def new_memo():
    return RoundMemo()


def _hardware_merit(merit, dfg, analysis, group, best, params, constraints,
                    memo, on_critical):
    if group.size == 1:
        return merit * params.beta_size
    shape = memo.get(("io", group.members))
    if shape is None:
        n_in, n_out = io_counts(dfg, group.members)
        shape = (n_in, n_out, is_convex(dfg, group.members))
        memo[("io", group.members)] = shape
    n_in, n_out, convex = shape
    violated = False
    if n_in > constraints.n_in:
        merit *= params.beta_io
        violated = True
    if n_out > constraints.n_out:
        merit *= params.beta_io
        violated = True
    if not convex:
        merit *= params.beta_convex
        violated = True
    if violated:
        return merit
    saving = _software_chain(dfg, group.members, memo) - group.cycles
    merit *= saving if saving >= 1 else params.beta_size
    if on_critical or not params.use_slack_window:
        if best is not None and group.cycles <= best.cycles:
            if group.area > 0:
                merit *= _area_ratio(best, group)
        elif best is not None:
            merit /= (1 + group.cycles - best.cycles)
    else:
        budget = analysis.max_aec(group.members)
        if group.cycles <= budget:
            if best is not None and group.area > 0:
                merit *= _area_ratio(best, group)
        else:
            merit /= (1 + group.cycles - budget)
    return merit


def _area_ratio(best, group):
    if group.area <= 0:
        return 1.0
    return max(best.area, group.area) / group.area


def _software_chain(dfg, members, memo):
    chain = memo.get(("chain", members))
    if chain is not None:
        return chain
    longest = {}
    order = [uid for uid in dfg.nodes if uid in members]
    for uid in order:
        arrival = 0
        for pred in dfg.predecessors(uid):
            if pred in members:
                arrival = max(arrival, longest.get(pred, 0))
        longest[uid] = arrival + 1
    chain = max(longest.values()) if longest else 0
    memo[("chain", members)] = chain
    return chain
