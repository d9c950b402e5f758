"""Merit function — Fig. 4.3.7 (hardware) and Eq. 3' (software).

The merit of an implementation option encodes "how much good would
follow from choosing this option next iteration".  The hardware side is
the paper's central contribution: it is *location-aware* — operations
on the critical path are boosted (case 1), and legal virtual groups are
scored by cycle saving, with the area/delay trade-off resolved
differently on and off the critical path (case 4, using the Max_AEC
slack window off-path).
"""

from ..graph.analysis import io_counts, is_convex
from .grouping import best_groups, hardware_grouping


def update_merits(dfg, state, schedule, constraints):
    """Recompute every operation's option merits after an iteration.

    Parameters
    ----------
    dfg / state:
        The block DFG and round state (merits updated in place).
    schedule:
        The iteration's finished
        :class:`~repro.core.iteration.IterationSchedule`.
    constraints:
        :class:`~repro.config.ISEConstraints` for case-3 checks.

    Returns the :class:`~repro.core.analysis.ScheduleAnalysis` used, so
    the caller can reuse the critical-path facts.
    """
    from .analysis import ScheduleAnalysis

    params = state.params
    analysis = ScheduleAnalysis(dfg, schedule)
    # Round-lifetime memo for pure geometry facts (group growth, delay,
    # I/O counts, convexity, chain lengths): identical virtual groups
    # recur every iteration once the colony starts converging.
    memo = getattr(state, "round_memo", None)
    if memo is None:
        from .state import RoundMemo

        memo = state.round_memo = RoundMemo()
    groups = hardware_grouping(dfg, state, schedule, memo=memo)
    best_of = best_groups(groups)

    # Software merits only ever multiply by the option's own latency, so
    # the whole sweep is one vector operation over the software slots.
    # The hardware cases then run on one flat list of plain floats (the
    # same doubles the vector holds), written back once by the
    # normalisation.
    state.multiply_software_merits()
    merit = state.merit_values()
    boost = params.use_critical_path_boost
    for uid in state.hw_uids:
        slots = state.hardware_slots(uid)
        on_critical = analysis.is_critical(uid)
        # Case 1 — critical-path boost (dividing by beta_cp < 1 raises
        # the merit of every hardware option of a critical operation).
        if boost and on_critical:
            for __, slot in slots:
                merit[slot] /= params.beta_cp
        best = best_of.get(uid)
        for option, slot in slots:
            merit[slot] = _hardware_merit(
                merit[slot], dfg, analysis, groups[(uid, option.label)],
                best, params, constraints, memo, on_critical=on_critical)
    state.normalize_merits(merit)
    return analysis


def _hardware_merit(merit, dfg, analysis, group, best, params, constraints,
                    memo, on_critical):
    """Cases 2-4 of Fig. 4.3.7 for one hardware option's virtual group."""
    # Case 2 — singleton group cannot shorten any dependence chain.
    if group.size == 1:
        return merit * params.beta_size
    # Case 3 — constraint violations damp but do not annihilate.
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
    # Case 4 — legal multi-op group: performance improvement check ...
    saving = _software_chain(dfg, group.members, memo) - group.cycles
    merit *= saving if saving >= 1 else params.beta_size
    # ... then hardware-usage check.
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
    """Area(HW-MAX) / Area(HW-j): equal-speed smaller options win."""
    if group.area <= 0:
        return 1.0
    return max(best.area, group.area) / group.area


def _software_chain(dfg, members, memo):
    """Longest software dependence chain through ``members`` (memoised
    per round — a pure function of the member set)."""
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
