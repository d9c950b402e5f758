"""Hardware-Grouping (Fig. 4.3.6).

For every operation ``x`` with hardware options, grow the *virtual ISE
candidate* ``vS(x)``: ``x`` plus every node reachable from it through
operations that chose a hardware implementation option in the previous
iteration.  Each hardware option ``j`` of ``x`` yields one evaluation
``vS(x, HW-j)`` — the member set is the same, but ``x`` contributes
option ``j``'s delay/area, so the measured execution time and silicon
area differ per option (the thesis's vS5,1 / vS5,2 example).

One pass serves every seed.  The connected components of the
hardware-chosen set are found once: ``vS(x)`` is ``x``'s component when
``x`` is in the set, and otherwise ``x`` plus the components next to
it.  Each component gets one forward arrival pass at the chosen
options; a seed option that changes a delay recomputes arrivals only in
the seed's downstream cone, with the same expression per node, so the
delays are the floats a full pass would produce.  The members are
still ``frozenset(grown_group(dfg, x, chosen))`` per seed: the area is
a float sum in that set's iteration order, which can differ per seed
when member uids collide in the set's hash table.
"""

from ..errors import ConfigError
from ..graph.subgraph import grown_group


class VirtualGroup:
    """One evaluated vS(x, HW-j)."""

    __slots__ = ("seed", "option", "members", "delay_ns", "cycles", "area")

    def __init__(self, seed, option, members, delay_ns, cycles, area):
        self.seed = seed
        self.option = option
        self.members = frozenset(members)
        self.delay_ns = delay_ns
        self.cycles = cycles
        self.area = area

    @property
    def size(self):
        """Number of member operations of the virtual group."""
        return len(self.members)

    def __repr__(self):
        return "VirtualGroup(#{} {} -> {} ops, {:.2f} ns, {:.0f} um2)".format(
            self.seed, self.option.label, self.size, self.delay_ns, self.area)


def hardware_grouping(dfg, state, prev_schedule, memo=None):
    """Evaluate vS(x, HW-j) for every hardware option of every operation.

    Parameters
    ----------
    dfg:
        The block DFG.
    state:
        The round's :class:`~repro.core.state.ExplorationState` (for
        option tables).
    prev_schedule:
        Previous iteration's
        :class:`~repro.core.iteration.IterationSchedule`; its
        hardware-chosen set and per-member chosen options seed the
        growth.
    memo:
        Optional round-lifetime dict.  The complete result is a pure
        function of the chosen-hardware set and its chosen labels, so a
        repeated signature (a converged colony) returns the earlier
        groups.

    Returns dict ``(uid, option_label) → VirtualGroup``.
    """
    chosen_hw = prev_schedule.hardware_chosen_set()
    chosen = prev_schedule.chosen
    full_key = None
    if memo is not None:
        # VirtualGroups are immutable and consumers only read, so the
        # dict is shared between hits.
        full_key = ("groups", frozenset(chosen_hw),
                    tuple(chosen[m].label for m in sorted(chosen_hw)))
        cached = memo.get(full_key)
        if cached is not None:
            return cached
    hw_uids = getattr(state, "hw_uids", None) or dfg.nodes
    groups = _ComponentPass(dfg, chosen_hw, chosen).groups(
        state, hw_uids, prev_schedule.technology)
    if memo is not None:
        memo[full_key] = groups
    return groups


class _Component:
    """One connected component of the hardware-chosen set."""

    __slots__ = ("nodes", "longest", "delay")

    def __init__(self, nodes):
        self.nodes = nodes
        self.longest = None
        self.delay = None


class _ComponentPass:
    """Components of the chosen set and their arrival passes."""

    def __init__(self, dfg, chosen_hw, chosen):
        self.dfg = dfg
        self.chosen_hw = chosen_hw
        self.chosen = chosen
        self.rank = dfg.tables().rank
        if self.rank is None:
            raise ConfigError("Hardware-Grouping needs an acyclic DFG")
        neighbours = dfg.neighbours
        comp_of = {}
        components = []
        for uid in chosen_hw:
            if uid in comp_of:
                continue
            nodes = [uid]
            comp_of[uid] = len(components)
            for node in nodes:               # grows while walking
                for neighbour in neighbours(node):
                    if neighbour in chosen_hw and neighbour not in comp_of:
                        comp_of[neighbour] = len(components)
                        nodes.append(neighbour)
            components.append(_Component(nodes))
        self.comp_of = comp_of
        self.components = components

    def _arrivals(self, component):
        """Arrival (incl. own delay) of every member at chosen options."""
        if component.longest is None:
            chosen = self.chosen
            members = set(component.nodes)
            longest = {}
            predecessors = self.dfg.predecessors
            for node in sorted(component.nodes, key=self.rank.__getitem__):
                arrival = 0.0
                for pred in predecessors(node):
                    if pred in members:
                        arrival = max(arrival, longest[pred])
                longest[node] = arrival + chosen[node].delay_ns
            component.longest = longest
            component.delay = max(longest.values())
        return component.longest

    def _cone(self, seed, members):
        """``seed`` and its member descendants, in topological order."""
        successors = self.dfg.successors
        cone = [seed]
        seen = {seed}
        for node in cone:                    # grows while walking
            for succ in successors(node):
                if succ in members and succ not in seen:
                    seen.add(succ)
                    cone.append(succ)
        cone.sort(key=self.rank.__getitem__)
        return cone

    def _delay(self, cone, members, base, seed_delay):
        """Critical path with the seed (``cone[0]``) at ``seed_delay``:
        arrivals are recomputed in the cone and read from ``base``
        elsewhere."""
        chosen = self.chosen
        predecessors = self.dfg.predecessors
        seed = cone[0]
        new = {}
        for node in cone:
            arrival = 0.0
            for pred in predecessors(node):
                if pred in members:
                    value = new.get(pred)
                    if value is None:
                        value = base[pred]
                    arrival = max(arrival, value)
            new[node] = arrival + (seed_delay if node == seed
                                   else chosen[node].delay_ns)
        delay = max(new.values())
        for node, value in base.items():
            if value > delay and node not in new:
                delay = value
        return delay

    def groups(self, state, hw_uids, technology):
        """``(uid, option_label) → VirtualGroup`` for every seed."""
        dfg = self.dfg
        chosen_hw = self.chosen_hw
        chosen = self.chosen
        comp_of = self.comp_of
        components = self.components
        cycles_for_delay = technology.cycles_for_delay
        groups = {}
        for uid in hw_uids:
            hw_options = state.hardware_options(uid)
            if not hw_options:
                continue
            members = frozenset(grown_group(dfg, uid, chosen_hw))
            index = comp_of.get(uid)
            if index is not None:
                component = components[index]
                base = self._arrivals(component)
                own = chosen[uid].delay_ns
                cone = None
                for option in hw_options:
                    if option.delay_ns == own:
                        delay = component.delay
                    else:
                        if cone is None:
                            cone = self._cone(uid, base)
                        delay = self._delay(cone, base, base,
                                            option.delay_ns)
                    groups[(uid, option.label)] = VirtualGroup(
                        uid, option, members, delay, cycles_for_delay(delay),
                        _area(members, uid, option, chosen))
                continue
            # Off the chosen set: the seed joins its neighbouring
            # components, whose arrivals change only below the seed.
            base = {}
            adjacent = set()
            for neighbour in dfg.neighbours(uid):
                index = comp_of.get(neighbour)
                if index is not None and index not in adjacent:
                    adjacent.add(index)
                    base.update(self._arrivals(components[index]))
            cone = self._cone(uid, members) if base else [uid]
            for option in hw_options:
                delay = self._delay(cone, members, base, option.delay_ns)
                groups[(uid, option.label)] = VirtualGroup(
                    uid, option, members, delay, cycles_for_delay(delay),
                    _area(members, uid, option, chosen))
        return groups


def _area(members, seed, option, chosen):
    """:func:`~repro.hwlib.asfu.subgraph_area` with the seed at
    ``option``, summed in the members' iteration order."""
    return float(sum(option.area if node == seed else chosen[node].area
                     for node in members))


def best_groups(groups):
    """HW-MAX per seed in one pass: ``{seed: fastest VirtualGroup}``.

    Equivalent to calling :func:`best_group_of` for every seed, but
    linear in the number of groups instead of quadratic.
    """
    best = {}
    for (seed, __), group in groups.items():
        current = best.get(seed)
        if current is None or (
                (group.cycles, group.delay_ns, group.area)
                < (current.cycles, current.delay_ns, current.area)):
            best[seed] = group
    return best


def best_group_of(groups, uid):
    """HW-MAX of the thesis: the seed's option whose group executes
    fastest (maximal execution-time reduction); ties break on area."""
    candidates = [g for (seed, __), g in groups.items() if seed == uid]
    if not candidates:
        return None
    return min(candidates, key=lambda g: (g.cycles, g.delay_ns, g.area))
