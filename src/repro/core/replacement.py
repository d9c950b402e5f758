"""ISE replacement (final stage of Fig. 3.1.1).

Given the selected ISEs, discover every occurrence of their patterns in
every block DFG, prioritise the matches (longest collapsed dependence
chain first), replace non-overlapping legal matches, and list-schedule
the rewritten blocks to obtain final cycle counts.

The work splits at the budget.  A :class:`ReplacementPlan` holds the
budget-invariant half for one list of merged ISEs: per block, the host
graph matched against, and per (block, ISE) the *proposals* — every
occurrence that is legal in context, realizable with the ISE's
per-opcode options and inside the pipestage limit, with its chain
length.  The per-budget half joins the proposals of the selected ISEs
in selection order, picks disjoint jointly-acyclic matches greedily
and schedules the result, memoised per block on the ordered tuple of
selected ISEs that have proposals there.
:func:`plan_block_replacements` and :func:`replace_and_schedule` run
the same path on a throwaway plan.
"""

from operator import itemgetter

import networkx as nx

from ..graph.analysis import is_legal
from ..graph.subgraph import find_matches, match_host
from ..sched.list_scheduler import list_schedule
from ..sched.units import contract_dfg


class ReplacementPlan:
    """Budget-invariant replacement state for one list of merged ISEs.

    Every cache fills lazily on first use and each fill is a pure
    function of its key, so concurrent callers sharing one plan at
    worst compute an entry twice and store equal values — no lock.
    ``machine``/``priority`` are only read by :meth:`makespan`.
    """

    def __init__(self, merged, constraints, technology=None, machine=None,
                 priority="children"):
        self.merged = list(merged)
        self.constraints = constraints
        self.technology = technology
        self.machine = machine
        self.priority = priority
        self._index = {id(entry): i for i, entry in enumerate(self.merged)}
        self._patterns = {}      # ISE index -> representative pattern
        self._hosts = {}         # dfg -> match_host(dfg)
        self._proposals = {}     # (dfg, ISE index) -> proposals
        self._makespans = {}     # (dfg, ISE indices) -> makespan

    def proposals(self, dfg, index, obs=None):
        """Proposals of merged ISE ``index`` in ``dfg`` (cached).

        Each is ``(sort_key, members, option_of)`` with ``sort_key`` =
        ``(-chain, -size, sorted members)``.  ``obs`` sees the match
        pre-filter counters only when the entry is first built.
        """
        key = (dfg, index)
        found = self._proposals.get(key)
        if found is None:
            host = self._hosts.get(dfg)
            if host is None:
                host = self._hosts.setdefault(dfg, match_host(dfg))
            pattern = self._patterns.get(index)
            if pattern is None:
                pattern = self._patterns.setdefault(
                    index, self.merged[index].representative.pattern())
            found = self._proposals.setdefault(key, _match_proposals(
                dfg, self.merged[index].representative, pattern, host,
                self.constraints, self.technology, obs))
        return found

    def groups(self, dfg, selected, obs=None):
        """Contraction groups for ``selected`` (entries of ``merged``)."""
        return self._groups(dfg, self._active(dfg, selected, obs), obs)

    def makespan(self, dfg, selected, obs=None):
        """Schedule length of ``dfg`` with ``selected`` replaced (memoised)."""
        active = self._active(dfg, selected, obs)
        key = (dfg, active)
        cycles = self._makespans.get(key)
        if cycles is None:
            groups = self._groups(dfg, active, obs)
            cycles = self._makespans.setdefault(key, schedule_with_ises(
                dfg, groups, self.machine, self.technology,
                priority=self.priority).makespan)
        return cycles

    def _active(self, dfg, selected, obs):
        """Indices, in selection order, of ISEs with proposals in ``dfg``."""
        indices = (self._index[id(entry)] for entry in selected)
        return tuple(i for i in indices if self.proposals(dfg, i, obs))

    def _groups(self, dfg, active, obs):
        # Joined in selection order before the stable sort, so equal
        # keys from two ISEs keep the earlier-selected ISE first.
        return _choose_groups(dfg, [
            proposal for i in active
            for proposal in self.proposals(dfg, i, obs)])


def _match_proposals(dfg, rep, pattern, host, constraints, technology, obs):
    """Every admissible occurrence of ``rep``'s pattern in ``dfg``."""
    option_by_opcode = _options_by_opcode(rep)
    proposals = []
    for members in find_matches(dfg, pattern, constraints, obs=obs,
                                host=host):
        if not is_legal(dfg, members, constraints):
            continue
        option_of = _realize(dfg, members, option_by_opcode)
        if option_of is None or not _meets_pipestage_limit(
                dfg, members, option_of, constraints, technology):
            continue
        key = (-_chain_length(dfg, members), -len(members), sorted(members))
        proposals.append((key, frozenset(members), option_of))
    return proposals


def _realize(dfg, members, option_by_opcode):
    """uid → hardware option for a match, or ``None`` if an opcode of
    the match has no option in the ISE."""
    option_of = {}
    for uid in members:
        option = option_by_opcode.get(dfg.op(uid).name)
        if option is None:
            return None
        option_of[uid] = option
    return option_of


def _choose_groups(dfg, proposals):
    """Greedy disjoint pick over ``proposals``, best sort key first.

    Returns a list of ``(members, option_of)`` groups ready for
    :func:`~repro.sched.units.contract_dfg`.
    """
    used = set()
    groups = []
    for __, members, option_of in sorted(proposals, key=itemgetter(0)):
        if members & used:
            continue
        # Two individually-convex groups can still be mutually entangled
        # (A -> x -> B and B -> y -> A); the joint contraction must stay
        # acyclic for the block to remain schedulable.
        if not _jointly_acyclic(dfg, [g for g, __ in groups] + [members]):
            continue
        groups.append((members, option_of))
        used |= members
    return groups


def plan_block_replacements(dfg, selected, constraints, technology=None,
                            obs=None):
    """Choose disjoint pattern matches for one block.

    Parameters
    ----------
    dfg:
        The block DFG.
    selected:
        Iterable of :class:`~repro.core.merging.MergedISE`.
    constraints:
        The §4.2 constraints every match must satisfy in context.
    technology:
        Needed only when ``constraints.max_ise_cycles`` is set (the
        pipestage-timing check on each realized match).
    obs:
        Optional :class:`~repro.obs.observer.Observer`; match
        enumeration reports its pre-filter split through it (see
        :func:`~repro.graph.subgraph.find_matches`).

    Returns a list of ``(members, option_of)`` groups ready for
    :func:`~repro.sched.units.contract_dfg`.
    """
    plan = ReplacementPlan(selected, constraints, technology)
    return plan.groups(dfg, plan.merged, obs=obs)


def _meets_pipestage_limit(dfg, members, option_of, constraints,
                           technology):
    """Pipestage timing: the realized match must fit the cycle budget."""
    limit = constraints.max_ise_cycles
    if limit is None or technology is None:
        return True
    from ..hwlib.asfu import subgraph_delay_ns
    delay = subgraph_delay_ns(dfg.graph, members, option_of.__getitem__)
    return technology.cycles_for_delay(delay) <= limit


def _jointly_acyclic(dfg, member_sets):
    """True when contracting all ``member_sets`` leaves a DAG."""
    group_of = {}
    for index, members in enumerate(member_sets):
        for uid in members:
            group_of[uid] = "g{}".format(index)
    quotient = nx.DiGraph()
    for src, dst in dfg.graph.edges:
        u = group_of.get(src, src)
        v = group_of.get(dst, dst)
        if u != v:
            quotient.add_edge(u, v)
    return nx.is_directed_acyclic_graph(quotient)


def _options_by_opcode(candidate):
    """Opcode → hardware option used in the representative candidate.

    When the candidate uses several options for one opcode the fastest
    is kept — the ASFU instantiates the faster unit anyway when sites
    share hardware.
    """
    table = {}
    for uid in candidate.members:
        opcode = candidate.dfg.op(uid).name
        option = candidate.option_of[uid]
        current = table.get(opcode)
        if current is None or option.delay_ns < current.delay_ns:
            table[opcode] = option
    return table


def _chain_length(dfg, members):
    """Dependence-chain cycles the match would collapse."""
    longest = {}
    for uid in nx.topological_sort(dfg.graph.subgraph(members)):
        arrival = 0
        for pred in dfg.predecessors(uid):
            if pred in members:
                arrival = max(arrival, longest[pred])
        longest[uid] = arrival + 1
    return max(longest.values()) if longest else 0


def schedule_with_ises(dfg, groups, machine, technology,
                       priority="children"):
    """Contract ``groups`` into ``dfg`` and list-schedule the result."""
    graph, units = contract_dfg(dfg, groups, technology)
    return list_schedule(graph, units, machine, priority=priority)


def replace_and_schedule(dfg, selected, machine, technology, constraints,
                         priority="children", obs=None):
    """Full replacement of one block; returns ``(schedule, groups)``."""
    groups = plan_block_replacements(dfg, selected, constraints,
                                     technology=technology, obs=obs)
    schedule = schedule_with_ises(dfg, groups, machine, technology,
                                  priority=priority)
    return schedule, groups
