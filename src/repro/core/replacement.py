"""ISE replacement (final stage of Fig. 3.1.1).

Given the selected ISEs, discover every occurrence of their patterns in
every block DFG, prioritise the matches (longest collapsed dependence
chain first), replace non-overlapping legal matches, and list-schedule
the rewritten blocks to obtain final cycle counts.

The work splits at the budget.  A :class:`ReplacementPlan` holds the
budget-invariant half for one list of merged ISEs: per (block, ISE)
the *proposals* — every occurrence that is legal in context,
realizable with the ISE's per-opcode options and inside the pipestage
limit, with its chain length.  The raw legal matches behind the
proposals are memoised on the block DFG itself (:func:`legal_matches`),
so every plan over a shared block matches each pattern there once.
Matching is the native backtracking matcher of
:func:`~repro.graph.subgraph.find_matches` over the block's cached bit
row host; the order in which it finds matches does not matter, since
the pick sorts them on a key that is distinct within one ISE.
The per-budget half joins the proposals of the selected ISEs in
selection order and picks disjoint jointly-acyclic matches greedily:
each pick extends the open contraction of the picks so far, and a pick
that closes a cycle is skipped.  The pick reads the graph only;
scheduling then list-schedules the contraction the picks built, with
no second contraction.  :meth:`ReplacementPlan.makespan` memoises that
per block on the ordered tuple of selected ISEs that have proposals
there; :func:`plan_block_replacements` and :func:`replace_and_schedule`
run the same path on a throwaway plan.
"""

from operator import itemgetter

from ..errors import SchedulingError
from ..graph.analysis import is_legal
from ..graph.subgraph import MATCH_MEMO_CAP, find_matches, match_memo
from ..sched.list_scheduler import list_schedule
from ..sched.units import block_skeleton, contract_dfg


class ReplacementPlan:
    """Budget-invariant replacement state for one list of merged ISEs.

    Every cache fills lazily on first use and each fill is a pure
    function of its key, so concurrent callers sharing one plan at
    worst compute an entry twice and store equal values — no lock.
    ``machine``/``priority`` are only read when scheduling
    (:meth:`makespan`), which also needs ``technology``.
    ``match_hits``/``match_misses`` tally the block match-memo lookups
    behind the proposals.
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
        self._proposals = {}     # (dfg, ISE index) -> proposals
        self._makespans = {}     # (dfg, ISE indices) -> makespan
        self.match_hits = self.match_misses = 0

    def proposals(self, dfg, index, obs=None):
        """Proposals of merged ISE ``index`` in ``dfg`` (cached).

        Each is ``(sort_key, members, option_of)`` with ``sort_key`` =
        ``(-chain, -size, sorted members)``.  ``obs`` sees the match
        pre-filter counters only when the entry is first built.
        """
        key = (dfg, index)
        found = self._proposals.get(key)
        if found is None:
            pattern = self._patterns.get(index)
            if pattern is None:
                pattern = self._patterns.setdefault(
                    index, self.merged[index].representative.pattern())
            matches, hit = legal_matches(dfg, pattern, self.constraints,
                                         obs)
            if hit:
                self.match_hits += 1
            else:
                self.match_misses += 1
            found = self._proposals.setdefault(key, _match_proposals(
                dfg, self.merged[index].representative, matches,
                self.constraints, self.technology))
        return found

    def groups(self, dfg, selected, obs=None):
        """Contraction groups for ``selected`` (entries of ``merged``)."""
        return self._choose(dfg, self._active(dfg, selected, obs), None,
                            obs)[0]

    def makespan(self, dfg, selected, obs=None):
        """Schedule length of ``dfg`` with ``selected`` replaced (memoised)."""
        active = self._active(dfg, selected, obs)
        key = (dfg, active)
        cycles = self._makespans.get(key)
        if cycles is None:
            cycles = self._makespans.setdefault(
                key, self._schedule(dfg, active, obs)[0].makespan)
        return cycles

    def _schedule(self, dfg, active, obs):
        """``(schedule, groups)`` of ``dfg`` with ISEs ``active``
        replaced: the contraction the pick built, list-scheduled."""
        groups, contraction = self._choose(dfg, active, self.technology,
                                           obs)
        return list_schedule(contraction.graph(), contraction.units,
                             self.machine, priority=self.priority), groups

    def _active(self, dfg, selected, obs):
        """Indices, in selection order, of ISEs with proposals in ``dfg``."""
        indices = (self._index[id(entry)] for entry in selected)
        return tuple(i for i in indices if self.proposals(dfg, i, obs))

    def _choose(self, dfg, active, technology, obs):
        # Joined in selection order before the stable sort, so equal
        # keys from two ISEs keep the earlier-selected ISE first.
        return _choose_groups(dfg, [
            proposal for i in active
            for proposal in self.proposals(dfg, i, obs)], technology)


def legal_matches(dfg, pattern, constraints, obs=None):
    """Legal occurrences of ``pattern`` in ``dfg``, matched once per DFG.

    :func:`~repro.graph.subgraph.find_matches` filtered by
    :func:`~repro.graph.analysis.is_legal`, memoised in the DFG's
    :class:`~repro.graph.subgraph.MatchMemo` on the pattern's exact
    labelled structure and the constraint fields legality reads.  Equal
    keys run identical enumerations, so the caps cut at the same point.
    The memo is cleared once it holds :data:`MATCH_MEMO_CAP` entries.
    Returns ``(matches, hit)``; ``obs`` sees the match pre-filter
    counters on a miss only.  The member sets are shared: read-only.
    """
    memo = match_memo(dfg)
    key = (tuple(pattern.nodes(data="opcode")),
           tuple((src, dst) for src, out in pattern.succ.items()
                 for dst in out),
           constraints.n_in, constraints.n_out,
           constraints.forbid_memory_ops)
    found = memo.matches.get(key)
    if found is not None:
        return found, True
    found = tuple(members for members in find_matches(
        dfg, pattern, constraints, obs=obs)
        if is_legal(dfg, members, constraints))
    if len(memo.matches) >= MATCH_MEMO_CAP:
        memo.matches.clear()
    return memo.matches.setdefault(key, found), False


def _match_proposals(dfg, rep, matches, constraints, technology):
    """Every admissible occurrence of ``rep``'s pattern in ``dfg``."""
    option_by_opcode = _options_by_opcode(rep)
    rank = dfg.tables().rank
    proposals = []
    for members in matches:
        option_of = _realize(dfg, members, option_by_opcode)
        if option_of is None or not _meets_pipestage_limit(
                dfg, members, option_of, constraints, technology):
            continue
        key = (-_chain_length(dfg, members, rank), -len(members),
               sorted(members))
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


def _choose_groups(dfg, proposals, technology=None):
    """Greedy disjoint pick over ``proposals``, best sort key first.

    Returns ``(groups, contraction)``: the ``(members, option_of)``
    groups ready for :func:`~repro.sched.units.contract_dfg`, and the
    :class:`~repro.sched.units.OpenContraction` of them.  The pick
    depends on the graph only; with a ``technology`` the contraction
    also holds the units :func:`contract_dfg` would build, ready to
    schedule, and without one it holds the structure only.
    """
    contraction = block_skeleton(dfg).open_contraction(dfg, (), technology)
    used = set()
    groups = []
    for __, members, option_of in sorted(proposals, key=itemgetter(0)):
        if members & used:
            continue
        # Two individually-convex groups can still be mutually entangled
        # (A -> x -> B and B -> y -> A); the joint contraction must stay
        # acyclic for the block to remain schedulable.
        try:
            contraction = contraction.extend(dfg, members, option_of)
        except SchedulingError:
            continue
        groups.append((members, option_of))
        used |= members
    return groups, contraction


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
    delay = subgraph_delay_ns(dfg, members, option_of.__getitem__)
    return technology.cycles_for_delay(delay) <= limit


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


def _chain_length(dfg, members, rank):
    """Dependence-chain cycles the match would collapse; ``rank`` is the
    DFG's topological rank (:attr:`~repro.graph.tables.DFGTables.rank`)."""
    longest = {}
    for uid in sorted(members, key=rank.__getitem__):
        arrival = 0
        for pred in dfg.predecessors(uid):
            if pred in members:
                arrival = max(arrival, longest[pred])
        longest[uid] = arrival + 1
    return max(longest.values()) if longest else 0


def schedule_with_ises(dfg, groups, machine, technology,
                       priority="children"):
    """Contract given ``groups`` into ``dfg`` and list-schedule the
    result (replacement itself schedules the contraction its pick
    built)."""
    graph, units = contract_dfg(dfg, groups, technology)
    return list_schedule(graph, units, machine, priority=priority)


def replace_and_schedule(dfg, selected, machine, technology, constraints,
                         priority="children", obs=None):
    """Full replacement of one block; returns ``(schedule, groups)``."""
    plan = ReplacementPlan(selected, constraints, technology, machine,
                           priority)
    return plan._schedule(dfg, plan._active(dfg, plan.merged, obs), obs)
