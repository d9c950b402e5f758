"""ISE candidates.

An :class:`ISECandidate` is the unit of output of exploration and the
unit of input to merging/selection: a convex, legal set of operations
of one basic-block DFG, together with the hardware option chosen for
every member, and the derived ASFU timing/area.
"""

from ..graph.analysis import check_candidate, input_values, output_values
from ..graph.subgraph import pattern_graph
from ..hwlib.asfu import subgraph_area, subgraph_delay_ns
from .evalcache import candidate_fingerprint


class ISECandidate:
    """One explored ISE: members + chosen hardware options + metrics.

    Parameters
    ----------
    dfg:
        The DFG the candidate lives in (*original*, pre-contraction).
    members:
        Frozenset of node uids.
    option_of:
        dict uid → chosen :class:`~repro.hwlib.options.HardwareOption`.
    technology:
        Delay→cycles conversion.
    source:
        Diagnostic tag naming the producing algorithm.
    """

    def __init__(self, dfg, members, option_of, technology, source="MI"):
        self.dfg = dfg
        self.members = frozenset(members)
        self.option_of = {uid: option_of[uid] for uid in self.members}
        self.technology = technology
        self.source = source
        self.delay_ns = subgraph_delay_ns(
            dfg, self.members, self.option_of.__getitem__)
        self.area = subgraph_area(self.members, self.option_of.__getitem__)
        self.cycles = technology.cycles_for_delay(self.delay_ns)
        # Benefit metadata filled in by the explorer / selection stage.
        self.cycle_saving = 0
        self.weighted_saving = 0.0

    def fingerprint(self):
        """The candidate's evaluation-cache key part (computed once).

        :func:`~repro.core.evalcache.candidate_fingerprint` of the
        members and options; a candidate never changes after
        construction, so the first call's tuple serves every later one.
        It is left out of pickles, which stay byte-identical.
        """
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:
            fingerprint = self._fingerprint = candidate_fingerprint(
                self.members, self.option_of)
        return fingerprint

    def __getstate__(self):
        state = self.__dict__
        if "_fingerprint" in state:
            state = dict(state)
            del state["_fingerprint"]
        return state

    # -- derived ---------------------------------------------------------

    @property
    def size(self):
        """Number of member operations."""
        return len(self.members)

    def num_inputs(self):
        """``IN(S)``: distinct values read from outside."""
        return len(input_values(self.dfg, self.members))

    def num_outputs(self):
        """``OUT(S)``: distinct values produced for outside."""
        return len(output_values(self.dfg, self.members))

    def software_chain_cycles(self):
        """Critical path through the members at 1 cycle per op —
        the latency the ISE collapses."""
        longest = {}
        for uid in sorted(self.members):
            arrival = 0
            for pred in self.dfg.predecessors(uid):
                if pred in self.members:
                    arrival = max(arrival, longest.get(pred, 0))
            longest[uid] = arrival + 1
        return max(longest.values()) if longest else 0

    def pattern(self):
        """Opcode-labelled pattern graph (for merging / replacement)."""
        return pattern_graph(self.dfg, self.members)

    def validate(self, constraints):
        """Raise :class:`~repro.errors.ConstraintError` when illegal."""
        from ..errors import ConstraintError

        check_candidate(self.dfg, self.members, constraints)
        limit = constraints.max_ise_cycles
        if limit is not None and self.cycles > limit:
            raise ConstraintError(
                "ISE needs {} cycles, pipestage limit is {}".format(
                    self.cycles, limit))
        return self

    def describe(self):
        """One-line human-readable description."""
        ops = ", ".join(
            "#{}:{}".format(uid, self.dfg.op(uid).name)
            for uid in sorted(self.members))
        return ("ISE[{}] {{{}}} delay={:.2f}ns cycles={} area={:.0f}um2"
                .format(self.source, ops, self.delay_ns, self.cycles,
                        self.area))

    def __repr__(self):
        return "ISECandidate({} ops, {} cyc, {:.0f} um2)".format(
            self.size, self.cycles, self.area)

    def __eq__(self, other):
        return (isinstance(other, ISECandidate)
                and other.dfg is self.dfg
                and other.members == self.members
                and other.option_of == self.option_of)

    def __hash__(self):
        return hash((id(self.dfg), self.members))
