"""Lockstep batched ant construction (the Ready-Matrix draw loop).

Trails and merits only change *between* iterations, so within one
iteration — and therefore within any group of iterations run against
the same state — the Eq. 1 weight of every (operation, option) slot is
a constant.  :class:`BatchedAntRunner` exploits that: ``B`` ants
advance **in lockstep**, one draw each per step, against one weight
list fetched per batch
(:meth:`~repro.core.state.ExplorationState.cp_weights_batch`).  Each
ant keeps plain per-block tables:

* its ready slots as a sorted list with a parallel weight list, and a
  list of remaining-predecessor counts that moves slots in and out of
  it as operations are placed;
* the roulette as one ``rng.random()`` per ant per step (ant-index
  order — at ``B == 1`` one ant's draws in step order), a
  running sum of the ready weights and a ``bisect_left`` for the first
  sum reaching the scaled draw.  Unready slots weigh nothing, and
  adding zeros leaves a float sum unchanged, so the pick is the one a
  sum over every slot would make, bit for bit;
* the drawn placement applied at once, through the schedule's own
  placement code: software options and fresh ISE cluster opens reserve
  the first fitting cycle of the ant's reservation table (an open reads
  its singleton ASFU demand off the DFG's per-node tables), and a
  hardware option whose operation has a parent already in one of that
  ant's clusters takes the join path, which tries those clusters first
  (:meth:`~repro.core.iteration.IterationSchedule.join_parent`).

The ``stat_*`` tallies feed the ``batch.*`` observability counters:
``stat_rows_vectorized`` counts lockstep draws and
``stat_scalar_fallbacks`` counts join-path placements.

``resolve_batch`` mirrors :func:`~repro.core.parallel.resolve_jobs`:
an explicit ``batch=`` argument wins, then ``REPRO_ANT_BATCH``, then
the default of 16.  ``REPRO_ANT_BATCH=1`` updates trails and merits
after every ant, the thesis's loop: it runs the same runner one ant at
a time and is bit-identical to the pre-batching engine.
"""

import numbers
import os
from bisect import bisect_left
from itertools import accumulate

from ..errors import ConfigError, ExplorationError
from .iteration import IterationSchedule

#: Environment variable supplying the default ant batch size.
BATCH_ENV = "REPRO_ANT_BATCH"

#: Ants per lockstep batch when neither ``batch=`` nor the environment
#: says otherwise.  16 amortises the per-batch trail/merit fold well
#: while keeping per-round RNG consumption moderate.
DEFAULT_BATCH = 16


def resolve_batch(batch=None, obs=None):
    """Normalise a ``batch`` request into a positive ant count.

    ``None`` falls back to ``REPRO_ANT_BATCH`` (default
    :data:`DEFAULT_BATCH`); ``0`` or ``"auto"`` selects the default
    explicitly.  ``1`` updates after every ant — the pre-batching digest
    lineage.  Booleans and non-integer numbers raise the same
    :class:`~repro.errors.ConfigError` as an unparsable string.  When
    an enabled ``obs`` observer is passed, the effective size is
    recorded as the ``batch.effective`` gauge.
    """
    if batch is None:
        batch = os.environ.get(BATCH_ENV, "").strip() or DEFAULT_BATCH
    if isinstance(batch, str):
        if batch.strip().lower() == "auto":
            batch = 0
        else:
            try:
                batch = int(batch)
            except ValueError:
                raise ConfigError(
                    "batch must be an integer or 'auto', got {!r}".format(
                        batch)) from None
    elif isinstance(batch, bool) or not isinstance(batch, numbers.Integral):
        raise ConfigError(
            "batch must be an integer or 'auto', got {!r}".format(batch))
    batch = int(batch)
    if batch == 0:
        batch = DEFAULT_BATCH
    if batch < 1:
        raise ConfigError(
            "batch must be a positive ant count, got {}".format(batch))
    if obs:
        obs.gauge("batch.effective", batch)
    return batch


def effective_batch(batch, n_nodes):
    """Per-round lockstep width: ``batch`` capped at ``n_nodes // 2``.

    Ants inside one lockstep batch all draw against the same frozen
    trail/merit state — the batch trades per-ant feedback for
    throughput.  On tiny DFGs that trade is all cost and no gain: a
    batch saves little set-up there, while the colony's convergence
    leans hard on seeing every ant's update.  Capping the width at half
    the node count keeps small rounds at (or near) the per-ant loop's
    learning density and leaves the large, expensive rounds — where
    one weight fetch per batch actually pays — at the full requested
    width.
    """
    return min(batch, max(1, n_nodes // 2))


class BatchedAntRunner:
    """Constructs ``B`` iteration schedules per call, in lockstep.

    One runner lives for one exploration round: the flat slot layout of
    the round's :class:`~repro.core.state.ExplorationState` and the
    software demand of every slot are precomputed once, the node index
    and topology come from the DFG's own
    :class:`~repro.graph.tables.DFGTables`; :meth:`run` then performs
    ``n_nodes`` lockstep steps per batch.
    Construction is exact — at any batch size each ant's schedule is
    the one a one-ant-at-a-time walk would build from the same per-ant
    draw stream.
    """

    def __init__(self, dfg, state, machine, technology, constraints):
        self.dfg = dfg
        self.state = state
        self.machine = machine
        self.technology = technology
        self.constraints = constraints
        tables = dfg.tables()
        index = tables.index
        self._n_nodes = len(tables.uids)
        # Node tables by index: successor indices (adjacency is
        # deduplicated, so they match the predecessor counts) and the
        # remaining-predecessor count every ant starts from.
        self._succ_index = tables.succ_index
        self._base_preds = tables.base_preds
        # Flat slot layout shared with the state's trail/merit vectors:
        # an operation's options are consecutive slots, operations in
        # ``dfg.nodes`` order, so ready lists stay sorted by slot.
        pairs = state.slot_pairs()
        self._slot_pairs = pairs
        self._slot_node = [index[uid] for uid, __ in pairs]
        first = [len(pairs)] * self._n_nodes
        stop = [0] * self._n_nodes
        for slot, node in enumerate(self._slot_node):
            first[node] = min(first[node], slot)
            stop[node] = slot + 1
        self._node_span = list(zip(first, stop))
        # The software demand of every slot is a function of the
        # (frozen) DFG alone, so it is looked up once here.
        probe = IterationSchedule(dfg, machine, technology, constraints)
        self._slot_sw_needs = [
            None if option.is_hardware
            else probe.software_needs(uid, option)
            for uid, option in pairs]
        #: Always-on tallies feeding the ``batch.*`` obs counters:
        #: ants built, join-path placements and lockstep draws.
        self.stat_ants_batched = 0
        self.stat_scalar_fallbacks = 0
        self.stat_rows_vectorized = 0

    # -- one lockstep batch -------------------------------------------------

    def run(self, rng, n_ants):
        """Construct ``n_ants`` verified schedules with lockstep draws.

        Consumes exactly ``n_ants * n_nodes`` calls of ``rng.random()``
        in (step, ant) order; at ``n_ants == 1`` that is one draw per
        step.
        """
        n_nodes = self._n_nodes
        schedules = [IterationSchedule(self.dfg, self.machine,
                                       self.technology, self.constraints)
                     for __ in range(n_ants)]
        if not n_nodes:
            return schedules
        weights = self.state.cp_weights_batch().tolist()
        node_span = self._node_span
        ready = [slot for node, count in enumerate(self._base_preds)
                 if not count for slot in range(*node_span[node])]
        ants = [(schedule, list(ready), [weights[slot] for slot in ready],
                 list(self._base_preds))
                for schedule in schedules]
        slot_node = self._slot_node
        succ_index = self._succ_index
        place = self._place
        draw = rng.random
        self.stat_ants_batched += n_ants
        for __ in range(n_nodes):
            for schedule, slots, ready_weights, remaining in ants:
                pick = draw()
                count = len(slots)
                if not count:
                    raise ExplorationError(
                        "ready set empty with work remaining")
                cum = list(accumulate(ready_weights))
                total = cum[-1]
                if total > 0.0:
                    # Weights are positive, so a pick <= 0 lands on the
                    # first candidate; an overshoot maps to the last.
                    index = bisect_left(cum, pick * total)
                    if index == count:
                        index -= 1
                else:
                    # Zero (or underflowed) total: uniform pick.
                    index = min(int(pick * count), count - 1)
                slot = slots[index]
                place(schedule, slot)
                # Retire the placed operation's slots (consecutive in
                # the sorted ready list) and admit newly ready ones.
                node = slot_node[slot]
                start, stop = node_span[node]
                at = index - (slot - start)
                del slots[at:at + stop - start]
                del ready_weights[at:at + stop - start]
                for succ in succ_index[node]:
                    remaining[succ] -= 1
                    if not remaining[succ]:
                        start, stop = node_span[succ]
                        at = bisect_left(slots, start)
                        slots[at:at] = range(start, stop)
                        ready_weights[at:at] = weights[start:stop]
        self.stat_rows_vectorized += n_ants * n_nodes
        return [schedule.verify() for schedule in schedules]

    # -- placements ---------------------------------------------------------

    def _place(self, schedule, slot):
        """Apply one drawn (operation, option) to one ant's schedule."""
        uid, option = self._slot_pairs[slot]
        needs = self._slot_sw_needs[slot]
        if needs is not None:
            schedule._place_software(uid, option, needs)
            return
        cluster_of = schedule.cluster_of
        if cluster_of:
            for pred in schedule._preds[uid]:
                if pred in cluster_of:
                    self.stat_scalar_fallbacks += 1
                    if schedule.join_parent(uid, option):
                        return
                    break
        schedule._open_cluster(uid, option)
