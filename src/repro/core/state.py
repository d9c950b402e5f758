"""Per-round ACO state: trails, merits and the probability formulas.

One :class:`ExplorationState` instance lives for one exploration round.
It stores, for every (operation, implementation option) pair, the trail
(pheromone) and merit values, and computes the thesis's two probability
formulas:

* Eq. 1 — *chosen probability* (cp), normalised over every option of
  every operation currently in the Ready-Matrix, including the
  scheduling-priority (SP) term;
* Eq. 3 — *selected probability* (sp), normalised per operation, used
  by the convergence test against ``P_END``.

Storage layout
--------------
Trails and merits live in two contiguous ``numpy`` float64 vectors; one
flat slot per (operation, option) pair, operations in ``dfg.nodes``
order, options in table order.  A per-uid ``(offset, count)`` span maps
an operation to its slice, so the maintenance sweeps
(:meth:`clip_trails`, :meth:`normalize_merits`, the Fig. 4.3.5 trail
update) are vector operations instead of per-key dict writes.  The
public ``trail`` / ``merit`` attributes remain mapping-like
(:class:`_VectorMap` views keyed by ``(uid, label)``) so callers and
tests keep their dict idiom; every write through a view marks the
operation *dirty*, so :meth:`converged` re-checks only dirty operations
against ``P_END``.  The Eq. 1 weights of every slot come as one vector
per batch (:meth:`cp_weights_batch`).

All vector arithmetic is elementwise and mirrors the scalar expression
order of the original dict implementation, so results are bit-identical
to the per-key formulation.
"""

import numpy as np

from ..errors import ExplorationError
from ..sched.priorities import get_priority

#: Weight floor keeping the Eq. 1 roulette wheel well defined.
_WEIGHT_FLOOR = 1e-12

_MISSING = object()


class RoundMemo(dict):
    """Round-lifetime geometry memo that counts its own hit rate.

    Pure-geometry facts (group growth, delay, I/O shape) recur every
    iteration once the colony converges; the hit/miss tallies feed the
    ``grouping.memo_*`` observability counters at round end.  Plain
    dicts still work wherever a memo is accepted — only this subclass
    counts.
    """

    __slots__ = ("hits", "misses")

    def __init__(self):
        super().__init__()
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        """``dict.get`` that tallies a hit or a miss."""
        value = dict.get(self, key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        return value


class _VectorMap:
    """Mapping view over one per-(uid, label) slot vector.

    Behaves like the dict it replaces — ``state.trail[(uid, label)]``
    reads and writes the backing array — while marking every written
    operation in the state's convergence dirty set, so the convergence
    flags stay coherent.  It holds the state's slot index, slot keys
    and dirty set rather than the state itself, so a dropped round
    state is freed by reference counting, not left to the cyclic
    collector.
    """

    __slots__ = ("_index", "_keys", "_dirty", "_vec")

    def __init__(self, index, keys, dirty, vec):
        self._index = index
        self._keys = keys
        self._dirty = dirty
        self._vec = vec

    def __getitem__(self, key):
        return float(self._vec[self._index[key]])

    def __setitem__(self, key, value):
        self._vec[self._index[key]] = value
        self._dirty.add(key[0])

    def __contains__(self, key):
        return key in self._index

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)

    def keys(self):
        return list(self._keys)

    def values(self):
        return [float(v) for v in self._vec]

    def items(self):
        return list(zip(self._keys, (float(v) for v in self._vec)))

    def get(self, key, default=None):
        index = self._index.get(key)
        if index is None:
            return default
        return float(self._vec[index])


class ExplorationState:
    """Trail/merit store for one round of exploration."""

    def __init__(self, dfg, io_tables, params, priority="children"):
        self.dfg = dfg
        self.params = params
        #: Round-lifetime memo for pure geometry facts (see
        #: :func:`~repro.core.merit.update_merits`).
        self.round_memo = RoundMemo()
        #: Cheap always-on tallies read by the observability hooks at
        #: round end (plain int adds; never consulted on the hot path).
        self.stats = {"weight_rebuilds": 0, "conv_refreshes": 0}
        #: uid -> tuple of ImplementationOption
        self.options = {}
        self._uids = list(dfg.nodes)
        self._flat_keys = []          # flat slot -> (uid, label)
        self._flat_index = {}         # (uid, label) -> flat slot
        self._option_map = {}         # (uid, label) -> option
        self._span = {}               # uid -> (offset, stop)
        trail_init = []
        merit_init = []
        sw_slots = []
        sw_cycles = []
        for uid in self._uids:
            table = io_tables[uid]
            opts = tuple(table)
            self.options[uid] = opts
            offset = len(self._flat_keys)
            for option in opts:
                key = (uid, option.label)
                self._flat_index[key] = len(self._flat_keys)
                self._flat_keys.append(key)
                self._option_map[key] = option
                trail_init.append(params.initial_trail)
                if option.is_hardware:
                    merit_init.append(params.initial_merit_hardware)
                else:
                    merit_init.append(params.initial_merit_software)
                    sw_slots.append(len(self._flat_keys) - 1)
                    sw_cycles.append(float(option.cycles))
            self._span[uid] = (offset, len(self._flat_keys))
        # Hardware-option views are requested every iteration by the
        # merit sweep and the grouping pass; the option tables are
        # frozen for the round, so build the per-uid lists once.
        self._hw_options = {uid: [opt for opt in self.options[uid]
                                  if opt.is_hardware]
                            for uid in self._uids}
        #: Uids owning at least one hardware option, in node order.
        self.hw_uids = tuple(uid for uid in self._uids
                             if self._hw_options[uid])
        self._hw_slots = {uid: [(opt, self._flat_index[(uid, opt.label)])
                                for opt in self._hw_options[uid]]
                          for uid in self.hw_uids}
        self._trail_vec = np.array(trail_init, dtype=np.float64)
        self._merit_vec = np.array(merit_init, dtype=np.float64)
        self._sw_slots = np.array(sw_slots, dtype=np.intp)
        self._sw_cycles = np.array(sw_cycles, dtype=np.float64)
        # SP: the scheduling priority term of Eq. 1.  The paper uses the
        # number of child operations; §6 suggests trying mobility/depth,
        # so the function is pluggable.  Values are frozen for the round
        # and normalised to the merit scale so the lambda weight is
        # comparable across DFG sizes.  (get_priority is imported at
        # module level so forked pool workers resolve it during warmup,
        # not inside the first scheduled iteration.)
        raw = get_priority(priority)(dfg.graph)
        lowest = min(raw.values(), default=0)
        shifted = {uid: raw[uid] - lowest for uid in raw}
        peak = max(shifted.values(), default=0)
        scale = params.merit_scale / peak if peak else 0.0
        self.sp_term = {uid: shifted.get(uid, 0) * scale
                        for uid in dfg.nodes}
        self._sp_vec = np.array(
            [self.sp_term.get(uid, 0.0) for uid, __ in self._flat_keys],
            dtype=np.float64)
        # Cache driven by the dirty set: the per-uid best selected
        # probability of the Eq. 3 test.
        self._best_sp = {}
        self._conv_dirty = set(self._uids)
        self.trail = _VectorMap(self._flat_index, self._flat_keys,
                                self._conv_dirty, self._trail_vec)
        self.merit = _VectorMap(self._flat_index, self._flat_keys,
                                self._conv_dirty, self._merit_vec)

    # -- cache invalidation -------------------------------------------------

    def _touch_all(self):
        """Mark every operation's convergence flag stale (bulk updates)."""
        self._conv_dirty.update(self._uids)

    # -- access -----------------------------------------------------------

    def option(self, uid, label):
        """Look up one option of ``uid`` by label."""
        option = self._option_map.get((uid, label))
        if option is None:
            raise ExplorationError(
                "operation {} has no option {!r}".format(uid, label))
        return option

    def hardware_options(self, uid):
        """The hardware options of operation ``uid``."""
        return self._hw_options[uid]

    def hardware_slots(self, uid):
        """``(option, flat slot)`` of every hardware option of ``uid``."""
        return self._hw_slots[uid]

    def merit_values(self):
        """The merit vector as a plain list of floats, in slot order."""
        return self._merit_vec.tolist()

    def keys_of(self, uid):
        """The (uid, label) merit/trail keys of operation ``uid``."""
        return [(uid, option.label) for option in self.options[uid]]

    # -- Eq. 1: chosen probability over the Ready-Matrix -------------------

    def cp_weights_batch(self):
        """Eq. 1 weight vector over every flat (op, option) slot.

        ``alpha·trail + (1-alpha)·merit + lambda·SP`` per slot, clipped
        to a tiny positive floor so the roulette wheel is always well
        defined (Eq. 1 divides by their sum).  The state only changes
        *between* iterations, so one call serves every ant of a
        lockstep batch (:class:`~repro.core.batch.BatchedAntRunner`).
        """
        self.stats["weight_rebuilds"] += 1    # one full-vector rebuild
        params = self.params
        weights = (params.alpha * self._trail_vec
                   + (1.0 - params.alpha) * self._merit_vec
                   + params.lam * self._sp_vec)
        np.maximum(weights, _WEIGHT_FLOOR, out=weights)
        return weights

    def slot_pairs(self):
        """The ``(uid, option)`` pair of every flat slot, in slot order.

        The batched runner's slot → draw-outcome map; slot order is the
        storage order of the trail/merit vectors (operations in
        ``dfg.nodes`` order, options in table order).
        """
        return [(uid, self._option_map[(uid, label)])
                for uid, label in self._flat_keys]

    # -- Eq. 3: selected probability per operation ---------------------------

    def sp_of(self, uid):
        """Per-option selected probabilities of one operation (Eq. 3)."""
        params = self.params
        offset, stop = self._span[uid]
        values = (params.alpha * self._trail_vec[offset:stop]
                  + (1.0 - params.alpha) * self._merit_vec[offset:stop])
        numerators = {}
        for option, value in zip(self.options[uid], values.tolist()):
            numerators[option.label] = value if value > 0.0 else 0.0
        total = sum(numerators.values())
        if total <= 0.0:
            uniform = 1.0 / len(numerators)
            return {label: uniform for label in numerators}
        return {label: value / total for label, value in numerators.items()}

    def taken_option(self, uid):
        """Option with maximal sp, and that sp value."""
        sp = self.sp_of(uid)
        label = max(sp, key=lambda lbl: (sp[lbl], lbl))
        return self.option(uid, label), sp[label]

    def converged(self):
        """End condition: every operation has an option with sp ≥ P_END.

        Dirty-flag tracked: only operations whose trail/merit changed
        since the previous call are re-checked.
        """
        if self._conv_dirty:
            self._refresh_best_sp()
        p_end = self.params.p_end
        return all(best >= p_end for best in self._best_sp.values())

    def convergence_floor(self):
        """Minimum best selected probability over all operations.

        The per-iteration distance from the ``P_END`` end condition —
        the convergence trajectory recorded by the observability layer.
        Uses the same dirty-flag cache as :meth:`converged`.
        """
        if self._conv_dirty:
            self._refresh_best_sp()
        if not self._best_sp:
            return 1.0
        return min(self._best_sp.values())

    def _refresh_best_sp(self):
        """Recompute the cached best selected probability of dirty uids."""
        self.stats["conv_refreshes"] += len(self._conv_dirty)
        params = self.params
        values = (params.alpha * self._trail_vec
                  + (1.0 - params.alpha) * self._merit_vec)
        flat = values.tolist()
        for uid in self._conv_dirty:
            offset, stop = self._span[uid]
            best = 0.0
            total = 0.0
            for value in flat[offset:stop]:
                if value < 0.0:
                    value = 0.0
                total += value
                if value > best:
                    best = value
            if total <= 0.0:
                self._best_sp[uid] = 1.0 / (stop - offset)
            else:
                self._best_sp[uid] = best / total
        self._conv_dirty.clear()

    # -- bulk updates used by the trail/merit rules -------------------------

    def apply_trail_update(self, chosen_label_of, moved_uids, improved):
        """Vectorised Fig. 4.3.5 trail update.

        ``chosen_label_of`` maps every uid to the label its ant chose
        this iteration; ``moved_uids`` are the operations whose draw
        order moved earlier in a regressing iteration.  Elementwise adds
        match the per-key updates exactly.
        """
        params = self.params
        index = self._flat_index
        chosen = np.zeros(len(self._flat_keys), dtype=bool)
        for uid, label in chosen_label_of.items():
            chosen[index[(uid, label)]] = True
        trail = self._trail_vec
        if improved:
            trail[chosen] += params.rho1
            trail[~chosen] -= params.rho2
        else:
            trail[chosen] -= params.rho3
            trail[~chosen] += params.rho4
            if moved_uids:
                slots = []
                for uid in moved_uids:
                    offset, stop = self._span[uid]
                    slots.extend(range(offset, stop))
                trail[slots] -= params.rho5
        self.clip_trails()

    def multiply_software_merits(self):
        """§4.3 software merit: multiply by the option's execution time
        (Eq. for merit_{x,SW-i}); with the per-op normalisation this
        biases toward options proportionally to their latency
        contribution."""
        if self._sw_slots.size:
            self._merit_vec[self._sw_slots] *= self._sw_cycles
            self._touch_all()

    # -- maintenance ------------------------------------------------------------

    def clip_trails(self):
        """Trails never go negative (keeps Eq. 1/3 well-formed)."""
        np.maximum(self._trail_vec, 0.0, out=self._trail_vec)
        self._touch_all()

    def normalize_merits(self, flat=None):
        """Rescale each operation's merit vector to the configured scale.

        §4.3: "the merit values of operation must be normalized after
        performing merit computation" so that picking among ready
        operations stays fair.  Each operation's merits are scaled to
        sum to ``merit_scale × #options`` with a floor per option.
        ``flat`` is an updated :meth:`merit_values` list to normalise
        and store in place of the current vector.
        """
        params = self.params
        scale = params.merit_scale
        floor = params.merit_floor
        merit = self._merit_vec
        # One flat pass in plain floats (same IEEE doubles as the numpy
        # ops it replaces) and a single bulk write-back: per-segment
        # numpy slicing dominated this per-iteration sweep.
        if flat is None:
            flat = merit.tolist()
        for offset, stop in self._span.values():
            total = 0.0
            for value in flat[offset:stop]:
                total += value
            if total <= 0.0:
                for index in range(offset, stop):
                    flat[index] = scale
                continue
            factor = (scale * (stop - offset)) / total
            for index in range(offset, stop):
                value = flat[index] * factor
                flat[index] = value if value > floor else floor
        merit[:] = flat
        self._touch_all()
