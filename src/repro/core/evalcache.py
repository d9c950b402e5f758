"""Cross-restart memoization of deterministic candidate evaluation.

Every exploration round scores its candidate proposals by fixing them
into the *original* block DFG and list-scheduling the contracted unit
graph (:meth:`ExplorerEngine._evaluate`).  That evaluation is a
pure function of the DFG, the trial candidate list and the software
latencies — and converged restarts propose overwhelmingly overlapping
candidate sets, so the same schedules are rebuilt from scratch over and
over.  :class:`EvalCache` memoises the resulting block cycle counts.

Keys are canonical fingerprints:

* the **DFG identity** — a structural digest (function, label, nodes
  with opcode/sources/dests, edges) computed once per DFG object and
  cached on it, so pickled copies in pool workers carry it along;
* the **trial candidates** — per candidate ``(sorted members, sorted
  (uid, option label, delay, area))``, taken as an *ordered* tuple.
  Order matters: contraction names ISE supernodes ``ise0, ise1, …`` in
  candidate order and the list scheduler tie-breaks on unit name, so
  two orderings of the same set may legally schedule differently —
  collapsing them to a frozenset could return a cycle count the
  pre-memo engine would not have produced for that exact call;
* the **software latencies** the evaluation saw (from the io tables).

Because the memoised value is exactly what the evaluation would have
recomputed, a hit returns the cycle count the engine would have
computed for that exact call.  One cache is shared across all rounds and
restarts of a block (and across blocks — the DFG digest keys them
apart).  It is the only evaluation memo: it lives and dies with its
engine.  Under ``jobs>1`` the cache pickles as a read-only warm
snapshot: workers start from whatever the parent had accumulated and
count their own hits/misses (replayed into the parent's metrics); what
a worker adds stays in that worker's copy.
"""

import hashlib

#: Entry cap — a backstop against pathological candidate churn, far
#: above what any real block produces.
MAX_ENTRIES = 1 << 17


def dfg_fingerprint(dfg):
    """Structural digest of a DFG, computed once and cached on it.

    A stable content hash (not the builtin ``hash``, which is salted
    per process), so pool workers look snapshot entries up under the
    same key the parent stored them with.  The cached attribute stays
    out of pickles: whether an earlier explore already set it on a
    shared DFG must not change a pickle's bytes.
    """
    cached = getattr(dfg, "_evalcache_fp", None)
    if cached is not None:
        return cached
    nodes = tuple(
        (uid, dfg.op(uid).name, tuple(dfg.op(uid).sources),
         tuple(dfg.op(uid).dests))
        for uid in dfg.nodes)
    edges = tuple(sorted(dfg.edge_pairs()))
    payload = repr((dfg.function, dfg.label, nodes, edges))
    fingerprint = hashlib.sha1(payload.encode()).hexdigest()
    dfg._evalcache_fp = fingerprint
    return fingerprint


def candidate_fingerprint(members, option_of):
    """Canonical key part for one candidate's ``(members, options)``."""
    return (tuple(sorted(members)),
            tuple(sorted((uid, option.label, option.delay_ns, option.area)
                         for uid, option in option_of.items())))


class EvalCache:
    """Memo of ``fingerprint -> block cycles`` with hit/miss tallies.

    One instance serves one engine, hence one (machine, technology)
    pair, so the keys need no machine identity.
    """

    __slots__ = ("_entries", "hits", "misses")

    def __init__(self):
        self._entries = {}
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._entries)

    def key(self, dfg, candidates, software_cycles):
        """Canonical fingerprint of one ``_evaluate`` call."""
        return (dfg_fingerprint(dfg),
                tuple(c.fingerprint() for c in candidates),
                software_cycles)

    def get(self, key):
        """Memoised cycles for ``key`` (None on miss)."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, cycles):
        """Record an evaluation outcome (until the entry cap is hit)."""
        if len(self._entries) < MAX_ENTRIES:
            self._entries[key] = cycles

    def stats(self):
        """``(hits, misses, entries)`` snapshot."""
        return (self.hits, self.misses, len(self._entries))

    # -- pickling: warm read-only snapshot for pool workers ----------------

    def __getstate__(self):
        return {"entries": dict(self._entries)}

    def __setstate__(self, state):
        self._entries = state["entries"]
        # Worker-side tallies restart at zero so the deltas each task
        # replays into the parent metrics are intrinsic to that task.
        self.hits = 0
        self.misses = 0

    def __repr__(self):
        return "EvalCache({} entries, {} hits / {} misses)".format(
            len(self._entries), self.hits, self.misses)
