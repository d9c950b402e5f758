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
apart).  Under ``jobs>1`` the cache pickles as a read-only warm
snapshot: workers start from whatever the parent had accumulated and
count their own hits/misses (replayed into the parent's metrics).

Inside a pool worker there is additionally a **shared tier**
(:class:`repro.core.pool.SharedEvalCache`): a local miss falls back to
the read-mostly shared-memory table — where a cycle count memoised by
*any* worker of *any* earlier dispatch may already sit — and every
locally computed value is appended to a per-worker write log that the
parent folds into the table between dispatches.  Shared-tier hits are
tallied separately (``shared_hits``) and promoted into the local dict.
The shared tier spans explorers with *different* machines and
technologies (the evaluation grid, the single-issue baseline), so its
keys are additionally scoped by the ``scope`` string the owning
explorer passes in — without it a 2-issue cycle count could answer a
4-issue probe and silently break bit-parity.
"""

import hashlib

from .pool import shared_key_bytes, worker_cache_note, worker_shared_cache

#: Entry cap — a backstop against pathological candidate churn, far
#: above what any real block produces.
MAX_ENTRIES = 1 << 17

def eval_scope(machine, technology):
    """The canonical scope string of one (machine, technology) pair.

    Every shared-memory table key and every serve session lane is
    qualified by this exact string, so "same scope" means the same
    thing across both: a 2-issue cycle count can never answer a
    4-issue probe, and the exploration service batches only requests
    whose evaluations are interchangeable.
    """
    return "{}is|{}|{}|{!r}".format(
        machine.issue_width, machine.register_file.spec,
        sorted(machine.fu_counts.items()), technology)


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

    ``scope`` qualifies this cache's keys in the cross-worker shared
    tier (machine + technology identity); it is irrelevant to the local
    dict, which never outlives its explorer.
    """

    __slots__ = ("_entries", "hits", "misses", "shared_hits", "scope")

    def __init__(self, scope=""):
        self._entries = {}
        self.hits = 0
        self.misses = 0
        self.shared_hits = 0
        self.scope = scope

    def __len__(self):
        return len(self._entries)

    def key(self, dfg, candidates, software_cycles):
        """Canonical fingerprint of one ``_evaluate`` call."""
        return (dfg_fingerprint(dfg),
                tuple(c.fingerprint() for c in candidates),
                software_cycles)

    def get(self, key):
        """Memoised cycles for ``key`` (None on miss).

        Tier order is nearest-first: the local dict, then the attached
        shared-memory table (pool workers only).  A shared hit is
        promoted into the local dict, so repeat probes stay a dict
        lookup.
        """
        value = self._entries.get(key)
        if value is not None:
            self.hits += 1
            return value
        shared = worker_shared_cache()
        if shared is not None:
            cycles = shared.lookup(shared_key_bytes(self.scope, key))
            if cycles is not None:
                self.hits += 1
                self.shared_hits += 1
                if len(self._entries) < MAX_ENTRIES:
                    self._entries[key] = cycles
                return cycles
        self.misses += 1
        return None

    def put(self, key, cycles):
        """Record an evaluation outcome in every reachable tier.

        The local dict stores it directly; the shared tier receives it
        through the per-worker insert log the pool parent folds between
        dispatches.
        """
        if len(self._entries) < MAX_ENTRIES:
            self._entries[key] = cycles
        worker_cache_note(self.scope, key, cycles)

    def stats(self):
        """``(hits, misses, entries)`` snapshot."""
        return (self.hits, self.misses, len(self._entries))

    # -- pickling: warm read-only snapshot for pool workers ----------------

    def __getstate__(self):
        return {"entries": dict(self._entries), "scope": self.scope}

    def __setstate__(self, state):
        self._entries = state["entries"]
        self.scope = state.get("scope", "")
        # Worker-side tallies restart at zero so the deltas each task
        # replays into the parent metrics are intrinsic to that task.
        self.hits = 0
        self.misses = 0
        self.shared_hits = 0

    def __repr__(self):
        return "EvalCache({} entries, {} hits / {} misses)".format(
            len(self._entries), self.hits, self.misses)
