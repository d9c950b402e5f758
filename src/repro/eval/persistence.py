"""Saving and loading experiment results as JSON.

The chapter-5 grid takes minutes to explore; these helpers serialise
the *outcomes* — figure rows, headline summaries, per-candidate
metadata — so notebooks and CI can diff runs without recomputing.
Candidates serialise by structure (members, opcodes, option labels,
timing/area), which is enough to reconstruct reports and to compare
exploration runs; the DFG itself is reproducible from the workload
name.
"""

import hashlib
import json
import os
import pickle

from ..errors import ReproError
from ..obs import ensure_observer

#: Set to ``0`` to disable the on-disk exploration cache.
CACHE_ENV = "REPRO_CACHE"
#: Overrides the cache directory (default ``./.repro_cache``).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: LRU byte bound over the cache directory (unset/0 = unbounded).
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Bump when the pickled ``ExploredApplication`` layout changes; stale
#: schema versions simply miss instead of unpickling garbage.
_CACHE_SCHEMA = 2


def _max_bytes_from_env():
    text = os.environ.get(CACHE_MAX_BYTES_ENV, "").strip()
    if not text:
        return None
    try:
        limit = int(text)
    except ValueError:
        return None
    return limit if limit > 0 else None


class ExplorationCache:
    """On-disk cache of :class:`~repro.core.flow.ExploredApplication`.

    Exploration dominates every evaluation sweep, yet its result is a
    pure function of (workload, machine, opt level, algorithm,
    exploration parameters, seed).  This cache pickles the explored
    bundle under a digest of exactly those inputs so repeated pytest
    sessions, CLI runs and notebooks skip straight to selection.

    Enabled by default; set ``REPRO_CACHE=0`` to disable, or
    ``REPRO_CACHE_DIR`` to relocate from ``./.repro_cache``.  Stale
    entries are invalidated by their key: any change to the parameters
    (or to ``_CACHE_SCHEMA`` on layout changes) produces a different
    digest, and corrupt or unreadable files are treated as misses.

    ``REPRO_CACHE_MAX_BYTES`` (or ``max_bytes=``) bounds the cache
    directory: after every store, least-recently-*used* entries (file
    mtime, refreshed on hit) are evicted until the directory fits the
    budget again.  The entry just written is never its own victim, so
    one oversized bundle still caches.
    """

    def __init__(self, directory=None, enabled=None, obs=None,
                 max_bytes=None):
        if enabled is None:
            enabled = os.environ.get(CACHE_ENV, "1").strip().lower() \
                not in ("0", "false", "no", "off")
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV, ".repro_cache")
        self.directory = directory
        self.enabled = enabled
        self.max_bytes = max_bytes if max_bytes is not None \
            else _max_bytes_from_env()
        self.obs = ensure_observer(obs)
        # Always-on tallies: hit/miss/store counts were previously
        # invisible; they surface through ``stats`` and the
        # ``cache.disk_*`` metrics counters.
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.stored_bytes = 0
        self.evictions = 0

    @property
    def stats(self):
        """Hit/miss/store tallies of this cache instance."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "stored_bytes": self.stored_bytes,
                "evictions": self.evictions}

    @staticmethod
    def key(**fields):
        """Stable digest of the exploration inputs.

        ``fields`` must be JSON-able (params objects can be passed as
        their ``vars()`` dict); the schema version is mixed in so
        layout bumps invalidate every old entry at once.
        """
        fields["_schema"] = _CACHE_SCHEMA
        text = json.dumps(fields, sort_keys=True, default=repr)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]

    def path_for(self, key):
        """File backing one cache entry."""
        return os.path.join(self.directory, key + ".pkl")

    def load(self, key):
        """The cached payload, or ``None`` on any kind of miss.

        A hit refreshes the file's LRU recency.
        """
        if not self.enabled:
            return None
        obs = self.obs
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            payload = None
        if payload is not None:
            self.hits += 1
            try:
                os.utime(path)         # LRU recency for the byte bound
            except OSError:
                pass
            if obs:
                obs.count("cache.disk_hit")
                obs.event("cache", op="load", status="hit", key=key)
            return payload
        self.misses += 1
        if obs:
            obs.count("cache.disk_miss")
            obs.event("cache", op="load", status="miss", key=key)
        return None

    def store(self, key, payload):
        """Atomically persist ``payload`` under ``key``."""
        if not self.enabled:
            return
        self.stores += 1
        obs = self.obs
        if obs:
            obs.count("cache.disk_store")
            obs.event("cache", op="store", status="store", key=key)
        try:
            blob = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception:
            return                     # unpicklable payloads never cache
        self._write_file(key, blob)

    def _write_file(self, key, blob):
        """Best-effort atomic write of one entry, then LRU eviction."""
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(key)
        scratch = path + ".tmp.{}".format(os.getpid())
        try:
            with open(scratch, "wb") as handle:
                handle.write(blob)
            os.replace(scratch, path)
            # Sizing signal for the docs' cache-footprint guidance and
            # the ``cache.disk_bytes`` counter.
            self.stored_bytes += len(blob)
            if self.obs:
                self.obs.count("cache.disk_bytes", len(blob))
        except OSError:
            # Caching is best-effort: an unwritable directory must not
            # fail the evaluation that produced the payload.
            if os.path.exists(scratch):
                try:
                    os.remove(scratch)
                except OSError:
                    pass
            return
        self._evict_to_budget(keep=path)

    def _evict_to_budget(self, keep):
        """Drop least-recently-used entries until the budget fits."""
        if self.max_bytes is None:
            return
        entries = []
        try:
            with os.scandir(self.directory) as scan:
                for entry in scan:
                    if not entry.name.endswith(".pkl"):
                        continue
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue
                    entries.append((stat.st_mtime, stat.st_size,
                                    entry.path))
        except OSError:
            return
        total = sum(size for __, size, ___ in entries)
        keep = os.path.abspath(keep)
        obs = self.obs
        for __, size, path in sorted(entries):
            if total <= self.max_bytes:
                break
            if os.path.abspath(path) == keep:
                continue               # the fresh entry never self-evicts
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            self.evictions += 1
            if obs:
                obs.count("cache.disk_evictions")


def candidate_record(candidate):
    """JSON-able description of one ISE candidate."""
    return {
        "source": candidate.source,
        "members": sorted(candidate.members),
        "opcodes": {str(uid): candidate.dfg.op(uid).name
                    for uid in sorted(candidate.members)},
        "options": {str(uid): candidate.option_of[uid].label
                    for uid in sorted(candidate.members)},
        "delay_ns": candidate.delay_ns,
        "cycles": candidate.cycles,
        "area": candidate.area,
        "cycle_saving": candidate.cycle_saving,
        "weighted_saving": candidate.weighted_saving,
        "num_inputs": candidate.num_inputs(),
        "num_outputs": candidate.num_outputs(),
    }


def report_record(report):
    """JSON-able description of one :class:`FlowReport`."""
    return {
        "baseline_cycles": report.baseline_cycles,
        "final_cycles": report.final_cycles,
        "reduction": report.reduction,
        "num_ises": report.num_ises,
        "area": report.area,
        "selected": [candidate_record(entry.representative)
                     for entry in report.selection.selected],
    }


def figure_record(rows):
    """JSON-able form of a Fig 5.2.1/5.2.2-style row mapping."""
    return [
        {
            "algorithm": algo,
            "ports": ports,
            "issue": issue,
            "opt": opt,
            "cells": {str(level): value for level, value in cells.items()},
        }
        for (algo, ports, issue, opt), cells in rows.items()
    ]


def load_figure(records):
    """Inverse of :func:`figure_record`."""
    rows = {}
    for record in records:
        key = (record["algorithm"], record["ports"], record["issue"],
               record["opt"])
        rows[key] = {_level(level): value
                     for level, value in record["cells"].items()}
    return rows


def _level(text):
    try:
        return int(text)
    except ValueError:
        raise ReproError("malformed figure level {!r}".format(text)) from None


def save_json(path, payload):
    """Write any JSON-able payload with stable formatting."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path):
    """Read a JSON payload written by :func:`save_json`."""
    with open(path) as handle:
        return json.load(handle)
