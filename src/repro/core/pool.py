"""Persistent shared-memory worker pool with work-stealing fan-out.

:mod:`repro.core.parallel` used to spin up a fresh
``ProcessPoolExecutor`` per ``explore()`` call, pickle the explorer into
every task and dispatch a static ``(block, restart)`` grid — so
wall-clock was gated by pool startup, repeated serialization and the
slowest block.  This module replaces that with one long-lived
:class:`WorkerPool`:

* **Spawn once** — workers fork on first pooled dispatch and survive
  across ``explore()`` calls (and across the grid cells of an
  :class:`~repro.eval.runner.EvalContext`), so the per-call cost drops
  to one broadcast.
* **One broadcast per dispatch** — the task list (explorer, DFGs, IO
  tables) is pickled *once* into a ``multiprocessing.shared_memory``
  segment; pickle's memo stores shared objects a single time, and every
  worker reads the same segment instead of receiving a private copy
  through a pipe.
* **Work stealing** — tasks are dealt round-robin (longest first when
  the caller provides profile-guided cost estimates) into per-worker
  runs of a shared claim array; a worker that drains its own run steals
  from the tail of the most-loaded victim, so short blocks backfill
  behind long ones instead of idling on a static grid.
* **Shared warm evalcache** — a read-mostly open-addressed hash table
  in a second shared-memory segment memoizes deterministic candidate
  evaluations *across* workers and dispatches.  Workers read it
  lock-free during a dispatch; their new entries travel back with the
  task results as write logs and are folded in by the parent between
  dispatches (single-writer, quiescent-reader — no torn rows).

Results are **bit-identical to serial** at any worker count: tasks keep
their submission identity, the reduction order is unchanged, and a
shared-cache hit returns exactly the cycle count the evaluation would
have recomputed.  Observability records are replayed in task
(= serial fire) order even when a stolen task finishes early.

Segments are unlinked on :func:`shutdown_pools` — wired into
``EvalContext.close()`` — and by an ``atexit`` fallback, so a crashed
or killed run does not strand ``/dev/shm`` blocks.
"""

import atexit
import hashlib
import os
import pickle
import threading
import multiprocessing
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory

import numpy as np

from ..errors import ReproError
from ..obs import capture

#: Slot count of the shared evalcache segment (24 bytes per slot, so
#: 768 KiB; inserts stop at 85% load).
SHARED_SLOTS = 1 << 15


def shared_key_bytes(scope, key):
    """Canonical bytes of one evalcache key *within* ``scope``.

    The per-explorer :class:`~repro.core.evalcache.EvalCache` never
    needs a scope — one instance serves one (machine, technology) pair.
    The shared tier outlives explorers and spans the whole evaluation
    grid, so the machine/technology identity must be part of the key or
    a 2-issue cycle count could answer a 4-issue probe.
    """
    return "{}|{!r}".format(scope, key).encode("utf-8", "backslashreplace")


class SharedEvalCache:
    """Open-addressed ``hash128 -> cycles`` table in shared memory.

    Rows are three little-endian int64s ``(hi, lo, value)``; a row is
    empty iff both hash words are zero.  The parent is the only writer
    and only writes while workers are quiescent (between dispatches),
    so readers never see a torn row; the value word is stored before
    the key words as a belt-and-braces ordering anyway.
    """

    ROW_BYTES = 24

    def __init__(self, slots=None, _attach_name=None):
        self.slots = slots if slots is not None else SHARED_SLOTS
        if _attach_name is None:
            self._shm = shared_memory.SharedMemory(
                create=True, size=self.slots * self.ROW_BYTES)
            self._owner = True
        else:
            self._shm = shared_memory.SharedMemory(name=_attach_name)
            self._owner = False
        self._table = np.ndarray((self.slots, 3), dtype=np.int64,
                                 buffer=self._shm.buf)
        if self._owner:
            self._table[:] = 0
        #: Entries inserted (owner-side bookkeeping only).
        self.count = 0
        #: Stop inserting beyond this load so probes stay short.
        self.limit = int(self.slots * 0.85)

    @classmethod
    def attach(cls, name, slots):
        """Reader-side attachment to an existing segment."""
        return cls(slots=slots, _attach_name=name)

    @property
    def name(self):
        """Segment name (``None`` once closed)."""
        return self._shm.name if self._shm is not None else None

    @staticmethod
    def _hash(key_bytes):
        digest = hashlib.sha1(key_bytes).digest()
        hi = int.from_bytes(digest[:8], "little", signed=True)
        lo = int.from_bytes(digest[8:16], "little", signed=True)
        if hi == 0 and lo == 0:       # reserve (0, 0) for "empty"
            lo = 1
        return hi, lo

    def lookup(self, key_bytes):
        """Memoized cycles for ``key_bytes``, or ``None``."""
        hi, lo = self._hash(key_bytes)
        table = self._table
        slots = self.slots
        index = lo % slots
        for __ in range(slots):
            row_hi = table[index, 0]
            row_lo = table[index, 1]
            if row_hi == 0 and row_lo == 0:
                return None
            if row_hi == hi and row_lo == lo:
                return int(table[index, 2])
            index += 1
            if index == slots:
                index = 0
        return None

    def insert(self, key_bytes, value):
        """Record one entry (owner only, workers quiescent)."""
        hi, lo = self._hash(key_bytes)
        return self._insert_hashed(hi, lo, value)

    def _insert_hashed(self, hi, lo, value):
        if self.count >= self.limit:
            return False
        table = self._table
        slots = self.slots
        index = lo % slots
        for __ in range(slots):
            row_hi = table[index, 0]
            row_lo = table[index, 1]
            if row_hi == hi and row_lo == lo:
                return False          # already present
            if row_hi == 0 and row_lo == 0:
                table[index, 2] = value
                table[index, 1] = lo
                table[index, 0] = hi
                self.count += 1
                return True
            index += 1
            if index == slots:
                index = 0
        return False

    def snapshot_rows(self):
        """Copy of the used rows (to seed a replacement pool's cache)."""
        table = self._table
        used = (table[:, 0] != 0) | (table[:, 1] != 0)
        return table[used].copy()

    def preload(self, rows):
        """Re-insert rows captured by :meth:`snapshot_rows`."""
        for hi, lo, value in rows:
            self._insert_hashed(int(hi), int(lo), int(value))

    def close(self):
        """Drop this process's mapping (readers and owner)."""
        if self._shm is None:
            return
        self._table = None
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
        self._shm = None


# -- worker-side shared-cache hooks ---------------------------------------
#
# The per-explorer EvalCache probes/logs through these module globals so
# it needs no reference to the pool object: outside a dispatch both stay
# None and the hooks cost one global read.

_WORKER_SHARED = None
_WORKER_LOG = None


def worker_shared_cache():
    """The attached shared cache while executing a pooled task."""
    return _WORKER_SHARED


def worker_cache_note(scope, key, cycles):
    """Log one locally-computed evaluation for the parent to fold in.

    Only plain ints fit the table's int64 value word; anything else
    simply stays out of the shared tier (never the local one).
    """
    log = _WORKER_LOG
    if log is not None and type(cycles) is int:
        log.append((shared_key_bytes(scope, key), cycles))


# -- the worker process ----------------------------------------------------

def _claim_slot(claim, lock, nworkers, me):
    """Claim one slot of the assignment array (own run, then steal).

    Returns ``(slot, stolen)`` or ``(None, False)`` when no work (or an
    abort) remains.  ``claim`` holds heads in ``[0, n)``, tails in
    ``[n, 2n)`` and the abort flag at ``[2n]``.
    """
    with lock:
        if claim[2 * nworkers]:
            return None, False
        head = claim[me]
        tail = claim[nworkers + me]
        if head < tail:
            claim[me] = head + 1
            return head, False
        victim, best = -1, 0
        for other in range(nworkers):
            remaining = claim[nworkers + other] - claim[other]
            if remaining > best:
                best, victim = remaining, other
        if victim < 0:
            return None, False
        claim[nworkers + victim] -= 1
        return claim[nworkers + victim], True


def _worker_main(worker_id, nworkers, conn, claim, lock, cache_name,
                 cache_slots, parent_ends=()):
    """Worker loop: wait for a broadcast, drain/steal tasks, repeat.

    ``parent_ends`` are the parent's pipe ends this fork inherited (its
    own and every earlier worker's).  They are closed first: while any
    worker holds a parent end open, that pipe never reports EOF, and an
    orphaned worker would wait on ``conn.recv()`` forever.
    """
    global _WORKER_SHARED, _WORKER_LOG
    from . import parallel

    for end in parent_ends:
        end.close()
    parallel._mark_worker()
    shared = None
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            __, segment_name, nbytes = message
            segment = shared_memory.SharedMemory(name=segment_name)
            try:
                function, tasks, assign, capturing = pickle.loads(
                    segment.buf[:nbytes])
            finally:
                segment.close()
            if shared is None and cache_name is not None:
                shared = SharedEvalCache.attach(cache_name, cache_slots)
            _WORKER_SHARED = shared
            _WORKER_LOG = log = []
            done = 0
            while True:
                slot, stolen = _claim_slot(claim, lock, nworkers, worker_id)
                if slot is None:
                    break
                task_index = assign[slot]
                mark = len(log)
                try:
                    if capturing:
                        capture.begin()
                        try:
                            result = function(*tasks[task_index])
                        finally:
                            records = capture.end()
                    else:
                        records = None
                        result = function(*tasks[task_index])
                except BaseException as exc:  # ships to the parent
                    try:
                        conn.send(("error", worker_id, task_index, exc))
                    except Exception:
                        conn.send(("error", worker_id, task_index,
                                   ReproError(repr(exc))))
                    continue
                done += 1
                conn.send(("done", worker_id, task_index, result,
                           records, log[mark:], stolen))
            _WORKER_LOG = None
            conn.send(("drained", worker_id, done))
    finally:
        _WORKER_LOG = None
        _WORKER_SHARED = None
        if shared is not None:
            shared.close()


# -- the pool --------------------------------------------------------------

class WorkerPool:
    """A fixed set of forked workers fed through shared memory."""

    def __init__(self, workers, cache_rows=None):
        if workers < 1:
            raise ReproError("a worker pool needs at least one worker")
        self.workers = workers
        self.broken = False
        self._down = False
        self._down_lock = threading.Lock()
        self._owner_pid = os.getpid()
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        self.cache = SharedEvalCache()
        if cache_rows is not None:
            self.cache.preload(cache_rows)
        #: Lifetime tallies surfaced by the bench and the obs gauges.
        self.stats = {"dispatches": 0, "tasks": 0, "steals": 0,
                      "broadcast_bytes": 0, "shared_inserts": 0}
        self._claim = self._ctx.Array("q", 2 * workers + 1, lock=False)
        self._lock = self._ctx.Lock()
        self._procs = []
        self._conns = []
        for worker_id in range(workers):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(worker_id, workers, child_conn, self._claim,
                      self._lock, self.cache.name, self.cache.slots,
                      self._conns + [parent_conn]),
                daemon=True)
            proc.start()
            # Close the parent's copy of the child end *before* forking
            # the next worker: only the worker then holds its write end,
            # so a killed worker is visible as EOF instead of a hang.
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    # -- dispatch ---------------------------------------------------------

    def run(self, function, tasks, jobs=None, obs=None, costs=None):
        """``[function(*task) for task in tasks]`` over the pool.

        ``costs`` (same length as ``tasks``) dispatches expensive tasks
        first; results always keep submission order.  ``jobs`` caps the
        participating workers below the pool size.
        """
        if self.broken:
            raise ReproError("worker pool is broken; create a new one")
        tasks = list(tasks)
        n = len(tasks)
        if n == 0:
            return []
        workers_used = min(self.workers, n if jobs is None
                           else max(1, min(jobs, n)))
        if costs is not None and len(costs) == n:
            order = sorted(range(n), key=lambda i: (-costs[i], i))
        else:
            order = list(range(n))
        # Longest-first round-robin deal: worker w owns order[w::k] as
        # one contiguous run of the flat assignment array.
        runs = [order[w::workers_used] for w in range(workers_used)]
        assign = [i for run in runs for i in run]
        capturing = obs is not None and bool(obs)
        payload = pickle.dumps(
            (function, tasks, assign, capturing),
            protocol=pickle.HIGHEST_PROTOCOL)
        nworkers = self.workers
        with self._lock:
            offset = 0
            for w in range(nworkers):
                if w < workers_used:
                    self._claim[w] = offset
                    offset += len(runs[w])
                    self._claim[nworkers + w] = offset
                else:
                    self._claim[w] = 0
                    self._claim[nworkers + w] = 0
            self._claim[2 * nworkers] = 0
        segment = shared_memory.SharedMemory(create=True,
                                             size=max(len(payload), 1))
        results = [None] * n
        received = [False] * n
        replays = []
        cache_log = []
        steals = 0
        done_per_worker = [0] * workers_used
        error = None
        try:
            segment.buf[:len(payload)] = payload
            for w in range(workers_used):
                try:
                    self._conns[w].send(("run", segment.name, len(payload)))
                except OSError:
                    self._mark_broken()
                    raise ReproError(
                        "pool worker {} is gone (killed?)".format(w))
            pending = {self._conns[w]: w for w in range(workers_used)}
            drained = 0
            while drained < workers_used:
                for conn in mp_connection.wait(list(pending)):
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        self._mark_broken()
                        raise ReproError(
                            "pool worker {} died mid-dispatch".format(
                                pending[conn]))
                    kind = message[0]
                    if kind == "done":
                        (__, wid, index, result, records, log,
                         stolen) = message
                        results[index] = result
                        received[index] = True
                        done_per_worker[wid] += 1
                        if stolen:
                            steals += 1
                        if records:
                            replays.append((index, records))
                        if log:
                            cache_log.extend(log)
                    elif kind == "error":
                        error = message[3]
                        with self._lock:
                            self._claim[2 * nworkers] = 1
                    elif kind == "drained":
                        drained += 1
                        del pending[conn]
        except BaseException:
            # Ctrl-C or a dead worker: do not leave workers chewing on
            # the rest of the queue.
            with self._lock:
                self._claim[2 * nworkers] = 1
            if self.broken:
                self.shutdown()
            raise
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        if error is not None:
            raise error
        if not all(received):
            self._mark_broken()
            self.shutdown()
            raise ReproError("pool dispatch lost task results")
        # Quiescent point: every worker is back on conn.recv(), so the
        # parent may fold the write logs into the shared table.
        inserts = 0
        for key_bytes, value in cache_log:
            if self.cache.insert(key_bytes, value):
                inserts += 1
        self.stats["dispatches"] += 1
        self.stats["tasks"] += n
        self.stats["steals"] += steals
        self.stats["broadcast_bytes"] += len(payload)
        self.stats["shared_inserts"] += inserts
        if capturing:
            # Replay in task (= serial fire) order: a stolen task may
            # *finish* out of submission order, but its records must
            # not render out of order.
            for __, records in sorted(replays, key=lambda pair: pair[0]):
                obs.replay(records)
            active = sum(1 for count in done_per_worker if count)
            obs.count("pool.dispatches")
            obs.count("pool.tasks", n)
            obs.count("pool.steals", steals)
            obs.count("pool.broadcast_bytes", len(payload))
            obs.gauge("pool.workers", workers_used)
            obs.gauge("pool.worker_occupancy",
                      active / workers_used if workers_used else 0.0)
            obs.gauge("pool.shared_entries", self.cache.count)
        return results

    # -- lifecycle --------------------------------------------------------

    def worker_pids(self):
        """PIDs of the worker processes (for reuse assertions)."""
        return [proc.pid for proc in self._procs]

    def _mark_broken(self):
        self.broken = True

    def shutdown(self):
        """Stop the workers and unlink every shared segment.

        Idempotent and safe to call from several threads (a server's
        lifecycle teardown can race the ``atexit`` fallback): only the
        first call does the work, later ones return immediately.
        """
        if os.getpid() != self._owner_pid:
            return                     # forked child at exit: not ours
        with self._down_lock:
            if self._down:
                return
            self._down = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs = []
        self._conns = []
        self.cache.close()
        self.broken = True


# -- the process-wide persistent pool --------------------------------------
#
# The pool predates the exploration service, whose scope lanes dispatch
# from several threads at once and whose stop path races the atexit
# fallback.  Two locks make that safe without changing the serial CLI
# path: _DISPATCH_LOCK serialises whole dispatches (one broadcast owns
# the claim array and the worker pipes at a time, and a teardown can
# never interleave with an in-flight dispatch — it waits), _STATE_LOCK
# guards creation/replacement of the singleton.  _DISPATCH_LOCK is
# always taken first, so there is one lock order and no deadlock.

_POOL = None
_STATE_LOCK = threading.RLock()
_DISPATCH_LOCK = threading.RLock()
_DISPATCH_HOOKS = []


def add_dispatch_hook(hook):
    """Register ``hook(phase, info)`` around every pooled dispatch.

    ``phase`` is ``"start"`` or ``"end"``; ``info`` is a small dict
    (``tasks``, ``jobs``, and on ``"end"`` ``ok``).  The exploration
    service uses this hand-off to stream pool activity to subscribed
    clients and to drain gracefully before teardown.  Hooks must be
    cheap and must not dispatch; exceptions are swallowed — a broken
    observer must never fail the exploration it watches.
    """
    _DISPATCH_HOOKS.append(hook)


def remove_dispatch_hook(hook):
    """Unregister a hook added by :func:`add_dispatch_hook`."""
    try:
        _DISPATCH_HOOKS.remove(hook)
    except ValueError:
        pass


def _fire_dispatch_hooks(phase, info):
    for hook in list(_DISPATCH_HOOKS):
        try:
            hook(phase, info)
        except Exception:
            pass


def active_pool():
    """The live persistent pool, or ``None``."""
    return _POOL


def get_pool(jobs):
    """The persistent pool, (re)created to hold at least ``jobs`` workers.

    Growing the pool replaces it, seeding the new shared evalcache from
    the old one so accumulated evaluations survive the resize.
    """
    global _POOL
    with _STATE_LOCK:
        seed_rows = None
        if _POOL is not None and (_POOL.broken or _POOL.workers < jobs):
            if not _POOL.broken:
                seed_rows = _POOL.cache.snapshot_rows()
            _POOL.shutdown()
            _POOL = None
        if _POOL is None:
            _POOL = WorkerPool(jobs, cache_rows=seed_rows)
        return _POOL


def dispatch(function, tasks, jobs, obs=None, costs=None):
    """Pool-backed ordered map (the ``parallel_map`` fan-out path).

    Thread-safe: concurrent callers (the service's scope lanes) are
    serialised on :data:`_DISPATCH_LOCK`, so each dispatch owns the
    claim array and worker pipes exclusively.  Results are unaffected
    by the serialisation — they were bit-identical to serial already.
    """
    info = {"tasks": len(tasks), "jobs": jobs}
    with _DISPATCH_LOCK:
        _fire_dispatch_hooks("start", info)
        ok = False
        try:
            results = get_pool(jobs).run(function, tasks, jobs=jobs,
                                         obs=obs, costs=costs)
            ok = True
            return results
        finally:
            _fire_dispatch_hooks("end", dict(info, ok=ok))


def shutdown_pools():
    """Tear down the persistent pool and unlink its shared segments.

    Idempotent and ordering-safe: concurrent callers (a server's stop
    path racing the ``atexit`` fallback, or an ``EvalContext.close()``
    racing either) serialise behind the dispatch lock, so teardown
    never interleaves with an in-flight dispatch — it waits for the
    dispatch to finish, then tears down; a dispatch that starts *after*
    the teardown simply recreates the pool.  Wired into
    ``EvalContext.close()`` and registered as an ``atexit`` fallback so
    segments never outlive the process — even when a run is
    interrupted.
    """
    global _POOL
    with _DISPATCH_LOCK:
        with _STATE_LOCK:
            pool = _POOL
            _POOL = None
        if pool is not None:
            pool.shutdown()


atexit.register(shutdown_pools)
