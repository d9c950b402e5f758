"""Benchmark of the ISE exploration flow: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload explore-serial --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures the
same window untraced and then traced and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it carry the run's details (environment, digest, layer table).  See
perfbench/README.md for the workloads, metrics and layer map.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("explore-serial", "sweep-pooled", "serve-open")

#: A run that has not finished after this many seconds dumps every
#: thread's stack, kills the pool workers and exits with code 3.
WATCHDOG_S = 170

#: The fresh-interpreter child running now, so the watchdog can stop it.
_CHILD = None

#: Warm-ups and imports timed per run; ``setup_s`` is the sum of the
#: two medians.  Imports are cheap and vary most, so they get more.
WARM_REPEATS = 3
IMPORT_REPEATS = 5

#: The modules a user of the flow imports (timed as part of set-up).
IMPORTS = ("repro.api", "repro.dist.sweep", "repro.serve.server",
           "repro.dist.protocol", "repro.core.pool")

END_TO_END = (
    ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
    ("throughput_ops_s", "1/s"), ("reduction_pct", "%"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)

PER_LAYER = (
    ("ir.optimize_ms", "ms"), ("flow.profile_ms", "ms"),
    ("flow.hot_blocks", "count"),
    ("engine.explore_ms", "ms"), ("engine.rounds", "count"),
    ("engine.iterations", "count"), ("engine.iterations_per_s", "1/s"),
    ("batch.ants_batched", "count"), ("batch.vectorized_ratio", "ratio"),
    ("sched.list_schedule_calls", "count"),
    ("sched.list_schedule_ms", "ms"), ("sched.first_fit_scans", "count"),
    ("bitset.legality_calls", "count"), ("bitset.legality_ms", "ms"),
    ("evalcache.probes", "count"), ("evalcache.hit_ratio", "ratio"),
    ("grouping.memo_hit_ratio", "ratio"),
    ("pool.dispatch_ms", "ms"), ("pool.dispatches", "count"),
    ("pool.tasks", "count"), ("pool.steals", "count"),
    ("pool.broadcast_bytes", "bytes"),
    ("evalcache.shared_hit_ratio", "ratio"),
    ("eval.evaluate_ms", "ms"), ("eval.merge_ms", "ms"),
    ("eval.select_ms", "ms"), ("eval.replace_ms", "ms"),
    ("sweep.cell_ms", "ms"),
    ("serve.memo_rtt_ms", "ms"), ("serve.memo_hit_ratio", "ratio"),
    ("serve.batch_size", "count"), ("serve.queue_wait_ms", "ms"),
    ("serve.generator_lag_ms", "ms"),
    ("obs.trace_overhead_pct", "%"), ("host.calib_ms", "ms"),
    ("layers.self_coverage_pct", "%"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def isolate_environment():
    """Clear every ``REPRO_*`` knob; cache and temp files go to a fresh dir.

    Returns the private directory (removed when the run ends).
    """
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(parent, exist_ok=True)
    private = tempfile.mkdtemp(prefix="run-", dir=parent)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(private, "cache")
    os.environ["TMPDIR"] = private
    tempfile.tempdir = None
    return private


def source_revision():
    """The checkout's commit id when it is a git work tree, else unknown."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def calibrate():
    """Fixed pure-Python + numpy probe of machine speed (ms); no repo code."""
    import numpy as np

    began = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    matrix = np.arange(160 * 160, dtype=np.float64).reshape(160, 160) / 1e4
    for __ in range(20):
        matrix = np.tanh(matrix @ matrix.T / 160.0)
    if total < 0 or not np.isfinite(matrix).all():
        raise RuntimeError("calibration probe went wrong")
    return (time.perf_counter() - began) * 1e3


def fresh_import_seconds():
    """Import time of the flow's modules in a fresh interpreter."""
    global _CHILD
    code = ("import sys, time; t = time.perf_counter(); "
            "sys.path.insert(0, {!r}); ".format(SRC)
            + "; ".join("import " + name for name in IMPORTS)
            + "; print(time.perf_counter() - t)")
    child = _CHILD = subprocess.Popen([sys.executable, "-c", code],
                                      cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
    try:
        out, __ = child.communicate(timeout=120)
    finally:
        child.kill()                    # no-op once it has exited
        child.wait()
        child.stdout.close()
        _CHILD = None
    if child.returncode != 0:
        raise RuntimeError("fresh import exited with {}".format(
            child.returncode))
    return float(out.strip().splitlines()[-1])


def quantile(values, p):
    """Harrell-Davis estimate of the ``p`` quantile (0 < p < 1).

    A beta(p(n+1), (1-p)(n+1))-weighted mean of every order statistic
    instead of the one or two nearest ``p``.  A pass holds a few dozen
    ops of very different cost, so the samples near a quantile lie far
    apart; a nearest-rank value jumps whenever two ops trade places,
    while this estimate moves smoothly (on five seeds of explore-serial
    on a 2-CPU host, the quartile spread of the median fell from 16% to
    4% of its value).
    """
    import numpy as np
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    steps = 64                         # integration points per 1/n
    inner = np.linspace(0.0, 1.0, steps * n + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ ordered)


def tail(values):
    """``(percentile, value)``: highest percentile with >= 10 samples beyond.

    The percentile is the largest ``p`` whose nearest rank
    ``ceil(p/100 * n)`` leaves ten samples above it; its value is the
    :func:`quantile` estimate.  With fewer than 11 samples the maximum
    is used.
    """
    n = len(values)
    if n <= 10:
        return 100, max(values)
    percentile = (100 * (n - 10)) // n
    return percentile, quantile(values, percentile / 100.0)


def median(values):
    return quantile(values, 0.5)


def peak_rss_mb(pool_module):
    """Peak RSS of this process plus its largest pool worker (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worker = 0.0
    live = pool_module.active_pool()
    for pid in (live.worker_pids() if live is not None else ()):
        try:
            with open("/proc/{}/status".format(pid)) as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        worker = max(worker, int(line.split()[1]) / 1024.0)
        except OSError:
            pass
    return own + worker


def reap(pid, timeout_s=10.0):
    """Wait up to ``timeout_s`` for child ``pid`` to end; SIGKILL it after."""
    deadline = time.monotonic() + timeout_s
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass                            # already reaped


def stop_resource_tracker():
    """Stop and reap multiprocessing's resource tracker, if it runs.

    The pool's shared memory starts the tracker as a child of this
    process.  Left alone it ends only after this process has exited, so
    it would outlive the run.  Closing its pipe makes it unlink whatever
    is still registered and exit; call this after the pool is shut down.
    """
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if fd is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    reap(pid)


def start_watchdog(pool_module):
    """Bound the run's length even if the program hangs."""
    def fire():
        print("perfbench: no result after {} s; giving up".format(
            WATCHDOG_S), file=sys.stderr)
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        live = pool_module.active_pool()
        for pid in (live.worker_pids() if live is not None else ()):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
            reap(pid)
        child = _CHILD
        if child is not None:
            child.kill()
            child.wait()
        stop_resource_tracker()
        sys.stderr.flush()
        os._exit(3)

    timer = threading.Timer(WATCHDOG_S - (time.perf_counter() - _STARTED),
                            fire)
    timer.daemon = True
    timer.start()
    return timer


def per_op(value, ops):
    return value / ops if ops else 0.0


def ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, snapshot, ops):
    """Per-layer figures from spans and the observer's counters."""
    table = tracer.table()
    counters = snapshot.get("counters", {})
    timers = snapshot.get("timers", {})

    def self_ms(*names):
        return per_op(1e3 * sum(table.get(n, (0, 0.0, 0.0))[1]
                                for n in names), ops)

    def calls(name):
        return per_op(table.get(name, (0, 0.0, 0.0))[0], ops)

    def count(name):
        return per_op(counters.get(name, 0), ops)

    hits = counters.get("evalcache.hits", 0)
    probes = hits + counters.get("evalcache.misses", 0)
    vectorized = counters.get("batch.rows_vectorized", 0)
    memo_hits = counters.get("grouping.memo_hits", 0)
    engine_s = table.get("engines", (0, 0.0, 0.0))[2]
    cell = timers.get("sweep.cell", {"count": 0, "total_s": 0.0})
    return {
        "ir.optimize_ms": self_ms("ir.passes"),
        "flow.profile_ms": self_ms("core.flow"),
        "flow.hot_blocks": per_op(tracer.hot_blocks, ops),
        "engine.explore_ms": self_ms("engines"),
        "engine.rounds": count("explore.rounds"),
        "engine.iterations": count("explore.iterations"),
        "engine.iterations_per_s": ratio(
            counters.get("explore.iterations", 0), engine_s),
        "batch.ants_batched": count("batch.ants_batched"),
        "batch.vectorized_ratio": ratio(
            vectorized, vectorized + counters.get("batch.scalar_fallbacks",
                                                  0)),
        "sched.list_schedule_calls": calls("sched"),
        "sched.list_schedule_ms": self_ms("sched"),
        "sched.first_fit_scans": count("sched.first_fit_scans"),
        "bitset.legality_calls": calls("graph.bitset"),
        "bitset.legality_ms": self_ms("graph.bitset"),
        "evalcache.probes": per_op(probes, ops),
        "evalcache.hit_ratio": ratio(hits, probes),
        "grouping.memo_hit_ratio": ratio(
            memo_hits, memo_hits + counters.get("grouping.memo_misses", 0)),
        "pool.dispatch_ms": self_ms("core.pool"),
        "pool.dispatches": count("pool.dispatches"),
        "pool.tasks": count("pool.tasks"),
        "pool.steals": count("pool.steals"),
        "pool.broadcast_bytes": count("pool.broadcast_bytes"),
        "evalcache.shared_hit_ratio": ratio(
            counters.get("evalcache.shared_hits", 0), probes),
        "eval.evaluate_ms": self_ms("core.flow.evaluate"),
        "eval.merge_ms": self_ms("core.merging"),
        "eval.select_ms": self_ms("core.selection"),
        "eval.replace_ms": self_ms("core.replacement"),
        "sweep.cell_ms": 1e3 * ratio(cell["total_s"], cell["count"]),
        "layers.self_coverage_pct": 100.0 * tracer.coverage(),
    }


# -- workloads -----------------------------------------------------------------

class ClosedLoop:
    """explore-serial / sweep-pooled: set-up, one window, results."""

    def __init__(self, repro, args, jobs):
        self.repro = repro
        self.args = args
        self.jobs = jobs
        self.pooled = args.workload == "sweep-pooled"
        names = repro.workload_names()
        self.ops = repro.loads.closed_ops(args.seed, names,
                                          repro.PAPER_CASES)
        self.passes = repro.loads.passes_for(args.seconds)

    def warm_up(self):
        """One cold set-up: fresh pool (pooled) and one small op."""
        repro = self.repro
        if self.pooled:
            repro.pool.shutdown_pools()
            repro.pool.get_pool(self.jobs)
            op = repro.loads.pooled_op(repro.api, repro.BUDGETS, self.jobs,
                                       None)
        else:
            op = repro.loads.serial_op(repro.api, repro.BUDGETS, None)
        rows = op(("crc32", "4/2", 2, 0))
        if not all(map(repro.loads.row_ok, rows)):
            raise RuntimeError("warm-up op failed its check")

    def reset(self):
        """Between the untraced and traced windows: cold pool again."""
        if self.pooled:
            self.warm_up()

    def window(self, tracer=None, observer=None):
        repro = self.repro
        if self.pooled:
            op = repro.loads.pooled_op(repro.api, repro.BUDGETS, self.jobs,
                                       observer)
        else:
            op = repro.loads.serial_op(repro.api, repro.BUDGETS, observer)
        result = repro.loads.run_closed(op, self.ops, self.passes, tracer)
        result["ops"] = len(self.ops) * self.passes
        return result

    def summary(self, result):
        loads = self.repro.loads
        samples = result["samples"]
        scaled = [loads.at_reference_speed(t, probe) for t, probe in samples]
        latencies = [1e3 * t for t in scaled]
        percentile, tail_ms = tail(latencies)
        rows = result["rows"]
        raw = [1e3 * t for t, __ in samples]
        return {
            "latency_p50_ms": median(latencies),
            "latency_tail_ms": tail_ms,
            "throughput_ops_s": len(samples) / sum(scaled),
            "reduction_pct": 100.0 * statistics.fmean(
                row[7] for row in rows),
        }, {"tail_percentile": percentile, "samples": len(latencies),
            "passes": self.passes, "ops_per_pass": len(self.ops),
            "digest": loads.digest(rows), "wall_s": result["wall_s"],
            "probe_ms_median": statistics.median(p for __, p in samples),
            "unscaled": {"latency_p50_ms": median(raw),
                         "latency_tail_ms": tail(raw)[1],
                         "throughput_ops_s": len(raw) / result["wall_s"]}}

    def latency_total(self, result):
        return sum(self.repro.loads.at_reference_speed(t, probe)
                   for t, probe in result["samples"])

    def close(self):
        self.repro.pool.shutdown_pools()


class OpenLoop:
    """serve-open: in-process server, open-loop requests from due times."""

    def __init__(self, repro, args, jobs):
        self.repro = repro
        self.args = args
        self.jobs = jobs
        self.connections_n = max(1, min(jobs, 4))
        self.hot, self.slots = repro.loads.serve_plan(
            args.seed, repro.workload_names(), repro.PAPER_CASES,
            args.seconds, jobs)
        self.server = None
        self.connections = []
        self.ids = iter(range(1, 1 << 62))
        self.records = []

    def _stop(self):
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def warm_up(self):
        """One cold set-up: pool, new server, connections, hot explores.

        The pool is forked here, on the main thread, before the server
        starts any thread: a pool forked later from a lane thread can
        inherit a lock held by another thread and hang.
        """
        repro = self.repro
        self._stop()
        repro.pool.get_pool(self.jobs)
        self.server = repro.ExploreServer(host="127.0.0.1", port=0)
        self.server.start_in_thread()
        self.connections = [
            repro.loads.Connection(self.server.address, repro.protocol)
            for __ in range(self.connections_n)]
        answers = repro.loads.send_all(self.connections, self.hot, self.ids)
        if any(answer is None or answer[1] != "ok" for answer in answers):
            raise RuntimeError("warm-up explores failed: {!r}".format(
                [a and a[2] for a in answers if a is None or a[1] != "ok"]))

    def reset(self):
        self.warm_up()

    def window(self, tracer=None, observer=None):
        repro = self.repro
        before = dict(self.server.counters)
        start, records = repro.loads.run_open(self.connections, self.slots,
                                              self.ids)
        after = dict(self.server.counters)
        self.records.extend(records)
        return {"start": start, "records": records,
                "counters": {k: after.get(k, 0) - before.get(k, 0)
                             for k in after},
                "ops": len(records)}

    def _latency_ms(self, record, limit, scaled=True):
        """Latency from the due time; a failed request is at least ``limit``."""
        if record["arrived"] is None:
            return limit
        took = record["arrived"] - record["due"]
        if scaled:
            took = self.repro.loads.at_reference_speed(took, record["probe"])
        if not record.get("ok", True):
            return max(limit, 1e3 * took)
        return 1e3 * took

    def summary(self, result):
        loads = self.repro.loads
        limit = loads.LATENCY_LIMIT_MS
        records = result["records"]
        for record in records:
            record["ok"] = record.get("ok", True) and loads.served_ok(record)
        latencies = [self._latency_ms(r, limit) for r in records]
        raw = [self._latency_ms(r, limit, scaled=False) for r in records]
        percentile, tail_ms = tail(latencies)
        good = sum(1 for r, lat in zip(records, latencies)
                   if r["ok"] and lat <= limit)
        # The window is the send schedule, as actually sent: a late reply
        # to the last slot must not stretch it.
        window = (max(r["sent"] for r in records) - result["start"]
                  + 1.0 / loads.SERVE_RATE)
        reductions = [r["reply"]["reduction"] for r in records
                      if r["ok"] and r["body"]["op"] == "evaluate"]
        lags = [r["sent"] - r["due"] for r in records]
        return {
            "latency_p50_ms": median(latencies),
            "latency_tail_ms": tail_ms,
            "throughput_ops_s": good / window,
            "reduction_pct": 100.0 * statistics.fmean(reductions),
        }, {"tail_percentile": percentile, "samples": len(latencies),
            "latency_limit_ms": limit, "met_limit": good,
            "generator_lag_max_ms": 1e3 * max(lags),
            "errors": sorted({r["reply"].get("code", "?")
                              for r in records
                              if r["status"] == "err"}),
            "digest": loads.digest(
                (r["kind"], r["reply"].get("digest")) for r in records
                if r["ok"]),
            "wall_s": window,
            "probe_ms_median": statistics.median(r["probe"]
                                                 for r in records),
            "unscaled": {"latency_p50_ms": median(raw),
                         "latency_tail_ms": tail(raw)[1]}}

    def latency_total(self, result):
        limit = self.repro.loads.LATENCY_LIMIT_MS
        return sum(self._latency_ms(r, limit) for r in result["records"])

    def serve_metrics(self, result, tracer):
        records = result["records"]
        counters = result["counters"]
        memo = [1e3 * (r["arrived"] - r["sent"]) for r in records
                if r["kind"] == "repeat" and r["arrived"] is not None]
        evaluates = [r for r in records if r["kind"] == "evaluate"
                     and r["arrived"] is not None]
        rtt_s = sum(r["arrived"] - r["sent"] for r in evaluates)
        served_s = tracer.table().get("core.flow.evaluate",
                                      (0, 0.0, 0.0))[2]
        lane_items = sum(1 for r in records if r["arrived"] is not None)
        return {
            "serve.memo_rtt_ms": statistics.median(memo) if memo else 0.0,
            "serve.memo_hit_ratio": ratio(counters.get("serve.memo_hits", 0),
                                          lane_items),
            "serve.batch_size": ratio(
                counters.get("serve.batched_requests", 0),
                counters.get("serve.batched_dispatches", 0)),
            "serve.queue_wait_ms": 1e3 * ratio(rtt_s - served_s,
                                               len(evaluates)),
            "serve.generator_lag_ms": 1e3 * statistics.fmean(
                r["sent"] - r["due"] for r in records),
        }

    def crosscheck(self):
        """Outside the timed windows: served answers vs one-shot answers."""
        self._stop()
        bad = self.repro.loads.crosscheck_served(self.repro.api,
                                                 self.records, 1)
        for index in bad:
            self.records[index]["ok"] = False
        return len(bad)

    def close(self):
        self._stop()
        self.repro.pool.shutdown_pools()


# -- entry point --------------------------------------------------------------

class Repro:
    """The program's modules, imported after the environment is isolated."""

    def __init__(self):
        sys.path.insert(0, SRC)
        sys.path.insert(0, HERE)
        from repro import api
        from repro.core import pool
        from repro.dist import protocol
        from repro.dist.sweep import DEFAULT_BUDGETS
        from repro.ir.interp import Interpreter
        from repro.ir.passes.pipeline import optimize
        from repro.obs import Observer
        from repro.sched.machine import PAPER_CASES
        from repro.serve.server import ExploreServer
        from repro.workloads import all_workloads, workload_names

        import layers
        import loads

        self.api, self.pool, self.protocol = api, pool, protocol
        self.BUDGETS, self.PAPER_CASES = DEFAULT_BUDGETS, PAPER_CASES
        self.Interpreter, self.optimize = Interpreter, optimize
        self.Observer, self.ExploreServer = Observer, ExploreServer
        self.all_workloads, self.workload_names = (all_workloads,
                                                   workload_names)
        self.layers, self.loads = layers, loads


def run(args):
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program sources under {} — run from the "
              "root of a checkout".format(SRC), file=sys.stderr)
        return 2
    private = isolate_environment()
    bench = None
    try:
        repro = Repro()
        imported = time.perf_counter() - _STARTED
        watchdog = start_watchdog(repro.pool)
        speed = repro.loads.at_reference_speed
        import_s = [speed(imported, repro.loads.probe_ms())]
        env = {k: v for k, v in os.environ.items()
               if k.startswith("REPRO_")}
        jobs = os.cpu_count() or 1
        calib = [calibrate()]
        loop_class = OpenLoop if args.workload == "serve-open" else ClosedLoop
        bench = loop_class(repro, args, jobs)
        warm_s = []
        for __ in range(WARM_REPEATS):
            probe = repro.loads.probe_ms()
            began = time.perf_counter()
            bench.warm_up()
            warm_s.append(speed(time.perf_counter() - began, probe))
        for __ in range(IMPORT_REPEATS - 1):
            probe = repro.loads.probe_ms()
            import_s.append(speed(fresh_import_seconds(), probe))
        setup_s = statistics.median(import_s) + statistics.median(warm_s)
        bad_refs = repro.loads.check_references(
            repro.all_workloads(), repro.Interpreter, repro.optimize)

        result = bench.window()
        rss_mb = peak_rss_mb(repro.pool)
        windows = [result]
        layer = None
        if args.trace:
            bench.reset()
            tracer = repro.layers.Tracer()
            observer = repro.Observer()
            tracer.install()
            try:
                traced = bench.window(tracer=tracer, observer=observer)
            finally:
                tracer.uninstall()
            windows.append(traced)
            layer = layer_metrics(tracer, observer.metrics.snapshot(),
                                  traced["ops"])
            if isinstance(bench, OpenLoop):
                layer.update(bench.serve_metrics(traced, tracer))
                layer["layers.self_coverage_pct"] = 0.0
            else:
                layer.update({name: 0.0 for name, __ in PER_LAYER
                              if name.startswith("serve.")})
            layer["obs.trace_overhead_pct"] = 100.0 * (
                bench.latency_total(traced) / bench.latency_total(result)
                - 1.0)
        crosscheck_failed = (bench.crosscheck()
                             if isinstance(bench, OpenLoop) else 0)
        summaries = [bench.summary(w) for w in windows]
        calib.append(calibrate())
        bench.close()
        bench = None
        watchdog.cancel()
    finally:
        if bench is not None:
            bench.close()
        stop_resource_tracker()
        shutil.rmtree(private, ignore_errors=True)

    if loop_class is OpenLoop:
        attempted = sum(w["ops"] for w in windows)
        failed = sum(1 for w in windows for r in w["records"]
                     if not r["ok"])
    else:
        attempted = sum(w["attempted"] for w in windows)
        failed = sum(w["failed"] for w in windows)
    metrics, details = summaries[0]
    digests = {d["digest"] for __, d in summaries}
    correct = (failed == 0 and not bad_refs and len(digests) == 1)
    details.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "nproc": jobs, "revision": source_revision(),
        "environment": env, "setup_import_s": import_s,
        "setup_warm_s": warm_s, "host_calib_ms": calib,
        "reference_failures": bad_refs,
        "crosscheck_failures": crosscheck_failed,
        "errors": details.get("errors") or [e for w in windows
                                            for e in w.get("errors", [])][:5],
    })
    metrics.update({"peak_rss_mb": rss_mb, "setup_s": setup_s})
    print("details " + json.dumps(details, sort_keys=True))
    if args.trace:
        layer["host.calib_ms"] = statistics.fmean(calib)
        print_layers(tracer, args, layer)
        chosen = {name: {"value": layer[name], "unit": unit}
                  for name, unit in PER_LAYER}
    else:
        chosen = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": chosen}))
    return 0


def print_layers(tracer, args, layer):
    """Human-readable layer table; spans written under .perfbench_out/."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-{}-seed{}.jsonl".format(args.workload,
                                                           args.seed))
    tracer.write(path)
    print("layer table ({}, seed {}; spans in {})".format(
        args.workload, args.seed, os.path.relpath(path, ROOT)))
    print("  {:20s} {:>9s} {:>11s} {:>11s}".format(
        "span", "calls", "self_ms", "total_ms"))
    for name, (calls, self_s, total_s) in sorted(tracer.table().items()):
        print("  {:20s} {:>9d} {:>11.1f} {:>11.1f}".format(
            name, calls, 1e3 * self_s, 1e3 * total_s))
    print("  self-time coverage of op wall time: {:.1f}%".format(
        layer["layers.self_coverage_pct"]))


def main(argv=None):
    return run(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
