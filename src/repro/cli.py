"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``workloads``
    List the bundled benchmarks.
``engines``
    List the registered exploration engines (valid ``--engine`` names).
``explore``
    Run the full design flow for one workload on one machine and print
    the report plus the selected ISEs.
``table``
    Print Table 5.1.1 (the hardware implementation-option database).
``selftest``
    Run every bundled workload at -O0/-O3 against its reference.
``dot``
    Emit Graphviz DOT of a workload's hottest block with its explored
    ISEs highlighted.
``gantt``
    Print the before/after issue bundles of the hottest block.
``metrics``
    Summarise a JSON-lines observability trace written via ``--trace``.
``sweep``
    Run a (workload × machine × budget) design-space sweep — the whole
    grid, one deterministic shard of it (``--shard i/n``), or a merge
    of shard part files (``--merge part0.json part1.json …``).
``cache-server``
    Run the remote evalcache server that sweep shards share via
    ``REPRO_REMOTE_CACHE=host:port``.
``serve``
    Run the exploration service daemon: concurrent clients share one
    process's warm pool, per-scope batching and exploration memo (see
    docs/SERVICE.md; talk to it with ``repro.api.ServiceClient``).

``explore`` and ``selftest`` accept ``--trace PATH`` (stream a JSON-lines
event trace), ``--metrics`` (print the counters/timers registry after the
run) and ``--progress`` (human one-liners on stderr while exploring).
"""

import argparse
import sys

from . import api
from .config import ExplorationParams, ISEConstraints
from .core.flow import ISEDesignFlow
from .eval.reporting import render_table_5_1_1
from .graph.export import dfg_to_dot
from .hwlib import DEFAULT_DATABASE
from .obs import (
    JsonlSink,
    Observer,
    ProgressSink,
    load_trace,
    render_summary,
    summarize_trace,
)
from .sched.machine import MachineConfig
from .workloads import all_workloads, get_workload


def _add_machine_args(parser):
    parser.add_argument("--issue", type=int, default=2,
                        help="issue width (default 2)")
    parser.add_argument("--ports", default="4/2",
                        help="register file read/write ports (default 4/2)")


def _add_effort_args(parser):
    parser.add_argument("--iterations", type=int, default=120,
                        help="ACO iterations per round (default 120)")
    parser.add_argument("--restarts", type=int, default=2,
                        help="independent restarts per block (default 2)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", default=None, metavar="N",
                        help="worker processes for exploration: an "
                             "integer, or 'auto' for one per CPU "
                             "(default: $REPRO_JOBS or serial); results "
                             "are identical at any setting; workers "
                             "persist in a shared-memory pool across "
                             "explorations (REPRO_POOL_PERSIST=0 "
                             "disables reuse)")
    parser.add_argument("--batch", default=None, metavar="B",
                        help="ants advanced in lockstep per ACO "
                             "iteration batch (default: $REPRO_ANT_BATCH "
                             "or 16); 1 selects the scalar reference "
                             "loop, larger batches are faster but draw "
                             "a different RNG stream")
    parser.add_argument("--engine", default="aco", metavar="NAME",
                        help="exploration engine (default aco, the "
                             "paper's algorithm; see 'repro engines' "
                             "for the registry)")


def _add_obs_args(parser):
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSON-lines observability trace "
                             "(summarise with 'repro metrics PATH')")
    parser.add_argument("--metrics", action="store_true",
                        help="print the counters/timers registry after "
                             "the run")
    parser.add_argument("--progress", action="store_true",
                        help="stream human-readable progress to stderr")


def _observer_from_args(args):
    """An :class:`Observer` for the requested flags, or ``None``."""
    sinks = []
    if getattr(args, "trace", None):
        sinks.append(JsonlSink(args.trace))
    if getattr(args, "progress", False):
        sinks.append(ProgressSink())
    if sinks or getattr(args, "metrics", False):
        return Observer(sinks=sinks)
    return None


def _finish_observer(args, observer):
    if observer is None:
        return
    observer.close()
    if getattr(args, "metrics", False):
        print(observer.metrics.render())


def _flow_from_args(args):
    machine = MachineConfig(args.issue, args.ports)
    params = ExplorationParams(max_iterations=args.iterations,
                               restarts=args.restarts)
    return ISEDesignFlow(machine, params=params, seed=args.seed,
                         jobs=getattr(args, "jobs", None),
                         batch=getattr(args, "batch", None),
                         engine=getattr(args, "engine", "aco"))


def _cmd_workloads(args):
    del args
    for workload in all_workloads():
        print("{:10s} {}".format(workload.name, workload.description))
    return 0


def _cmd_table(args):
    del args
    print(render_table_5_1_1(DEFAULT_DATABASE))
    return 0


def _cmd_engines(args):
    del args
    for name, description in api.list_engines():
        print("{:10s} {}".format(name, description))
    return 0


def _cmd_explore(args):
    observer = _observer_from_args(args)
    try:
        result = api.explore(
            args.workload, issue=args.issue, ports=args.ports,
            profile=None, iterations=args.iterations,
            restarts=args.restarts, jobs=args.jobs, batch=args.batch,
            seed=args.seed, opt=args.opt, observer=observer,
            engine=args.engine)
        selection = api.evaluate(result, max_area=args.area,
                                 max_ises=args.max_ises,
                                 observer=observer)
        print("workload : {} ({})".format(result.workload, args.opt))
        print("machine  : {}-issue, RF {}".format(args.issue, args.ports))
        print("engine   : {}".format(result.engine))
        print("baseline : {} cycles".format(selection.baseline_cycles))
        print("with ISE : {} cycles".format(selection.final_cycles))
        print("reduction: {:.2%}".format(selection.reduction))
        print("selected : {} ISE(s), {:.0f} um2".format(
            selection.num_ises, selection.area))
        for description in selection.ises:
            print("  " + description)
    finally:
        _finish_observer(args, observer)
    return 0


def _cmd_selftest(args):
    """Run every bundled workload at -O0 and -O3 against its reference."""
    from .ir.interp import run_program
    from .ir.passes import optimize
    from .workloads import all_workloads, extra_workloads

    observer = _observer_from_args(args)
    failures = 0
    try:
        for workload in all_workloads() + extra_workloads():
            program, run_args = workload.build()
            expected = workload.reference()
            for level in ("O0", "O3"):
                candidate = optimize(program, level) if level != "O0" \
                    else program
                result, __, ___ = run_program(candidate, args=run_args)
                ok = result == expected
                failures += 0 if ok else 1
                if observer:
                    observer.event("selftest", workload=workload.name,
                                   level=level, ok=ok)
                    observer.count("selftest.checks")
                    if not ok:
                        observer.count("selftest.failures")
                print("{:10s} {}: {}".format(
                    workload.name, level, "ok" if ok else
                    "FAIL ({:#x} != {:#x})".format(result, expected)))
        if getattr(args, "engine", None):
            # Exploration smoke: the named engine must run end-to-end
            # on one small workload and return a coherent result.
            result = api.explore("crc32", profile=None, iterations=10,
                                 restarts=1, seed=0, observer=observer,
                                 engine=args.engine)
            ok = (result.engine == args.engine
                  and result.baseline_cycles > 0)
            failures += 0 if ok else 1
            print("{:10s} engine={}: {}".format(
                "explore", args.engine,
                "ok ({} candidates)".format(result.num_candidates)
                if ok else "FAIL"))
        if observer:
            observer.gauge("selftest.failures_total", failures)
    finally:
        _finish_observer(args, observer)
    print("selftest: {}".format("all ok" if failures == 0
                                else "{} failure(s)".format(failures)))
    return 0 if failures == 0 else 1


def _cmd_gantt(args):
    from .core.replacement import replace_and_schedule
    from .core.merging import is_single_asfu, merge_candidates
    from .graph.export import schedule_to_gantt

    workload = get_workload(args.workload)
    program, run_args = workload.build()
    flow = _flow_from_args(args)
    explored = flow.explore_application(program, args=run_args,
                                        opt_level=args.opt)
    hot = max((b for b in explored.blocks if b.explorable),
              key=lambda b: b.weight, default=None)
    if hot is None:
        print("no explorable block found", file=sys.stderr)
        return 1
    merged = merge_candidates(explored.candidates,
                              single_asfu=is_single_asfu(flow.machine))
    baseline, __ = replace_and_schedule(
        hot.dfg, [], flow.machine, flow.technology, flow.constraints)
    schedule, ___ = replace_and_schedule(
        hot.dfg, merged, flow.machine, flow.technology, flow.constraints)
    print("hot block {}:{} — {} ops".format(
        hot.function, hot.label, len(hot.dfg)))
    print("baseline: {} cycles | with ISEs: {} cycles".format(
        baseline.makespan, schedule.makespan))
    print(schedule_to_gantt(schedule))
    return 0


def _cmd_manual(args):
    """Print the custom-instruction datasheet for one workload."""
    from .core.manual import render_manual

    workload = get_workload(args.workload)
    program, run_args = workload.build()
    flow = _flow_from_args(args)
    explored = flow.explore_application(program, args=run_args,
                                        opt_level=args.opt)
    constraints = ISEConstraints(max_area=args.area,
                                 max_ises=args.max_ises)
    report = flow.evaluate(explored, constraints)
    print(render_manual(
        report.selection,
        title="Custom instructions for {} on {}-issue RF {}".format(
            workload.name, args.issue, args.ports)))
    return 0


def _cmd_metrics(args):
    """Summarise a JSON-lines observability trace."""
    records = load_trace(args.trace)
    print(render_summary(summarize_trace(records)))
    return 0


def _parse_machines(text):
    """``"2:4/2,3:8/4"`` (issue:ports pairs) → ``((ports, issue), ...)``."""
    from .errors import ReproError

    if text.strip().lower() == "paper":
        from .sched.machine import PAPER_CASES

        return PAPER_CASES
    machines = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            issue_text, ports = item.split(":", 1)
            machines.append((ports.strip(), int(issue_text)))
        except ValueError:
            raise ReproError(
                "machine must look like ISSUE:PORTS (e.g. 2:4/2), got "
                "{!r}".format(item)) from None
    if not machines:
        raise ReproError("--machines needs at least one ISSUE:PORTS pair")
    return tuple(machines)


def _cmd_sweep(args):
    from .dist.sweep import (
        SweepResult,
        merge_sweeps,
        parse_shard,
        render_sweep,
    )
    from .eval.persistence import load_json, save_json

    if args.merge:
        parts = [SweepResult.from_payload(load_json(path))
                 for path in args.merge]
        result = merge_sweeps(parts)
        print(render_sweep(result))
    else:
        observer = _observer_from_args(args)
        try:
            result = api.sweep(
                [w.strip() for w in args.workloads.split(",") if w.strip()],
                machines=_parse_machines(args.machines),
                budgets=tuple(float(b) for b in args.budgets.split(",")),
                opt=args.opt, profile=args.profile, seed=args.seed,
                engine=args.engine, jobs=args.jobs, batch=args.batch,
                iterations=args.iterations, restarts=args.restarts,
                shard=parse_shard(args.shard) if args.shard else None,
                observer=observer)
        finally:
            _finish_observer(args, observer)
        if result.shard_index is None:
            print(render_sweep(result))
        else:
            print("shard {}/{}: {} row(s) over {} cell(s)".format(
                result.shard_index, result.shard_count,
                len(result.rows), len(result.cells)))
    print("digest   : {}".format(result.digest))
    if args.out:
        save_json(args.out, result.to_payload())
        print("written  : {}".format(args.out))
    return 0


def _cmd_cache_server(args):
    from .dist.server import EvalCacheServer

    server = EvalCacheServer(host=args.host, port=args.port,
                             max_entries=args.max_entries,
                             max_bytes=args.max_bytes)
    server.run_blocking()
    return 0


def _cmd_serve(args):
    from .serve.server import ExploreServer

    server = ExploreServer(host=args.host, port=args.port,
                           max_inflight=args.max_inflight,
                           request_timeout=args.timeout)
    server.run_blocking()
    return 0


def _cmd_dot(args):
    workload = get_workload(args.workload)
    program, run_args = workload.build()
    flow = _flow_from_args(args)
    explored = flow.explore_application(program, args=run_args,
                                        opt_level=args.opt)
    hot = max((b for b in explored.blocks if b.explorable),
              key=lambda b: b.weight, default=None)
    if hot is None:
        print("no explorable block found", file=sys.stderr)
        return 1
    members = [c.members for c in explored.candidates
               if c.members <= set(hot.dfg.nodes)]
    print(dfg_to_dot(hot.dfg, highlight=members))
    return 0


def build_parser():
    """Construct the argparse parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ISE exploration for multiple-issue architectures "
                    "(DATE 2008 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list bundled benchmarks") \
        .set_defaults(func=_cmd_workloads)
    sub.add_parser("table", help="print Table 5.1.1") \
        .set_defaults(func=_cmd_table)
    selftest = sub.add_parser(
        "selftest",
        help="check every workload against its reference at O0/O3")
    selftest.add_argument("--engine", default=None, metavar="NAME",
                          help="additionally smoke-test this "
                               "exploration engine on crc32")
    _add_obs_args(selftest)
    selftest.set_defaults(func=_cmd_selftest)

    sub.add_parser(
        "engines",
        help="list registered exploration engines (--engine names)") \
        .set_defaults(func=_cmd_engines)

    explore = sub.add_parser("explore", help="run the design flow")
    explore.add_argument("workload")
    explore.add_argument("--opt", choices=("O0", "O3"), default="O3")
    explore.add_argument("--area", type=float, default=None,
                         help="silicon area budget in um2")
    explore.add_argument("--max-ises", type=int, default=None,
                         help="ISE count budget (unused opcodes)")
    _add_machine_args(explore)
    _add_effort_args(explore)
    _add_obs_args(explore)
    explore.set_defaults(func=_cmd_explore)

    metrics = sub.add_parser(
        "metrics", help="summarise a JSON-lines observability trace")
    metrics.add_argument("trace", help="trace file written via --trace")
    metrics.set_defaults(func=_cmd_metrics)

    sweep = sub.add_parser(
        "sweep",
        help="design-space sweep (full grid, one shard, or a merge)")
    sweep.add_argument("--workloads", default="adpcm,jpeg",
                       help="comma-separated workload names "
                            "(default adpcm,jpeg)")
    sweep.add_argument("--machines", default="paper", metavar="SPEC",
                       help="comma-separated ISSUE:PORTS pairs (e.g. "
                            "2:4/2,3:8/4), or 'paper' for the §5.1 "
                            "cases (default)")
    sweep.add_argument("--budgets", default="20000,80000,320000",
                       help="comma-separated area budgets in um2 "
                            "(default 20000,80000,320000)")
    sweep.add_argument("--opt", choices=("O0", "O3"), default="O3")
    sweep.add_argument("--profile", default="quick",
                       choices=("quick", "normal", "full"),
                       help="effort profile (default quick)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--jobs", default=None, metavar="N",
                       help="worker processes per exploration "
                            "(default: $REPRO_JOBS or serial)")
    sweep.add_argument("--batch", default=None, metavar="B",
                       help="ants per ACO lockstep batch "
                            "(default: $REPRO_ANT_BATCH or 16)")
    sweep.add_argument("--engine", default="aco", metavar="NAME",
                       help="exploration engine (default aco)")
    sweep.add_argument("--iterations", type=int, default=None,
                       help="override the profile's ACO iterations")
    sweep.add_argument("--restarts", type=int, default=None,
                       help="override the profile's restarts per block")
    sweep.add_argument("--shard", default=None, metavar="I/N",
                       help="run only the cells hashing onto shard I "
                            "of N (deterministic partition)")
    sweep.add_argument("--out", default=None, metavar="PATH",
                       help="write the result payload as JSON (the "
                            "input format of --merge)")
    sweep.add_argument("--merge", nargs="+", default=None,
                       metavar="PART",
                       help="merge shard part files written via --out "
                            "instead of running the sweep")
    _add_obs_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    cache_server = sub.add_parser(
        "cache-server",
        help="run the remote evalcache server (REPRO_REMOTE_CACHE)")
    from .dist.server import (
        DEFAULT_MAX_BYTES,
        DEFAULT_MAX_ENTRIES,
        DEFAULT_PORT,
    )

    cache_server.add_argument("--host", default="127.0.0.1")
    cache_server.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help="TCP port (0 picks a free one; default {})".format(
            DEFAULT_PORT))
    cache_server.add_argument(
        "--max-entries", type=int, default=DEFAULT_MAX_ENTRIES,
        help="LRU entry bound (default {})".format(DEFAULT_MAX_ENTRIES))
    cache_server.add_argument(
        "--max-bytes", type=int, default=DEFAULT_MAX_BYTES,
        help="LRU byte bound over values (default {})".format(
            DEFAULT_MAX_BYTES))
    cache_server.set_defaults(func=_cmd_cache_server)

    serve = sub.add_parser(
        "serve",
        help="run the exploration service daemon (see docs/SERVICE.md)")
    from .serve.server import (
        DEFAULT_MAX_INFLIGHT,
        DEFAULT_PORT as SERVE_DEFAULT_PORT,
    )

    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=SERVE_DEFAULT_PORT,
        help="TCP port (0 picks a free one; default {})".format(
            SERVE_DEFAULT_PORT))
    serve.add_argument(
        "--max-inflight", type=int, default=DEFAULT_MAX_INFLIGHT,
        help="per-connection in-flight request quota (default "
             "{})".format(DEFAULT_MAX_INFLIGHT))
    serve.add_argument(
        "--timeout", type=float, default=None,
        help="server-side per-request timeout in seconds "
             "(default: none)")
    serve.set_defaults(func=_cmd_serve)

    dot = sub.add_parser("dot", help="DOT of the hottest block + ISEs")
    dot.add_argument("workload")
    dot.add_argument("--opt", choices=("O0", "O3"), default="O3")
    _add_machine_args(dot)
    _add_effort_args(dot)
    dot.set_defaults(func=_cmd_dot)

    gantt = sub.add_parser(
        "gantt", help="issue table of the hottest block with its ISEs")
    gantt.add_argument("workload")
    gantt.add_argument("--opt", choices=("O0", "O3"), default="O3")
    _add_machine_args(gantt)
    _add_effort_args(gantt)
    gantt.set_defaults(func=_cmd_gantt)

    manual = sub.add_parser(
        "manual", help="datasheet of the selected custom instructions")
    manual.add_argument("workload")
    manual.add_argument("--opt", choices=("O0", "O3"), default="O3")
    manual.add_argument("--area", type=float, default=None)
    manual.add_argument("--max-ises", type=int, default=None)
    _add_machine_args(manual)
    _add_effort_args(manual)
    manual.set_defaults(func=_cmd_manual)
    return parser


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    finally:
        # One-shot process: release the worker pool (and its shared
        # memory) deterministically instead of leaning on atexit.
        from .core.pool import shutdown_pools

        shutdown_pools()


if __name__ == "__main__":
    sys.exit(main())
