"""Instruction Set Extension Exploration in Multiple-Issue Architectures.

A full reproduction of the DATE 2008 paper (and the NCTU thesis it is
based on): an ant-colony-optimisation ISE exploration algorithm that is
aware of the multi-issue schedule's critical path, plus every substrate
the evaluation needs — a PISA-like ISA model, a small compiler (IR,
-O0/-O3 pipelines, interpreter/profiler), the Table 5.1.1 hardware
database, a multi-issue list scheduler, the complete ISE design flow
(explore -> merge -> select/share -> replace -> schedule), the
SI/greedy/annealing/exact comparators as registry engines
(:mod:`repro.engines`), the seven benchmark kernels, and the chapter-5
experiment harness.

Quickstart — the stable public API (:mod:`repro.api`)::

    from repro import explore, evaluate

    result = explore("crc32", issue=2, ports="4/2", seed=42)
    best = evaluate(result, max_area=80_000)
    print(best.reduction, best.ises)

The engine classes (:class:`ISEDesignFlow` & co.) remain importable for
advanced use, and every run can stream a JSON-lines observability trace
(``explore(..., trace="run.jsonl")``; see :mod:`repro.obs`).
"""

from .config import (
    DEFAULT_CONSTRAINTS,
    DEFAULT_PARAMS,
    ExplorationParams,
    ISEConstraints,
)
from .errors import ReproError
from .hwlib import DEFAULT_DATABASE, DEFAULT_TECHNOLOGY, Technology
from .sched import MachineConfig, paper_machines
from .core import ISECandidate, ISEDesignFlow
from .workloads import all_workloads, get_workload, workload_names
from .obs import (
    NULL_OBSERVER,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    Observer,
    ProgressSink,
)
from . import engines
from .api import (
    ExploreResult,
    SelectionResult,
    ServiceClient,
    ServiceError,
    evaluate,
    explore,
    list_engines,
    serve,
    shutdown_pools,
    sweep,
)
from .dist.sweep import SweepResult, SweepRow

__version__ = "1.1.0"

__all__ = [
    "DEFAULT_CONSTRAINTS",
    "DEFAULT_DATABASE",
    "DEFAULT_PARAMS",
    "DEFAULT_TECHNOLOGY",
    "ExplorationParams",
    "ExploreResult",
    "ISECandidate",
    "ISEConstraints",
    "ISEDesignFlow",
    "JsonlSink",
    "MachineConfig",
    "MemorySink",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "Observer",
    "ProgressSink",
    "ReproError",
    "SelectionResult",
    "ServiceClient",
    "ServiceError",
    "SweepResult",
    "SweepRow",
    "Technology",
    "all_workloads",
    "engines",
    "evaluate",
    "explore",
    "get_workload",
    "list_engines",
    "paper_machines",
    "serve",
    "shutdown_pools",
    "sweep",
    "workload_names",
]
