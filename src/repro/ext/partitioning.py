"""Hardware/software partitioning via the ISE exploration engine.

The thesis's §6 observes that the combined problem of hardware-software
partitioning, hardware design-space exploration and scheduling
(Chatha & Vemuri [16]; Kalavade & Lee's extended partitioning [17])
maps one-to-one onto the ISE exploration algorithm:

* partitioning       ↔ choosing a hardware or software implementation
  option per task,
* design-space exploration ↔ selecting *which* hardware bin,
* scheduling         ↔ identifying the critical path of the task graph.

This module performs that "slight modification": a coarse-grained
:class:`TaskGraph` (tasks with multi-cycle software latencies and one
or more hardware bins) is lowered onto the exact same DFG + IO-table
machinery, and :func:`partition` runs :class:`~repro.engines.aco.AcoEngine` over
it.  Hardware-mapped connected task groups come back as co-processor
blocks with their combined latency and area — the analogue of ISEs at
task granularity.
"""

from ..config import ExplorationParams, ISEConstraints
from ..engines.aco import AcoEngine
from ..errors import ConfigError, IRError
from ..graph.dfg import DFG
from ..hwlib.options import HardwareOption, IOTable, SoftwareOption
from ..hwlib.technology import Technology
from ..isa.instruction import Operation
from ..isa.opcodes import OpCategory, Opcode
from ..sched.machine import MachineConfig

#: A synthetic groupable opcode for coarse-grained tasks.
TASK_OPCODE = Opcode("task", OpCategory.ALU, num_sources=0, num_dests=1,
                     groupable=True)


class Task:
    """One task of the system: software latency + hardware bins.

    Parameters
    ----------
    name:
        Unique task name.
    sw_cycles:
        Execution time on the processor, in scheduler time units.
    hw_bins:
        List of ``(latency_units, area)`` hardware implementation
        points (possibly empty for software-only tasks).
    deps:
        Names of tasks this one consumes data from.
    """

    def __init__(self, name, sw_cycles, hw_bins=(), deps=()):
        if sw_cycles < 1:
            raise ConfigError("software latency must be >= 1")
        self.name = str(name)
        self.sw_cycles = int(sw_cycles)
        self.hw_bins = [(float(lat), float(area)) for lat, area in hw_bins]
        if any(lat <= 0 or area < 0 for lat, area in self.hw_bins):
            raise ConfigError("hardware bins need positive latency, "
                              "non-negative area")
        self.deps = tuple(deps)

    def __repr__(self):
        return "Task({!r}, sw={}, {} hw bins)".format(
            self.name, self.sw_cycles, len(self.hw_bins))


class TaskGraph:
    """An acyclic task graph (tasks added in dependency order)."""

    def __init__(self, name="system"):
        self.name = str(name)
        self._tasks = []
        self._by_name = {}

    def add_task(self, name, sw_cycles, hw_bins=(), deps=()):
        """Register a task (dependencies must already exist)."""
        if name in self._by_name:
            raise IRError("duplicate task {!r}".format(name))
        for dep in deps:
            if dep not in self._by_name:
                raise IRError(
                    "task {!r} depends on unknown task {!r}".format(
                        name, dep))
        task = Task(name, sw_cycles, hw_bins, deps)
        self._by_name[name] = task
        self._tasks.append(task)
        return task

    @property
    def tasks(self):
        """Tasks in registration order."""
        return list(self._tasks)

    def __len__(self):
        return len(self._tasks)

    # -- lowering ---------------------------------------------------------

    def to_dfg(self):
        """Lower to a DFG + IO tables for the exploration engine."""
        dfg = DFG(label=self.name, function="taskgraph")
        tables = {}
        uid_of = {}
        for uid, task in enumerate(self._tasks):
            uid_of[task.name] = uid
            operation = Operation(
                uid, TASK_OPCODE,
                sources=tuple("v_" + dep for dep in task.deps),
                dests=("v_" + task.name,))
            dfg.add_operation(operation)
            hardware = [
                HardwareOption("HW-{}".format(i + 1), delay_ns=lat,
                               area=area)
                for i, (lat, area) in enumerate(task.hw_bins)
            ]
            tables[uid] = IOTable(
                software=[SoftwareOption("SW", cycles=task.sw_cycles,
                                         fu_kind="alu")],
                hardware=hardware)
        for task in self._tasks:
            for dep in task.deps:
                dfg.add_data_edge(uid_of[dep], uid_of[task.name],
                                  "v_" + dep)
        # Sink tasks produce system outputs.
        consumed = {dep for task in self._tasks for dep in task.deps}
        for task in self._tasks:
            if task.name not in consumed:
                dfg.output_nodes.add(uid_of[task.name])
        dfg.producer_of = {"v_" + t.name: uid_of[t.name]
                           for t in self._tasks}
        return dfg, tables


class PartitionResult:
    """Outcome of :func:`partition`."""

    def __init__(self, task_graph, exploration, uid_to_name):
        self.task_graph = task_graph
        self.exploration = exploration
        self._names = uid_to_name

    @property
    def makespan_software(self):
        """All-software schedule length."""
        return self.exploration.base_cycles

    @property
    def makespan_partitioned(self):
        """Schedule length after partitioning."""
        return self.exploration.final_cycles

    @property
    def speedup(self):
        """All-software makespan over partitioned makespan."""
        if self.makespan_partitioned == 0:
            return 1.0
        return self.makespan_software / self.makespan_partitioned

    @property
    def hardware_area(self):
        """Total area of the hardware-mapped blocks."""
        return self.exploration.total_area

    def hardware_blocks(self):
        """Hardware-mapped task groups as lists of task names."""
        return [sorted(self._names[uid] for uid in candidate.members)
                for candidate in self.exploration.candidates]

    def hardware_tasks(self):
        """Names of every hardware-mapped task."""
        names = set()
        for block in self.hardware_blocks():
            names.update(block)
        return names

    def software_tasks(self):
        """Names of the tasks left on the processor."""
        hw = self.hardware_tasks()
        return {t.name for t in self.task_graph.tasks} - hw

    def __repr__(self):
        return ("PartitionResult({} -> {} units, {:.2f}x, "
                "{:.0f} area)".format(
                    self.makespan_software, self.makespan_partitioned,
                    self.speedup, self.hardware_area))


def partition(task_graph, processors=1, hw_slots=1, max_area=None,
              params=None, seed=0):
    """Partition a task graph between a CPU and custom hardware.

    Parameters
    ----------
    task_graph:
        The :class:`TaskGraph` to map.
    processors:
        Number of software execution slots per time unit.
    hw_slots:
        Concurrent hardware-block launches per time unit.
    max_area:
        Optional total hardware area budget.
    params / seed:
        ACO configuration (defaults: modest effort).

    The time unit of task latencies equals one scheduler cycle: the
    machine's technology is configured so ``delay 1.0 == 1 cycle``.
    """
    dfg, tables = task_graph.to_dfg()
    # 1 "ns" == 1 cycle: tasks' hw latencies are already in time units.
    technology = Technology(clock_mhz=1000.0)
    machine = MachineConfig(
        processors + hw_slots, "64/32",
        fu_counts={"alu": processors, "mul": processors,
                   "mem": processors, "branch": processors,
                   "asfu": hw_slots},
        technology=technology)
    constraints = ISEConstraints(n_in=64, n_out=32, max_area=max_area)
    params = params or ExplorationParams(
        max_iterations=120, restarts=2, max_rounds=8)
    explorer = AcoEngine(
        machine, params=params, constraints=constraints,
        technology=technology, seed=seed)
    exploration = explorer.explore(dfg, io_tables=tables)
    if max_area is not None:
        exploration = _apply_area_budget(
            explorer, dfg, tables, exploration, max_area)
    uid_to_name = {uid: task.name
                   for uid, task in enumerate(task_graph.tasks)}
    return PartitionResult(task_graph, exploration, uid_to_name)


def _apply_area_budget(explorer, dfg, tables, exploration, max_area):
    """Greedily keep (or shrink) the best candidates within the budget.

    A hardware block that overflows the remaining budget is not simply
    dropped: its most expensive tasks are shed one by one (keeping the
    largest convex remainder) until it fits — co-design tools offer the
    partial block rather than nothing.
    """
    from ..core.candidate import ISECandidate
    from ..engines.base import ExplorationResult
    from ..core.make_convex import legalize_components

    ranked = sorted(exploration.candidates,
                    key=lambda c: (-c.cycle_saving, c.area))
    kept, used = [], 0.0
    for candidate in ranked:
        remaining = max_area - used
        fitted = _fit_candidate(explorer, dfg, candidate, remaining,
                                legalize_components, ISECandidate)
        if fitted is not None:
            kept.append(fitted)
            used += fitted.area
    final = explorer._evaluate(dfg, kept, tables)
    return ExplorationResult(
        dfg, kept, exploration.base_cycles, final,
        exploration.rounds, exploration.iterations)


def _fit_candidate(explorer, dfg, candidate, budget, legalize, make):
    """Shrink ``candidate`` until its area fits ``budget`` (or None)."""
    members = set(candidate.members)
    option_of = dict(candidate.option_of)
    while len(members) >= 2:
        trial = make(dfg, members,
                     {uid: option_of[uid] for uid in members},
                     explorer.technology, source="PART")
        if trial.area <= budget:
            trial.cycle_saving = candidate.cycle_saving
            return trial
        costliest = max(members, key=lambda uid: option_of[uid].area)
        members.discard(costliest)
        pieces = legalize(dfg, members, explorer.constraints)
        if not pieces:
            return None
        members = set(max(pieces, key=len))
    return None
