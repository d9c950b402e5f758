"""Design-space sweeps over a (workload × machine × budget) grid.

A sweep is the ByoRISC-scale batch workload: every (workload × machine)
cell explored once, then evaluated at every area budget.  Cells run
one after another in canonical grid order, and each exploration fans
its (block, restart) grid over this host's persistent warm worker
pool, so the rows are bit-identical at any worker count.

:func:`run_sweep` returns a :class:`SweepResult` whose JSON payload
round-trips exactly — ``repro sweep --out sweep.json`` writes it, and
:meth:`SweepResult.from_payload` reads it back with its digest checked.
"""

import hashlib
from dataclasses import dataclass

from ..errors import ReproError
from ..obs import ensure_observer
from ..sched.machine import PAPER_CASES

#: Default area budgets of the example sweep (µm²).
DEFAULT_BUDGETS = (20_000, 80_000, 320_000)

#: Schema tag of the JSON payload (bump on layout changes).
PAYLOAD_SCHEMA = 2

#: Keys every schema-2 payload carries (``to_payload`` writes them all).
_PAYLOAD_KEYS = ("workloads", "machines", "budgets", "opt", "profile",
                 "seed", "engine", "digest", "rows")

_ROW_KEYS = ("workload", "ports", "issue", "budget", "baseline_cycles",
             "final_cycles", "reduction", "num_ises", "area")


def _require_keys(record, keys, what):
    """Refuse a truncated payload by naming its first missing key."""
    for key in keys:
        if key not in record:
            raise ReproError("{} has no {!r} (truncated or edited "
                             "file)".format(what, key))


@dataclass(frozen=True)
class SweepRow:
    """One (workload, machine, budget) outcome of a sweep."""

    workload: str
    ports: str
    issue: int
    budget: float
    baseline_cycles: int
    final_cycles: int
    reduction: float
    num_ises: int
    area: float

    def to_payload(self):
        """JSON-able dict of every field, floats preserved exactly."""
        return {
            "workload": self.workload, "ports": self.ports,
            "issue": self.issue, "budget": self.budget,
            "baseline_cycles": self.baseline_cycles,
            "final_cycles": self.final_cycles,
            "reduction": self.reduction, "num_ises": self.num_ises,
            "area": self.area,
        }

    @classmethod
    def from_payload(cls, record):
        """Rebuild a row from its :meth:`to_payload` dict."""
        _require_keys(record, _ROW_KEYS, "sweep row")
        return cls(**{name: record[name] for name in _ROW_KEYS})


@dataclass(frozen=True)
class SweepResult:
    """Frozen outcome of one sweep."""

    workloads: tuple
    machines: tuple            # ((ports, issue), ...) in grid order
    budgets: tuple
    opt: str
    profile: str
    seed: int
    engine: str
    rows: tuple                # SweepRow, in canonical grid order

    @property
    def digest(self):
        """Content digest of the rows; pooled == serial iff equal."""
        return sweep_digest(self.rows)

    def to_payload(self):
        """JSON-able form whose floats round-trip bit-exactly."""
        return {
            "_schema": PAYLOAD_SCHEMA,
            "workloads": list(self.workloads),
            "machines": [[ports, issue] for ports, issue in self.machines],
            "budgets": list(self.budgets),
            "opt": self.opt, "profile": self.profile, "seed": self.seed,
            "engine": self.engine,
            "digest": self.digest,
            "rows": [row.to_payload() for row in self.rows],
        }

    @classmethod
    def from_payload(cls, payload):
        """Rebuild a result, validating schema, keys and digest."""
        if payload.get("_schema") != PAYLOAD_SCHEMA:
            raise ReproError(
                "unsupported sweep payload schema {!r}".format(
                    payload.get("_schema")))
        _require_keys(payload, _PAYLOAD_KEYS, "sweep payload")
        if payload["digest"] is None:
            raise ReproError("sweep payload has a null 'digest'")
        result = cls(
            workloads=tuple(payload["workloads"]),
            machines=tuple((ports, issue)
                           for ports, issue in payload["machines"]),
            budgets=tuple(payload["budgets"]),
            opt=payload["opt"], profile=payload["profile"],
            seed=payload["seed"], engine=payload["engine"],
            rows=tuple(SweepRow.from_payload(r) for r in payload["rows"]))
        if payload["digest"] != result.digest:
            raise ReproError(
                "sweep payload digest mismatch (corrupt or edited file)")
        return result


def sweep_digest(rows):
    """SHA-256 over the exact row contents, in order."""
    text = repr([(row.workload, row.ports, row.issue, row.budget,
                  row.baseline_cycles, row.final_cycles, row.reduction,
                  row.num_ises, row.area) for row in rows])
    return hashlib.sha256(text.encode()).hexdigest()


def cell_grid(workloads, machines):
    """Canonical cell order: machines outer, workloads inner."""
    return tuple((workload, ports, issue)
                 for ports, issue in machines
                 for workload in workloads)


def run_sweep(*, workloads, machines=PAPER_CASES, budgets=DEFAULT_BUDGETS,
              opt="O3", profile="quick", seed=0, engine="aco", jobs=None,
              batch=None, iterations=None, restarts=None, obs=None):
    """Explore every grid cell and evaluate it at every budget.

    Each cell runs through :func:`repro.api.explore` /
    :func:`repro.api.evaluate` on this host's warm worker pool; rows
    come out in canonical grid order (machines outer, workloads, then
    budgets).
    """
    from ..api import evaluate as api_evaluate
    from ..api import explore as api_explore

    workloads = tuple(workloads)
    machines = tuple((ports, issue) for ports, issue in machines)
    budgets = tuple(budgets)
    if not workloads or not machines or not budgets:
        raise ReproError(
            "a sweep needs at least one workload, machine and budget")
    for ports, issue in machines:
        if (not isinstance(issue, int) or isinstance(issue, bool)
                or issue < 1):
            raise ReproError(
                "machine ({!r}, {!r}): issue must be a positive "
                "integer".format(ports, issue))
    obs = ensure_observer(obs)
    cells = cell_grid(workloads, machines)
    if obs:
        obs.count("sweep.cells", len(cells))
        obs.event("sweep.start", cells=len(cells))
    rows = []
    for workload, ports, issue in cells:
        with obs.timer("sweep.cell"):
            explored = api_explore(
                workload, issue=issue, ports=ports, profile=profile,
                seed=seed, opt=opt, jobs=jobs, batch=batch,
                iterations=iterations, restarts=restarts,
                engine=engine, observer=obs)
            for budget in budgets:
                selection = api_evaluate(explored, max_area=budget,
                                         observer=obs)
                rows.append(SweepRow(
                    workload=workload, ports=ports, issue=issue,
                    budget=budget,
                    baseline_cycles=selection.baseline_cycles,
                    final_cycles=selection.final_cycles,
                    reduction=selection.reduction,
                    num_ises=selection.num_ises,
                    area=selection.area))
        if obs:
            obs.count("sweep.rows", len(budgets))
    if obs:
        obs.event("sweep.done", rows=len(rows))
    return SweepResult(
        workloads=workloads, machines=machines, budgets=budgets,
        opt=opt, profile=profile, seed=seed, engine=engine,
        rows=tuple(rows))


def render_sweep(result):
    """The example's reduction matrix, rendered from a SweepResult."""
    lines = []
    header = "{:16s}".format("machine")
    header += "".join("{:>14}".format("{}um2".format(int(budget)))
                      for budget in result.budgets)
    lines.append(
        "Execution-time reduction, mean over {} ({}, engine={})".format(
            "+".join(result.workloads), result.opt, result.engine))
    lines.append(header)
    lines.append("-" * len(header))
    by_cell = {}
    for row in result.rows:
        by_cell.setdefault((row.ports, row.issue, row.budget),
                           []).append(row.reduction)
    best = (None, -1.0)
    for ports, issue in result.machines:
        label = "({}, {}IS)".format(ports, issue)
        cells = []
        for budget in result.budgets:
            values = by_cell.get((ports, issue, budget))
            if not values:
                cells.append(None)
                continue
            value = 100.0 * sum(values) / len(values)
            cells.append(value)
            if value > best[1]:
                best = ("{} @ {} um2".format(label, int(budget)), value)
        lines.append("{:16s}".format(label) + "".join(
            "{:>14}".format("-") if value is None
            else "{:>13.2f}%".format(value) for value in cells))
    if best[0] is not None:
        lines.append("")
        lines.append("Best cell: {} ({:.2f}% reduction)".format(*best))
    return "\n".join(lines)
