"""The paper's contribution: multi-issue ISE exploration + design flow."""

from .candidate import ISECandidate
from .state import ExplorationState
from .iteration import Cluster, IterationSchedule
from .grouping import VirtualGroup, best_group_of, hardware_grouping
from .trail import update_trails
from .merit import update_merits
from .analysis import ScheduleAnalysis
from .make_convex import legalize_components, make_convex
from .contract import contract_candidate
from .manual import ISEEntry, build_manual, expression_of, render_manual
from .merging import MergedISE, merge_candidates
from .selection import SelectionResult, select_ises, shared_area
from .replacement import (
    plan_block_replacements,
    replace_and_schedule,
    schedule_with_ises,
)
from .flow import (
    BlockInstance,
    ExploredApplication,
    FlowReport,
    ISEDesignFlow,
)

__all__ = [
    "BlockInstance",
    "Cluster",
    "ExplorationState",
    "ExploredApplication",
    "FlowReport",
    "ISECandidate",
    "ISEDesignFlow",
    "ISEEntry",
    "IterationSchedule",
    "MergedISE",
    "build_manual",
    "expression_of",
    "render_manual",
    "ScheduleAnalysis",
    "SelectionResult",
    "VirtualGroup",
    "best_group_of",
    "contract_candidate",
    "hardware_grouping",
    "legalize_components",
    "make_convex",
    "merge_candidates",
    "plan_block_replacements",
    "replace_and_schedule",
    "schedule_with_ises",
    "select_ises",
    "shared_area",
    "update_merits",
    "update_trails",
]
