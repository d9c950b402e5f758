"""DFG construction and graph analyses."""

from .dfg import DFG, build_dfg
from .analysis import (
    alap_schedule,
    asap_schedule,
    check_candidate,
    critical_nodes,
    input_values,
    io_counts,
    is_convex,
    is_legal,
    longest_path_cycles,
    output_values,
    schedule_length,
    slack,
    violates_memory_rule,
)
from .bitset import BitsetDFG, bitset_view
from .fuzz import random_dfg
from .subgraph import (
    contains_pattern,
    find_matches,
    grown_group,
    hardware_components,
    pattern_graph,
    same_pattern,
)
from .export import candidate_to_dot, dfg_to_dot, schedule_to_gantt

__all__ = [
    "DFG",
    "BitsetDFG",
    "alap_schedule",
    "asap_schedule",
    "bitset_view",
    "build_dfg",
    "candidate_to_dot",
    "check_candidate",
    "contains_pattern",
    "dfg_to_dot",
    "schedule_to_gantt",
    "critical_nodes",
    "find_matches",
    "grown_group",
    "hardware_components",
    "input_values",
    "io_counts",
    "is_convex",
    "is_legal",
    "longest_path_cycles",
    "output_values",
    "pattern_graph",
    "random_dfg",
    "same_pattern",
    "schedule_length",
    "slack",
    "violates_memory_rule",
]
