"""Multi-issue machine model, resources and list scheduling."""

from .machine import PAPER_CASES, MachineConfig, paper_machines
from .resources import Needs, ReservationTable
from .priorities import get_priority, priority_names
from .units import SchedUnit, UnitGraph, contract_dfg, software_needs
from .list_scheduler import Schedule, list_schedule
from .emit import emit_block_listing, emit_bundles

__all__ = [
    "MachineConfig",
    "Needs",
    "PAPER_CASES",
    "ReservationTable",
    "SchedUnit",
    "Schedule",
    "UnitGraph",
    "contract_dfg",
    "emit_block_listing",
    "emit_bundles",
    "get_priority",
    "list_schedule",
    "paper_machines",
    "priority_names",
    "software_needs",
]
