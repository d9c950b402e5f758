"""The "SI" comparator: Wu et al.'s single-issue ACO exploration [8].

The previous work explores ISEs with the same ACO machinery but is
*location-unaware*: it assumes a single-issue pipeline when it measures
execution time, and so it happily packs operations that a multi-issue
schedule would have hidden off the critical path.

:class:`SingleIssueAcoEngine` reproduces it as the shared ACO engine
run with

* a **1-issue** view of the target machine (same register file, same
  technology, one unit of every function-unit kind — the ISA-format
  constraints are identical), and
* the locality terms of the merit function disabled
  (``use_critical_path_boost = False``, ``use_slack_window = False``),

which is precisely the difference the thesis claims over [8].  Results
carry the *single-issue* cycle counts the algorithm believes in; the
design flow then evaluates the candidates on the real multi-issue
machine — the "schedule the single-issue result on a 2-issue processor"
comparison of §1.4.
"""

from ..config import DEFAULT_PARAMS
from ..sched.machine import MachineConfig
from .aco import AcoEngine


class SingleIssueAcoEngine(AcoEngine):
    """Locality-blind ACO on a 1-issue view of the machine."""

    name = "si"
    description = ("single-issue ACO of Wu et al. [8]: the aco engine on "
                   "a 1-issue view of the machine, locality terms off")

    def __init__(self, machine, params=None, **kwargs):
        params = (params or DEFAULT_PARAMS).with_(
            use_critical_path_boost=False, use_slack_window=False)
        single_issue = MachineConfig(
            1, machine.register_file,
            fu_counts={"alu": 1, "mul": 1, "mem": 1, "branch": 1, "asfu": 1},
            technology=machine.technology)
        super().__init__(single_issue, params=params, **kwargs)

    def _best_of(self, results):
        """Every path out of :meth:`explore`/:meth:`explore_many` ends
        here; tag the kept restart's candidates ``source="SI"``."""
        best = super()._best_of(results)
        if best is not None:
            for candidate in best.candidates:
                candidate.source = "SI"
        return best
