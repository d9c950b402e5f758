"""Pluggable ISE-exploration engines and their string-keyed registry.

The design flow, :func:`repro.api.explore` and the CLI resolve their
``engine=`` / ``--engine`` argument through this package: every engine
implements the :class:`~repro.engines.base.ExplorerEngine` protocol, so
rival search strategies race interchangeably over the same DFG /
IO-table / convexity machinery and — crucially — the same metered
:meth:`~repro.engines.base.ExplorerEngine._evaluate` scoring path,
which is what makes equal-:class:`~repro.engines.base.EvalBudget`
tournaments (:mod:`repro.eval.tournament`) fair.

Built-in engines (lazily imported on first use):

``aco``
    The paper's multi-issue ant-colony search ("MI", the default).
``si``
    Wu et al.'s single-issue ACO [8] ("SI"): ``aco`` on a 1-issue view
    of the machine with the locality terms off.
``greedy``
    Deterministic Clark-style cone growth [6] ("GREEDY").
``annealing``
    Simulated annealing over option flips (§2.2's model choice).
``exact``
    Exhaustive per-round optimum for blocks of at most
    ``MAX_EXACT_NODES`` groupable nodes (Pozzi-style oracle [4]).
``isegen``
    ISEGEN-style Kernighan-Lin cut growing (Biswas et al.).
``genetic``
    Generational genetic search over hardware subsets.

Third-party engines join with ``engines.register("name", MyEngine)``.
"""

from .base import (EngineStats, EvalBudget, ExplorationResult,
                   ExplorerEngine, available, create, describe,
                   engine_class, register, register_lazy, unregister)

register_lazy("aco", "repro.engines.aco", "AcoEngine",
              "multi-issue ant-colony search of the source paper "
              "(critical-path-aware trails/merits, the default)")
register_lazy("si", "repro.engines.si", "SingleIssueAcoEngine",
              "single-issue ACO of Wu et al. [8]: the aco engine on a "
              "1-issue view of the machine, locality terms off")
register_lazy("annealing", "repro.engines.annealing", "AnnealingEngine",
              "simulated annealing over per-operation option flips "
              "(§2.2's model-choice comparator)")
register_lazy("exact", "repro.engines.exact", "ExactEngine",
              "exhaustive per-round optimum over legal connected "
              "subsets (blocks of at most 16 groupable nodes)")
register_lazy("isegen", "repro.engines.isegen", "IsegenEngine",
              "ISEGEN-style Kernighan-Lin cut growing: toggle-based "
              "iterative improvement with locking and best-prefix "
              "reversion")
register_lazy("greedy", "repro.engines.greedy", "GreedyEngine",
              "deterministic greedy cone growth around each seed node "
              "(the classic single-pass baseline)")
register_lazy("genetic", "repro.engines.genetic", "GeneticEngine",
              "generational genetic search over hardware-node subsets "
              "(tournament selection, uniform crossover)")

__all__ = [
    "EngineStats", "EvalBudget", "ExplorationResult", "ExplorerEngine",
    "available", "create", "describe", "engine_class", "register",
    "register_lazy", "unregister",
]
