"""Round state dies by reference count, not in the cyclic collector.

Each round contracts its winner into a new block DFG, and merging and
replacement build pattern graphs and match hosts.  None of them may
close a reference cycle: with the collector off, a full explore /
evaluate / sweep run must leave nothing for ``gc.collect()`` to find
that belongs to the program or is a networkx graph.  The walks that
replaced networkx's own (weak components, pattern equality) are pinned
to networkx's results, iteration order included.
"""

import gc
import random

import networkx as nx
import pytest
from networkx.algorithms import isomorphism

from repro import api
from repro.core import pool
from repro.graph.fuzz import random_dfg, random_members
from repro.graph.subgraph import hardware_components, pattern_graph, \
    same_pattern

EFFORT = dict(profile="quick", iterations=10, restarts=1, seed=1)


def _cyclic_garbage(run):
    """Objects ``gc.collect()`` finds unreachable after ``run()``, with
    the collector disabled and every unreachable object kept."""
    enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _explore_evaluate_sweep():
    for name in ("crc32", "bitcount"):
        explored = api.explore(name, jobs=1, **EFFORT)
        for budget in (20_000, 320_000):
            api.evaluate(explored, max_area=budget)
    api.sweep(["adpcm"], machines=[("4/2", 2)], budgets=[80_000], jobs=2,
              **EFFORT)


def test_runs_leave_no_cyclic_garbage():
    try:
        garbage = _cyclic_garbage(_explore_evaluate_sweep)
    finally:
        pool.shutdown_pools()
    owned = sorted({type(obj).__qualname__ for obj in garbage
                    if type(obj).__module__.startswith("repro.")})
    assert owned == []
    graphs = [obj for obj in garbage if isinstance(obj, nx.Graph)]
    assert graphs == []


def _nx_components(dfg, chosen):
    sub = dfg.graph.subgraph(set(chosen))
    return [set(component)
            for component in nx.weakly_connected_components(sub)]


@pytest.mark.parametrize("seed", range(12))
def test_hardware_components_match_networkx(seed):
    rng = random.Random(seed)
    dfg = random_dfg(seed, n_nodes=rng.choice([8, 24, 60]))
    nodes = dfg.nodes
    # Both sides of the view's half-the-graph switch, plus strays.
    for share in (0.1, 0.3, 0.5, 0.7, 1.0):
        chosen = set(rng.sample(nodes, max(1, int(share * len(nodes)))))
        chosen.add(10_000)
        ours = hardware_components(dfg, chosen)
        theirs = _nx_components(dfg, chosen)
        assert [list(c) for c in ours] == [list(c) for c in theirs]


def test_same_pattern_matches_networkx():
    rng = random.Random(7)
    dfg = random_dfg(3, n_nodes=40, p_memory=0.0)
    patterns = [pattern_graph(dfg, random_members(rng, dfg, max_size=5))
                for __ in range(60)]
    for a in patterns:
        for b in patterns[:20]:
            matcher = isomorphism.DiGraphMatcher(
                a, b, node_match=lambda x, y: x["opcode"] == y["opcode"])
            assert same_pattern(a, b) == matcher.is_isomorphic()
