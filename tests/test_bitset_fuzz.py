"""Property-based parity fuzz: packed bitset kernel vs set-based oracle.

The first slice of the workload-fleet fuzz harness (ROADMAP item 3c):
seeded random DFGs from :func:`repro.graph.fuzz.random_dfg` — forward
edges, memory-ordering edges, external inputs and deliberately
**multi-producer** (non-SSA) destination names — are probed with mixed
connected/scattered candidate sets, and every §4.2 question is asked
three ways:

* the frozen set-based reference in ``tests/legality_oracle.py``
  (``*_reference`` / ``input_values`` / ``output_values``) — the
  oracle,
* the scalar bitset fast path,
* the batched row API (legality of the whole candidate pool in one
  call).

All three must agree **exactly** on every (block, candidate) pair —
convexity, IN/OUT counts, legality, ``check_candidate`` error
messages and connectivity (the last against networkx directly); the
row API answers legality only.  Any
failure reproduces from the printed seeds alone.
"""

import random

import networkx as nx
import pytest

from repro.config import ISEConstraints
from repro.errors import ConstraintError
from repro.graph.bitset import bitset_view
from repro.graph.fuzz import random_dfg, random_members

import legality_oracle as oracle

#: (block seeds, candidates per block) — 24 blocks x 45 candidates =
#: 1080 (block, candidate) pairs, each checked on all three paths.
BLOCK_SEEDS = range(24)
CANDIDATES_PER_BLOCK = 45

#: Mix of port budgets so both IN- and OUT-limited kills occur.
CONSTRAINT_GRID = (ISEConstraints(),
                   ISEConstraints(n_in=2, n_out=1))


def _block(seed):
    rng = random.Random(seed)
    n_nodes = rng.choice([6, 16, 33, 65, 96])
    return random_dfg(seed, n_nodes=n_nodes,
                      n_values=max(3, n_nodes // 4))


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_bitset_matches_reference(seed):
    dfg = _block(seed)
    view = bitset_view(dfg)
    assert view is not None
    rng = random.Random(10_000 + seed)
    pools = [random_members(rng, dfg, max_size=12)
             for __ in range(CANDIDATES_PER_BLOCK)]

    rows = view.pack_rows(pools)
    legal_rows = {cons: view.legal_rows(rows, cons)
                  for cons in CONSTRAINT_GRID}

    for k, members in enumerate(pools):
        where = "seed={} candidate={} members={}".format(
            seed, k, sorted(members))
        # Convexity vs oracle.
        expected = oracle.is_convex_reference(dfg, members)
        assert view.is_convex(members) == expected, where
        # IN/OUT counts (the multi-producer stress lives here).
        counts = (len(oracle.input_values(dfg, members)),
                  len(oracle.output_values(dfg, members)))
        assert view.io_counts(members) == counts, where
        # Legality + error-message parity under both port budgets.
        for cons in CONSTRAINT_GRID:
            legal = oracle.is_legal_reference(dfg, members, cons)
            assert view.is_legal(members, cons) == legal, where
            assert bool(legal_rows[cons][k]) == legal, where
            try:
                oracle.check_candidate_reference(dfg, members, cons)
                message = None
            except ConstraintError as err:
                message = str(err)
            if message is None:
                view.check_candidate(members, cons)
            else:
                with pytest.raises(ConstraintError) as caught:
                    view.check_candidate(members, cons)
                assert str(caught.value) == message, where
        # Connectivity against networkx.
        connected = bool(members) and nx.is_weakly_connected(
            dfg.graph.subgraph(members))
        assert view.is_connected(members) == connected, where


def test_fuzz_blocks_are_multi_producer():
    """The generator must actually produce non-SSA names, or the parity
    sweep above is not exercising the hard counting case."""
    multi = 0
    for seed in BLOCK_SEEDS:
        dfg = _block(seed)
        producers = {}
        for uid in dfg.nodes:
            for name in dfg.op(uid).dests:
                producers.setdefault(name, set()).add(uid)
        if any(len(p) > 1 for p in producers.values()):
            multi += 1
    assert multi >= len(list(BLOCK_SEEDS)) // 2


def test_fuzz_dfgs_are_reproducible():
    a, b = _block(5), _block(5)
    assert a.nodes == b.nodes
    assert sorted(a.edge_pairs()) == sorted(b.edge_pairs())
    assert a.output_nodes == b.output_nodes
    assert [a.op(u).name for u in a.nodes] \
        == [b.op(u).name for u in b.nodes]
