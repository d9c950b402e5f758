"""Parity of the native pattern matcher with the frozen VF2 oracle.

:func:`repro.graph.subgraph.find_matches` must return the member sets
``match_oracle`` (networkx's ``DiGraphMatcher``) returns: on every
explorable block of the seven workloads against every candidate
pattern of a quick explore, and on fuzz DFGs against random connected
and scattered patterns, with and without ``exclude``.  Containment,
pattern equality and merging's condition (1) must give VF2's verdicts.
No comparison here may reach a cap, where the two enumeration orders
may cut differently; capped calls are checked to stay bounded and to
repeat exactly.
"""

import itertools
import pickle
import random

import networkx as nx
import pytest

import match_oracle as oracle
from repro import api
from repro.config import ISEConstraints
from repro.core import merging
from repro.graph.fuzz import random_dfg, random_members
from repro.graph.subgraph import (
    MatchHost,
    _embeddings,
    _search_plan,
    contains_pattern,
    find_matches,
    pattern_graph,
    pattern_occurrences,
    same_pattern,
)
from repro.workloads import workload_names

from conftest import dfg_from_block

EFFORT = dict(profile="quick", iterations=10, restarts=1, seed=1, jobs=1)

#: Both caps of the compared calls.  Fewer raw mappings than this (see
#: :func:`_mapping_count`) also means fewer distinct member sets, so no
#: compared call reaches either cap.
CAP = 5000


@pytest.fixture(scope="module")
def explored():
    return [api.explore(name, **EFFORT).explored
            for name in workload_names()]


def _mapping_count(dfg, pattern, exclude=frozenset()):
    """Raw mappings of ``pattern`` into ``dfg``'s groupable operations
    outside ``exclude``, counted up to :data:`CAP`."""
    free = -1
    for uid in exclude:
        free &= ~(1 << dfg.tables().index[uid])
    return sum(1 for __ in itertools.islice(_embeddings(
        MatchHost.of_dfg(dfg), _search_plan(pattern), free), CAP))


def _sets(matches):
    return {frozenset(members) for members in matches}


def _assert_same_matches(dfg, pattern, constraints=None,
                         exclude=frozenset()):
    assert _mapping_count(dfg, pattern, exclude) < CAP
    caps = dict(exclude=exclude, max_mappings=CAP, max_matches=CAP)
    ours = find_matches(dfg, pattern, constraints, **caps)
    theirs = oracle.find_matches(dfg, pattern, constraints, **caps)
    assert len(ours) == len(_sets(ours))
    assert _sets(ours) == _sets(theirs)
    return len(ours)


class TestWorkloadBlocks:
    def test_every_block_and_candidate_pattern(self, explored):
        calls = found = 0
        for application in explored:
            patterns = [c.pattern() for c in application.candidates]
            assert patterns
            for instance in application.blocks:
                if not instance.explorable:
                    continue
                for pattern in patterns:
                    for constraints in (None, application.constraints):
                        found += _assert_same_matches(
                            instance.dfg, pattern, constraints)
                        calls += 1
        assert calls > 300 and found > 100

    def test_merging_verdicts(self, explored):
        pairs = absorbed = 0
        for application in explored:
            candidates = sorted(application.candidates,
                                key=lambda c: (-c.size, -c.area))
            patterns = [c.pattern() for c in candidates]
            for (rep, a), (cand, b) in itertools.product(
                    zip(candidates, patterns), repeat=2):
                assert same_pattern(a, b) == oracle.same_pattern(a, b)
                contained = oracle.contains_pattern(a, b)
                assert contains_pattern(a, b) == contained
                assert {frozenset(nodes) for nodes in pattern_occurrences(
                    a, b)} == oracle.occurrence_sets(a, b)
                if contained:
                    verdict = merging._subgraph_cycles_ok(rep, a, cand, b)
                    assert verdict == _oracle_cycles_ok(rep, a, cand, b)
                    absorbed += verdict
                pairs += 1
        assert pairs > 100 and absorbed > 0


def _oracle_cycles_ok(rep, rep_pattern, candidate, pattern):
    """Merging's condition (1) over VF2's mappings."""
    rep_members = sorted(rep.members)
    for nodes in oracle.occurrence_sets(rep_pattern, pattern):
        delay = merging._chain_delay(rep, {rep_members[i] for i in nodes})
        if candidate.cycles >= rep.technology.cycles_for_delay(delay):
            return True
    return False


class TestFuzz:
    @pytest.mark.parametrize("seed", range(16))
    def test_random_patterns(self, seed):
        rng = random.Random(seed)
        dfg = random_dfg(seed, n_nodes=rng.choice((12, 24, 40)))
        other = random_dfg(seed + 100, n_nodes=24)
        constraints = ISEConstraints()
        for trial in range(16):
            source = dfg if rng.random() < 0.7 else other
            # Even trials grow connected cones, whose reconvergent edges
            # need the checks against every placed neighbour.
            members = (random_members(rng, source, max_size=5)
                       if trial % 2 else random_members(
                           rng, source, max_size=7, p_connected=1.0))
            pattern = pattern_graph(source, members)
            exclude = frozenset(rng.sample(dfg.nodes, len(dfg.nodes) // 4))
            for skip in (frozenset(), exclude):
                _assert_same_matches(dfg, pattern, None, skip)
                _assert_same_matches(dfg, pattern, constraints, skip)

    def test_scattered_patterns_are_covered(self):
        rng = random.Random(5)
        dfg = random_dfg(5, n_nodes=24)
        counts = []
        for __ in range(40):
            members = random_members(rng, dfg, max_size=4, p_connected=0.0)
            pattern = pattern_graph(dfg, members)
            if nx.number_weakly_connected_components(pattern) > 1:
                counts.append(_assert_same_matches(dfg, pattern))
        assert len(counts) > 10 and max(counts) > 1

    def test_pattern_verdicts(self):
        rng = random.Random(11)
        dfg = random_dfg(3, n_nodes=40, p_memory=0.0)
        patterns = [pattern_graph(dfg, random_members(rng, dfg, max_size=5))
                    for __ in range(40)]
        for a, b in itertools.product(patterns, patterns[:20]):
            assert same_pattern(a, b) == oracle.same_pattern(a, b)
            assert contains_pattern(a, b) == oracle.contains_pattern(a, b)


def _pairs_dfg():
    """Six identical addu -> xor pairs: combinatorially many matches."""
    def body(b):
        outs = []
        for __ in range(6):
            t = b.addu("a", "b")
            outs.append(b.xor(t, "c"))
        acc = outs[0]
        for other in outs[1:]:
            acc = b.or_(acc, other)
        return acc
    return dfg_from_block(body)


class TestCaps:
    def test_capped_calls_are_bounded_and_repeat(self):
        dfg = _pairs_dfg()
        pattern = pattern_graph(dfg, {0, 1})
        full = _sets(oracle.find_matches(dfg, pattern))
        assert len(full) >= 6
        for constraints in (None, ISEConstraints()):
            first = find_matches(dfg, pattern, constraints, max_matches=3)
            assert 0 < len(first) <= 3
            assert _sets(first) <= full
            again = find_matches(pickle.loads(pickle.dumps(dfg)), pattern,
                                 constraints, max_matches=3)
            assert again == first
        # Two disjoint pairs: mappings outnumber distinct member sets.
        double = pattern_graph(dfg, {0, 1, 2, 3})
        capped = find_matches(dfg, double, max_mappings=4)
        assert 0 < len(capped) <= 4
        assert capped == find_matches(dfg, double, max_mappings=4)
        assert _sets(find_matches(dfg, double)) == _sets(
            oracle.find_matches(dfg, double))
