"""Unit tests for the packed-bitset legality kernel
(:mod:`repro.graph.bitset`).

Parity against the frozen set-based reference
(``tests/legality_oracle.py``) is covered in breadth by
``tests/test_bitset_fuzz.py``; here the contracts around the kernel
itself are pinned: packing round-trips, lazy-cache lifetime (mutation
invalidation, output-set freshness, pickling), error-message parity of
``check_candidate`` against the oracle, the
two-stage :meth:`~repro.graph.bitset.BitsetDFG.classify_match` verdicts
and the int-row APIs on known shapes.
"""

import pickle

import pytest

from repro.config import ISEConstraints
from repro.errors import ConstraintError
from repro.graph import analysis
from repro.graph.bitset import BitsetDFG, bitset_view
from repro.graph.fuzz import random_dfg

import legality_oracle as oracle
from conftest import chain_dfg, diamond_dfg, dfg_from_block

CONS = ISEConstraints()


class TestDispatch:
    def test_dispatchers_agree_with_the_oracle(self):
        """The :mod:`repro.graph.analysis` entry points answer through
        the kernel with the frozen reference's verdicts and messages."""
        dfg = random_dfg(11, n_nodes=24)
        tight = ISEConstraints(n_in=2, n_out=1)
        pools = [set(dfg.nodes[k:k + 3]) for k in range(0, 21, 2)]
        for members in pools + [{dfg.nodes[0], dfg.nodes[-1]}]:
            assert analysis.is_convex(dfg, members) \
                == oracle.is_convex_reference(dfg, members)
            assert analysis.io_counts(dfg, members) \
                == oracle.io_counts(dfg, members)
            for cons in (CONS, tight):
                assert analysis.is_legal(dfg, members, cons) \
                    == oracle.is_legal_reference(dfg, members, cons)
                try:
                    oracle.check_candidate_reference(dfg, members, cons)
                    expected = None
                except ConstraintError as error:
                    expected = str(error)
                try:
                    analysis.check_candidate(dfg, members, cons)
                    got = None
                except ConstraintError as error:
                    got = str(error)
                assert got == expected


class TestPacking:
    def test_row_of_bit_positions(self):
        dfg = chain_dfg(5)
        view = bitset_view(dfg)
        uids = view.uids
        assert view.row_of([uids[0], uids[3]]) == (1 << 0) | (1 << 3)
        assert view.row_of([]) == 0

    def test_members_roundtrip(self):
        dfg = diamond_dfg()
        view = bitset_view(dfg)
        members = sorted(dfg.nodes[:3])
        assert view.members_of(view.row_of(members)) == members

    def test_pack_rows_shape_and_roundtrip(self):
        dfg = random_dfg(3, n_nodes=70)       # crosses the word boundary
        view = bitset_view(dfg)
        sets = [set(dfg.nodes[:1]), set(dfg.nodes[60:70]), set()]
        rows = view.pack_rows(sets)
        assert rows == [view.row_of(members) for members in sets]
        for row, members in zip(rows, sets):
            assert view.members_of(row) == sorted(members)

    def test_padding_bits_stay_zero(self):
        dfg = random_dfg(5, n_nodes=70)
        view = bitset_view(dfg)
        rows = view.pack_rows([set(dfg.nodes)])
        assert rows == [(1 << view.n) - 1]


class TestCacheLifetime:
    def test_view_is_cached(self):
        dfg = chain_dfg()
        assert bitset_view(dfg) is bitset_view(dfg)

    def test_mutators_invalidate(self):
        from repro.isa.instruction import Operation
        dfg = chain_dfg(4)
        before = bitset_view(dfg)
        uid = dfg.add_operation(Operation(99, "addu",
                                          sources=("a", "b"),
                                          dests=("z",)),
                                ext_inputs=("a", "b"))
        after = bitset_view(dfg)
        assert after is not before
        assert uid in after.index
        dfg.add_data_edge(dfg.nodes[0], 99, "t0")
        assert bitset_view(dfg) is not after

    def test_output_edit_detected_by_freshness(self):
        dfg = chain_dfg(4)
        view = bitset_view(dfg)
        # Direct output_nodes edits bypass the mutator hooks; fresh()
        # catches the drift and bitset_view rebuilds.
        dfg.output_nodes.add(dfg.nodes[0])
        assert not view.fresh(dfg)
        rebuilt = bitset_view(dfg)
        assert rebuilt is not view
        assert rebuilt.fresh(dfg)

    def test_pickle_drops_view(self):
        dfg = diamond_dfg()
        view = bitset_view(dfg)
        assert view is not None
        clone = pickle.loads(pickle.dumps(dfg))
        assert clone._bitset is None
        # The clone rebuilds its own, with identical verdicts.
        members = set(dfg.nodes)
        assert bitset_view(clone).io_counts(members) \
            == view.io_counts(members)

    def test_cycle_raises(self):
        dfg = chain_dfg(3)
        dfg.graph.add_edge(dfg.nodes[-1], dfg.nodes[0], kind="order",
                           values=set())
        dfg._adj = None
        dfg._bitset = None
        with pytest.raises(ConstraintError, match="cycle"):
            BitsetDFG(dfg)


class TestScalarChecks:
    def test_check_candidate_message_parity(self):
        dfg = random_dfg(11, n_nodes=32)
        view = bitset_view(dfg)
        pools = [set(), set(dfg.nodes[:6]), set(dfg.nodes),
                 {dfg.nodes[0], dfg.nodes[-1]}]
        for members in pools:
            try:
                oracle.check_candidate_reference(dfg, members, CONS)
                expected = None
            except ConstraintError as err:
                expected = str(err)
            if expected is None:
                view.check_candidate(members, CONS)
            else:
                with pytest.raises(ConstraintError) as caught:
                    view.check_candidate(members, CONS)
                assert str(caught.value) == expected

    def test_io_counts_multi_producer_name(self):
        # One name defined twice; candidate holds only the later
        # producer, so the earlier producer's edge still pulls the
        # name in and OUT counts it once.
        def body(b):
            t = b.addu("a", "b")
            t = b.addu(t, "c")      # redefines the temp name lineage
            return b.xor(t, "d")

        dfg = dfg_from_block(body)
        view = bitset_view(dfg)
        for members in ({dfg.nodes[1]}, set(dfg.nodes[1:]),
                        set(dfg.nodes)):
            assert view.io_counts(members) == (
                len(oracle.input_values(dfg, members)),
                len(oracle.output_values(dfg, members)))

    def test_is_connected(self):
        dfg = diamond_dfg()
        view = bitset_view(dfg)
        assert view.is_connected(set(dfg.nodes))
        assert view.is_connected({dfg.nodes[0]})
        assert not view.is_connected(set())
        # The two middle nodes of a diamond are not adjacent.
        assert not view.is_connected({dfg.nodes[1], dfg.nodes[2]})

    def test_classify_match_verdicts(self):
        dfg = random_dfg(23, n_nodes=48, p_memory=0.2)
        view = bitset_view(dfg)
        memory = [uid for uid in dfg.nodes if dfg.op(uid).is_memory]
        assert memory, "fuzz block lost its memory ops"
        assert view.classify_match(set(), CONS) == "cheap"
        assert view.classify_match({memory[0]}, CONS) == "cheap"
        seen = set()
        for uid in dfg.nodes:
            members = {uid}
            verdict = view.classify_match(members, CONS)
            legal = oracle.is_legal_reference(dfg, members, CONS)
            assert (verdict == "legal") == legal
            seen.add(verdict)
        # A convexity-only kill ("illegal"): endpoints of a chain.
        chain = chain_dfg(4)
        cview = bitset_view(chain)
        gap = {chain.nodes[0], chain.nodes[-1]}
        assert cview.classify_match(gap, CONS) == "illegal"


class _CountingObs:
    def __init__(self):
        self.counters = {}

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n


class TestMatchCounters:
    """find_matches splits mapping verdicts into the cheap pre-filter
    (``match.prefilter_rejected``) vs the full legality stage
    (``match.legality_checked``)."""

    def _dfg(self):
        def body(b):
            t = b.xor("a", "b")       # 0
            u = b.xor(t, "c")         # 1
            return b.xor(t, u)        # 2
        return dfg_from_block(body)

    def _pattern(self, dfg):
        from repro.graph import pattern_graph
        return pattern_graph(dfg, {0, 1})

    def test_port_kills_count_as_prefilter(self):
        from repro.graph import find_matches
        dfg = self._dfg()
        obs = _CountingObs()
        tight = ISEConstraints(n_in=2, n_out=1)
        matches = find_matches(dfg, self._pattern(dfg),
                               constraints=tight, obs=obs)
        # {0,1} and {0,2} die on IN(S)=3; {1,2} survives.
        assert obs.counters == {"match.prefilter_rejected": 2,
                                "match.legality_checked": 1}
        assert {frozenset(m) for m in matches} == {frozenset({1, 2})}

    def test_convexity_kills_go_the_distance(self):
        from repro.graph import find_matches
        dfg = self._dfg()
        obs = _CountingObs()
        matches = find_matches(dfg, self._pattern(dfg),
                               constraints=CONS, obs=obs)
        # All three pairs clear the cheap masks; only {0,2} is killed
        # (non-convex via the 0 -> 1 -> 2 escape path).
        assert obs.counters == {"match.legality_checked": 3}
        assert {frozenset(m) for m in matches} == {
            frozenset({0, 1}), frozenset({1, 2})}


class TestBatchedRows:
    def test_legal_rows_matches_scalar(self):
        dfg = random_dfg(29, n_nodes=40)
        view = bitset_view(dfg)
        pools = [set(dfg.nodes[k:k + 4]) for k in range(0, 36, 3)]
        pools += [set(), set(dfg.nodes)]
        rows = view.pack_rows(pools)
        legal = view.legal_rows(rows, CONS)
        for k, members in enumerate(pools):
            assert bool(legal[k]) == \
                oracle.is_legal_reference(dfg, members, CONS)

    def test_empty_batch(self):
        view = bitset_view(chain_dfg())
        rows = view.pack_rows([])
        assert view.legal_rows(rows, CONS) == []
