"""Tests for the cross-restart evaluation memo (core/evalcache.py)."""

import pickle

from repro.core import evalcache
from repro.core.candidate import ISECandidate
from repro.core.evalcache import EvalCache, candidate_fingerprint, \
    dfg_fingerprint
from repro.hwlib import DEFAULT_TECHNOLOGY
from repro.hwlib.options import HardwareOption

from conftest import chain_dfg, diamond_dfg


def two_candidates(dfg):
    a = HardwareOption("A", 1.5, 10.0)
    b = HardwareOption("B", 2.5, 20.0)
    return (ISECandidate(dfg, {1, 2}, {1: a, 2: a}, DEFAULT_TECHNOLOGY),
            ISECandidate(dfg, {4}, {4: b}, DEFAULT_TECHNOLOGY))


class TestFingerprints:
    def test_equal_structure_equal_digest(self):
        # Two independent builds of the same block must share a key —
        # that is what lets pool workers hit the parent's snapshot.
        assert dfg_fingerprint(chain_dfg(3)) == dfg_fingerprint(chain_dfg(3))

    def test_different_structure_different_digest(self):
        assert dfg_fingerprint(chain_dfg(3)) != dfg_fingerprint(chain_dfg(4))
        assert dfg_fingerprint(chain_dfg(3)) != dfg_fingerprint(diamond_dfg())

    def test_digest_cached_on_dfg(self):
        dfg = chain_dfg(2)
        first = dfg_fingerprint(dfg)
        assert dfg._evalcache_fp == first
        assert dfg_fingerprint(dfg) is first

    def test_candidate_fingerprint_canonical(self):
        opt = HardwareOption("A", 1.5, 10.0)
        fp1 = candidate_fingerprint([2, 1], {1: opt, 2: opt})
        fp2 = candidate_fingerprint({1, 2}, {2: opt, 1: opt})
        assert fp1 == fp2

    def test_key_is_candidate_order_sensitive(self):
        # Contraction names supernodes in candidate order and the list
        # scheduler tie-breaks on unit name, so [A, B] and [B, A] are
        # distinct evaluations and must not share a memo entry.
        dfg = chain_dfg(5)
        cache = EvalCache()
        first, second = two_candidates(dfg)
        key_ab = cache.key(dfg, [first, second], None)
        key_ba = cache.key(dfg, [second, first], None)
        assert key_ab != key_ba

    def test_key_includes_software_latencies(self):
        dfg = chain_dfg(5)
        cache = EvalCache()
        cands = list(two_candidates(dfg))
        assert (cache.key(dfg, cands, ((0, 1),))
                != cache.key(dfg, cands, ((0, 2),)))


class TestEvalCache:
    def test_hit_miss_counting(self):
        cache = EvalCache()
        key = ("fp", (), None)
        assert cache.get(key) is None
        cache.put(key, 7)
        assert cache.get(key) == 7
        assert cache.stats() == (1, 1, 1)

    def test_pickle_keeps_entries_resets_counters(self):
        cache = EvalCache()
        cache.put(("k", (), None), 3)
        cache.get(("k", (), None))
        cache.get(("absent", (), None))
        warm = pickle.loads(pickle.dumps(cache))
        assert len(warm) == 1
        assert warm.stats() == (0, 0, 1)
        assert warm.get(("k", (), None)) == 3

    def test_entry_cap_respected(self, monkeypatch):
        monkeypatch.setattr(evalcache, "MAX_ENTRIES", 2)
        cache = EvalCache()
        for index in range(5):
            cache.put(("k", index), index)
        assert len(cache) == 2
