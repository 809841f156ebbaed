"""The fault-injection harness itself, and the storage/embedding faults it
drives: torn and corrupted cache entries, NaN embeddings entering the RCS,
and stale generation stamps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serving import RecommendationCandidateSet
from repro.testbed.faults import FaultPlan
from repro.testbed.scores import ScoreLabel
from repro.utils.cache import MISSING, DiskCache, PersistentLRUCache

MODELS = ("A", "B", "C")


def score_label(seed=0):
    rng = np.random.default_rng(seed)
    return ScoreLabel(MODELS, rng.uniform(size=3), rng.uniform(size=3))


class TestFaultPlanSchedule:
    def test_empty_plan_injects_nothing(self):
        plan = FaultPlan()
        assert not plan.should_kill(0, 1, 0)
        assert plan.sleep_seconds(0, 1, 0) == 0.0
        assert not plan.scramble_tier(0, 1, 0)
        queries = np.ones((2, 3))
        assert plan.poison_embeddings(queries, 1) is queries

    def test_kill_targets_the_first_incarnation_only(self):
        plan = FaultPlan(kill_at={1: 3})
        assert plan.should_kill(1, 3, incarnation=0)
        assert not plan.should_kill(1, 3, incarnation=1)  # restarted: clean
        assert not plan.should_kill(1, 2, incarnation=0)
        assert not plan.should_kill(0, 3, incarnation=0)

    def test_kill_always_hits_every_incarnation(self):
        plan = FaultPlan(kill_always=frozenset({2}))
        for incarnation in range(4):
            assert plan.should_kill(2, 1, incarnation)

    def test_slow_targets_one_request_of_the_first_incarnation(self):
        plan = FaultPlan(slow_at={0: (2, 0.5)})
        assert plan.sleep_seconds(0, 2, 0) == 0.5
        assert plan.sleep_seconds(0, 1, 0) == 0.0
        assert plan.sleep_seconds(0, 2, 1) == 0.0

    def test_poison_is_seeded_and_copy_on_write(self):
        plan = FaultPlan(seed=9, poison_embedding_at=frozenset({1}))
        clean = np.ones((4, 6))
        poisoned = plan.poison_embeddings(clean, 1)
        assert np.isfinite(clean).all()          # original untouched
        assert not np.isfinite(poisoned).all()
        again = plan.poison_embeddings(np.ones((4, 6)), 1)
        np.testing.assert_array_equal(
            np.isfinite(poisoned), np.isfinite(again))

    def test_plan_pickles(self):
        import pickle

        plan = FaultPlan(seed=3, kill_at={1: 2}, slow_at={0: (1, 0.1)},
                         kill_always=frozenset({4}))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.kill_at == {1: 2}
        assert clone.should_kill(4, 9, 3)


class TestTornAndCorruptCacheEntries:
    def entry_path(self, cache: DiskCache, key: str):
        return cache._path(key)

    def test_torn_entry_reads_as_a_miss_not_a_crash(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cache.put("weights", {"rows": list(range(500))})
        FaultPlan(tear_fraction=0.5).tear_file(self.entry_path(cache, "weights"))
        assert cache.get("weights", MISSING) is MISSING
        # The torn file was discarded; a rewrite fully heals the entry.
        cache.put("weights", {"rows": [1]})
        assert cache.get("weights") == {"rows": [1]}

    def test_corrupt_entry_reads_as_a_miss_not_garbage(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cache.put("emb", np.arange(64, dtype=np.float64))
        FaultPlan(seed=2, corrupt_bytes=16).corrupt_file(
            self.entry_path(cache, "emb"))
        value = cache.get("emb", MISSING)
        # A flipped pickle either fails to parse (miss) or -- for flips in
        # the payload -- still parses; it must never raise mid-serve.
        if value is not MISSING:
            assert isinstance(value, np.ndarray)

    def test_tear_is_deterministic_for_a_given_plan(self, tmp_path):
        payloads = []
        for run in range(2):
            path = tmp_path / f"blob{run}"
            path.write_bytes(bytes(range(256)) * 4)
            FaultPlan(seed=7, tear_fraction=0.25).tear_file(path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_corrupt_is_deterministic_for_a_given_seed(self, tmp_path):
        payloads = []
        for run in range(2):
            path = tmp_path / f"blob{run}"
            path.write_bytes(bytes(range(256)) * 4)
            FaultPlan(seed=7).corrupt_file(path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]
        assert payloads[0] != bytes(range(256)) * 4


class TestStaleGenerationStamps:
    def test_stale_generation_entries_are_unreachable(self, tmp_path):
        directory = tmp_path / "cache"
        cache = PersistentLRUCache(directory, generation="weights-v1")
        cache.put("fingerprint", np.arange(4))

        # A straggler node carrying the fault plan's stale stamp must not
        # serve (or be served) the fresh generation's embeddings.
        plan = FaultPlan(stale_generation="weights-v0")
        stale = PersistentLRUCache(directory, generation=plan.stale_generation)
        assert stale.get("fingerprint", MISSING) is MISSING

        # ... and reopening at the true generation after the straggler ran
        # never resurrects old rows: the store was invalidated.
        fresh = PersistentLRUCache(directory, generation="weights-v1")
        assert fresh.get("fingerprint", MISSING) is MISSING


class TestRCSRejectsNonFiniteEmbeddings:
    def make_rcs(self, n=6, dim=5, seed=0):
        rng = np.random.default_rng(seed)
        return RecommendationCandidateSet(
            rng.normal(size=(n, dim)),
            [score_label(i) for i in range(n)])

    def test_add_rejects_a_nan_embedding(self):
        rcs = self.make_rcs()
        bad = np.ones(5)
        bad[2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            rcs.add(bad, score_label(9))
        assert len(rcs) == 6                    # nothing half-added

    def test_add_rejects_an_inf_embedding(self):
        rcs = self.make_rcs()
        with pytest.raises(ValueError, match="non-finite"):
            rcs.add(np.full(5, np.inf), score_label(9))

    def test_replace_embeddings_rejects_and_names_the_bad_rows(self):
        rcs = self.make_rcs()
        replacement = np.ones((6, 5))
        replacement[1, 3] = np.nan
        replacement[4, 0] = np.inf
        with pytest.raises(ValueError, match=r"row\(s\) 1, 4"):
            rcs.replace_embeddings(replacement)
        # The stored corpus is untouched by the rejected replace.
        assert np.isfinite(rcs.embeddings).all()

    def test_finite_embeddings_still_flow(self):
        rcs = self.make_rcs()
        rcs.add(np.ones(5), score_label(9))
        assert len(rcs) == 7
