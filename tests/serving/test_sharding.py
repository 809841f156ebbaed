"""Partitioning, the bit-for-bit merge, and the per-shard runtime."""

import numpy as np
import pytest

from repro.core.serving import (ANNConfig, QuantizationConfig,
                                RecommendationCandidateSet, exact_search)
from repro.serving import (BreakerConfig, ShardRuntime, ShardSpec,
                           merge_top_k, partition_members, tier_ladder)
from repro.testbed.scores import ScoreLabel


def make_corpus(n=48, dim=12, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim))


def sharded_search(embeddings, queries, k, num_shards, **spec_kwargs):
    """Scatter/merge through in-process ShardRuntimes (no processes)."""
    parts_i, parts_d = [], []
    for shard_id, ids in enumerate(
            partition_members(len(embeddings), num_shards)):
        runtime = ShardRuntime(ShardSpec(
            shard_id=shard_id, global_ids=ids, embeddings=embeddings[ids],
            **spec_kwargs))
        idx, dist = runtime.search(queries, k)
        parts_i.append(idx)
        parts_d.append(dist)
    return merge_top_k(parts_i, parts_d, k)


class TestPartition:
    def test_round_robin_covers_every_member_once(self):
        parts = partition_members(23, 4)
        assert len(parts) == 4
        joined = np.sort(np.concatenate(parts))
        assert np.array_equal(joined, np.arange(23))

    def test_shard_sizes_are_balanced_within_one(self):
        sizes = [len(p) for p in partition_members(23, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_members_gives_empty_tails(self):
        parts = partition_members(2, 5)
        assert [len(p) for p in parts] == [1, 1, 0, 0, 0]

    def test_rejects_a_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            partition_members(10, 0)


class TestMerge:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_merge_is_bit_for_bit_the_single_process_search(self, num_shards):
        embeddings = make_corpus()
        queries = make_corpus(n=7, seed=1)
        want_i, want_d = exact_search(queries, embeddings, 5)
        got_i, got_d = sharded_search(embeddings, queries, 5, num_shards)
        assert np.array_equal(got_i, want_i)
        assert np.array_equal(got_d, want_d)

    def test_merge_breaks_distance_ties_by_lowest_member_index(self):
        # Duplicate rows across different shards tie exactly; the merge
        # must prefer the lower global id, like top_k_neighbors.
        row = np.ones((1, 4))
        embeddings = np.concatenate([row, row * 3, row, row * 3])
        queries = row
        want_i, want_d = exact_search(queries, embeddings, 3)
        got_i, got_d = sharded_search(embeddings, queries, 3, 2)
        assert np.array_equal(got_i, want_i)
        assert np.array_equal(got_d, want_d)

    def test_merge_with_missing_shards_returns_the_partial_top_k(self):
        embeddings = make_corpus()
        queries = make_corpus(n=3, seed=2)
        parts = partition_members(len(embeddings), 3)
        runtimes = [
            ShardRuntime(ShardSpec(shard_id=s, global_ids=ids,
                                   embeddings=embeddings[ids]))
            for s, ids in enumerate(parts)
        ]
        results = [rt.search(queries, 5) for rt in runtimes[:2]]  # shard 2 cut
        got_i, got_d = merge_top_k([r[0] for r in results],
                                   [r[1] for r in results], 5)
        survivors = np.concatenate(parts[:2])
        sub = exact_search(queries, embeddings[survivors], 5)
        assert np.array_equal(got_i, survivors[sub[0]])

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_int8_shards_merge_to_the_exact_answer_on_separated_clouds(
            self, num_shards):
        """Every shard serves its slice from its own int8 store (its own
        calibration); on well-separated families the merged answer is
        still the single-process exact top-k."""
        rng = np.random.default_rng(num_shards)
        centers = rng.normal(size=(24, 12)) * 8.0
        embeddings = (centers[:, None, :]
                      + 0.1 * rng.normal(size=(24, 5, 12))).reshape(-1, 12)
        queries = embeddings[::11] + 0.01
        parts_i, parts_d = [], []
        for shard_id, ids in enumerate(
                partition_members(len(embeddings), num_shards)):
            runtime = ShardRuntime(ShardSpec(
                shard_id=shard_id, global_ids=ids,
                embeddings=embeddings[ids], ann=ANNConfig(threshold=1),
                quantization=QuantizationConfig(overfetch=2)))
            assert runtime.breaker.tier == "int8"
            idx, dist = runtime.search(queries, 4)
            parts_i.append(idx)
            parts_d.append(dist)
        got_i, got_d = merge_top_k(parts_i, parts_d, 4)
        want_i, want_d = exact_search(queries, embeddings, 4)
        assert np.array_equal(got_i, want_i)
        np.testing.assert_allclose(got_d, want_d, rtol=1e-9, atol=1e-9)

    def test_merge_of_nothing_is_empty(self):
        idx, dist = merge_top_k([], [], 5)
        assert idx.shape == (0, 0) and dist.shape == (0, 0)


class TestTierLadder:
    def test_no_ann_config_means_exact_only(self):
        assert tier_ladder(16, None) == ("exact",)
        assert tier_ladder(16, ANNConfig(threshold=0)) == ("exact",)

    def test_slice_below_the_threshold_is_exact_only(self):
        assert tier_ladder(15, ANNConfig(threshold=16)) == ("exact",)

    def test_slice_at_the_threshold_starts_at_int8(self):
        ladder = tier_ladder(16, ANNConfig(threshold=16))
        assert ladder == ("int8", "exact")

    @pytest.mark.parametrize("size, threshold", [
        (0, 1), (1, 1), (15, 16), (16, 16), (17, 16), (40, 0)])
    def test_ladder_top_is_the_tier_an_rcs_of_that_size_serves(
            self, size, threshold):
        """Shard and RCS read one rule: a slice starts at the tier an
        unsharded RCS of the same size serves from."""
        ann = ANNConfig(threshold=threshold)
        embeddings = make_corpus(n=size)
        label = ScoreLabel(("A", "B"), np.array([1.0, 0.5]),
                           np.array([0.5, 1.0]))
        rcs = RecommendationCandidateSet(embeddings, [label] * size, ann=ann)
        ladder = tier_ladder(size, ann)
        assert ladder[-1] == "exact"
        assert (ladder[0] == "int8") == (rcs.index is not None)
        runtime = ShardRuntime(ShardSpec(
            shard_id=0, global_ids=np.arange(size), embeddings=embeddings,
            ann=ann))
        assert runtime.ladder == ladder
        assert runtime.breaker.tier == ladder[0]


class TestShardRuntime:
    def test_serves_global_ids_not_local_indices(self):
        embeddings = make_corpus()
        ids = partition_members(len(embeddings), 3)[1]
        runtime = ShardRuntime(ShardSpec(shard_id=1, global_ids=ids,
                                         embeddings=embeddings[ids]))
        queries = make_corpus(n=4, seed=3)
        got_i, _ = runtime.search(queries, 3)
        assert np.isin(got_i, ids).all()

    def test_quantized_tier_serves_and_probes_healthy(self):
        embeddings = make_corpus(n=64)
        ids = np.arange(64)
        spec = ShardSpec(
            shard_id=0, global_ids=ids, embeddings=embeddings,
            ann=ANNConfig(threshold=1), probe_every=1)
        runtime = ShardRuntime(spec)
        assert runtime.breaker.tier == "int8"
        runtime.search(make_corpus(n=2, seed=4), 3)
        assert runtime.last_health.recall_probe is not None
        assert runtime.breaker.tier == "int8"   # healthy probe, no demotion

    def test_scrambled_codes_demote_the_shard_to_exact(self):
        embeddings = make_corpus(n=64, dim=24, seed=5)
        spec = ShardSpec(
            shard_id=0, global_ids=np.arange(64), embeddings=embeddings,
            ann=ANNConfig(threshold=1),
            quantization=QuantizationConfig(overfetch=1),
            breaker=BreakerConfig(failure_threshold=1, min_recall=0.95),
            probe_every=1)
        runtime = ShardRuntime(spec)
        runtime.scramble_store("int8")
        queries = make_corpus(n=4, dim=24, seed=6)
        for _ in range(4):
            runtime.search(queries, 5)
        assert runtime.breaker.tier == "exact"
        assert runtime.breaker.demotions >= 1
        # The exact floor still answers correctly.
        got_i, got_d = runtime.search(queries, 5)
        want_i, want_d = exact_search(queries, embeddings, 5)
        assert np.array_equal(got_i, want_i)
        assert np.array_equal(got_d, want_d)

    def test_exact_only_slice_builds_no_store(self):
        """Below the threshold there is no int8 rung: nothing is
        quantized, and the fault hook has no codes to scramble."""
        embeddings = make_corpus(n=32)
        runtime = ShardRuntime(ShardSpec(
            shard_id=0, global_ids=np.arange(32), embeddings=embeddings,
            ann=ANNConfig(threshold=33), probe_every=1))
        runtime.scramble_store()
        queries = make_corpus(n=3, seed=7)
        got_i, got_d = runtime.search(queries, 4)
        assert runtime._store is None
        assert runtime.last_health.recall_probe is None
        want_i, want_d = exact_search(queries, embeddings, 4)
        assert np.array_equal(got_i, want_i)
        assert np.array_equal(got_d, want_d)

    def test_empty_slice_answers_with_empty_rows(self):
        runtime = ShardRuntime(ShardSpec(
            shard_id=3, global_ids=np.arange(0), embeddings=np.zeros((0, 12)),
            ann=ANNConfig(threshold=1)))
        assert runtime.ladder == ("exact",)
        idx, dist = runtime.search(make_corpus(n=2, seed=8), 5)
        assert idx.shape == dist.shape == (2, 0)
        assert idx.dtype == np.int64
        assert runtime.requests_served == 0

    def test_spec_round_trips_through_pickle(self):
        import pickle

        embeddings = make_corpus(n=8)
        spec = ShardSpec(shard_id=2, global_ids=np.arange(8),
                         embeddings=embeddings,
                         ann=ANNConfig(threshold=4),
                         quantization=QuantizationConfig(overfetch=4))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.shard_id == 2
        assert np.array_equal(clone.embeddings, embeddings)
        assert clone.ann.threshold == 4
