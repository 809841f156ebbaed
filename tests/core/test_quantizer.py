"""Property tests for the int8 candidate tier (:class:`QuantizedStore`).

Each class pins one property of the quantizer over seeded randomized
embedding clouds (anisotropic scales, shifted centers, family-structured
clouds, degenerate shapes): the round-trip error bound, calibration
monotonicity and determinism, degenerate-corpus behavior, the exact
agreement of the production rank keys with literal int32 accumulation,
the quantization error bound of code-space distances against the float
reference, ranking fidelity on the overfetch pool, the float re-rank of
narrow pools, the float32 and wide (float64-GEMM) tiers, and bit-for-bit
agreement with the search the rank keys replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (code_distance_search, code_distances, dequantize,
                     quantized_distances_int32)
from repro.core.serving import (ANNConfig, QuantizationConfig,
                                QuantizedStore, RecommendationCandidateSet,
                                exact_search)
from repro.testbed.scores import ScoreLabel

SEEDS = range(8)


def random_cloud(seed: int, n: int = 200, dim: int = 16) -> np.ndarray:
    """An anisotropic, off-center embedding cloud (GIN-embedding-shaped)."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-2, 2, size=dim)
    center = rng.normal(size=dim) * scales * 3.0
    return rng.normal(size=(n, dim)) * scales + center


def family_cloud(seed: int, families: int = 40, per_family: int = 6,
                 dim: int = 48, spread: float = 8.0,
                 noise: float = 0.5) -> np.ndarray:
    """Tight families of near-duplicates around well-separated centers."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(families, dim)) * spread
    return (centers[:, None, :]
            + noise * rng.normal(size=(families, per_family, dim))
            ).reshape(-1, dim)


def kendall_tau(a: np.ndarray, b: np.ndarray) -> float:
    """Tau-a over all pairs (ties count as neither concordant nor not)."""
    iu = np.triu_indices(len(a), 1)
    s = (np.sign(a[:, None] - a[None, :])
         * np.sign(b[:, None] - b[None, :]))[iu]
    return float(s.sum() / len(s))


def euclidean(queries: np.ndarray, members: np.ndarray) -> np.ndarray:
    """[Q, N] float64 distances by explicit differences (the reference)."""
    diff = (np.asarray(queries, np.float64)[:, None, :]
            - np.asarray(members, np.float64)[None, :, :])
    return np.sqrt((diff * diff).sum(axis=2))


class TestRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_reconstruction_error_bounded_by_half_scale(self, seed):
        emb = random_cloud(seed)
        store = QuantizedStore(emb)
        reconstructed = dequantize(store, store.codes)
        # Calibration covers the corpus range, so no member clips and the
        # rounding error is at most half a quantization step per dimension.
        error = np.abs(reconstructed - emb)
        assert error.max() <= store.scale * 0.5 * (1 + 1e-9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_out_of_range_inputs_clip_to_the_boundary(self, seed):
        emb = random_cloud(seed)
        store = QuantizedStore(emb)
        outlier = emb[0] + 1e6 * (emb.max(axis=0) - emb.min(axis=0) + 1.0)
        codes = store.quantize(outlier)
        assert codes.min() >= -127 and codes.max() <= 127
        assert (codes == 127).any()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dequantized_distance_error_is_bounded_by_reconstruction_error(
            self, seed):
        """``scale · sqrt(code distance)`` is exactly ``‖q̂ − x̂‖``, so by
        the triangle inequality it differs from the true distance by at
        most the two rows' own reconstruction errors — a per-pair bound,
        tighter than the worst case ``scale · sqrt(d)``, that holds for
        clipped queries too."""
        emb = random_cloud(seed)
        store = QuantizedStore(emb)
        rng = np.random.default_rng(seed + 300)
        near = emb[::8] + 0.05 * emb.std(axis=0) * rng.normal(
            size=(25, emb.shape[1]))
        far = emb[:5] + 3.0 * (emb.max(axis=0) - emb.min(axis=0))
        queries = np.vstack([near, far])
        code_dist = store.scale * np.sqrt(code_distances(store, queries))
        true_dist = euclidean(queries, emb)
        query_err = np.linalg.norm(
            dequantize(store, store.quantize(queries)) - queries, axis=1)
        member_err = np.linalg.norm(dequantize(store, store.codes) - emb,
                                    axis=1)
        slack = 1e-9 * (1.0 + true_dist.max())
        assert (np.abs(code_dist - true_dist)
                <= query_err[:, None] + member_err[None, :] + slack).all()


class TestCalibration:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scale_grows_monotonically_with_the_corpus_spread(self, seed):
        emb = random_cloud(seed)
        scales = [QuantizedStore(alpha * emb).scale
                  for alpha in (0.5, 1.0, 2.0, 8.0)]
        assert all(a < b for a, b in zip(scales, scales[1:]))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scale_is_homogeneous_in_the_corpus(self, seed):
        emb = random_cloud(seed)
        base = QuantizedStore(emb).scale
        scaled = QuantizedStore(3.0 * emb).scale
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_translation_leaves_codes_invariant(self):
        # Zero-points are per-dimension midranges, so a global translation
        # moves the calibration with the corpus and the codes are untouched.
        emb = random_cloud(3)
        shift = np.full(emb.shape[1], 0.5)
        a = QuantizedStore(emb)
        b = QuantizedStore(emb + shift)
        np.testing.assert_array_equal(a.codes, b.codes)
        np.testing.assert_allclose(a.scale, b.scale, rtol=1e-9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_store_is_a_pure_function_of_its_rows(self, seed):
        """Two stores over the same rows agree bit for bit: calibration,
        codes and rank keys."""
        emb = random_cloud(seed)
        a, b = QuantizedStore(emb), QuantizedStore(emb.copy())
        assert a.scale == b.scale
        np.testing.assert_array_equal(a.zero_point, b.zero_point)
        np.testing.assert_array_equal(a.codes, b.codes)
        np.testing.assert_array_equal(a.rank_keys(emb[::13]),
                                      b.rank_keys(emb[::13]))


class TestDegenerateCorpora:
    def test_constant_corpus_quantizes_to_zero_codes(self):
        emb = np.full((32, 8), 7.25)
        store = QuantizedStore(emb)
        assert (store.codes == 0).all()
        idx, dist = store.search(emb[:4], emb, 3)
        np.testing.assert_array_equal(idx, [[0, 1, 2]] * 4)
        np.testing.assert_array_equal(dist, 0.0)

    def test_zero_corpus(self):
        emb = np.zeros((16, 4))
        store = QuantizedStore(emb)
        assert (store.codes == 0).all()
        assert store.scale > 0

    def test_single_member_rcs(self):
        emb = np.array([[1.0, -2.0, 3.0]])
        store = QuantizedStore(emb)
        idx, dist = store.search(emb, emb, 5)
        np.testing.assert_array_equal(idx, [[0]])
        np.testing.assert_allclose(dist, 0.0, atol=1e-9)

    def test_empty_store(self):
        store = QuantizedStore(np.zeros((0, 4)), QuantizationConfig())
        assert len(store) == 0
        assert store.codes.shape == (0, 4)
        assert store.scale > 0

    def test_constant_columns_encode_and_search(self):
        """Frozen dimensions sit exactly on their zero-point (code 0) and
        drop out of the code distance instead of distorting it."""
        emb = family_cloud(3, dim=24, spread=20.0, noise=0.2)
        emb[:, ::3] = 7.25                       # a third of the dims frozen
        store = QuantizedStore(emb, QuantizationConfig(overfetch=4))
        assert (store.codes[:, ::3] == 0).all()
        np.testing.assert_array_equal(
            dequantize(store, store.codes)[:, ::3], 7.25)
        queries = emb[::17] + 0.01
        qi, _ = store.search(queries, emb, 3)
        ei, _ = exact_search(queries, emb, 3)
        np.testing.assert_array_equal(qi, ei)

    def test_one_dimensional_corpus_ranks_exactly(self):
        """d = 1: one shared scale over 50 evenly spaced values leaves
        ~5 codes between neighbors, so the code scan cannot reorder."""
        rng = np.random.default_rng(0)
        emb = rng.permutation(np.arange(50.0))[:, None]
        store = QuantizedStore(emb, QuantizationConfig(overfetch=2))
        assert len(np.unique(store.codes)) == 50
        queries = np.array([[3.3], [17.8], [41.1], [49.4]])
        qi, qd = store.search(queries, emb, 3)
        ei, ed = exact_search(queries, emb, 3)
        np.testing.assert_array_equal(qi, ei)
        np.testing.assert_allclose(qd, ed, rtol=1e-12)

    def test_duplicate_rows_break_ties_by_lowest_index(self):
        """Triplicated members tie exactly in code space and in the float
        re-rank; the pool keeps every copy, and the re-rank keeps the two
        lowest indices, as :func:`exact_search` does."""
        base = family_cloud(4, families=20, per_family=3, dim=16,
                            spread=20.0, noise=0.3)
        n = len(base)
        emb = np.vstack([base, base, base])
        store = QuantizedStore(emb, QuantizationConfig(overfetch=8))
        queries = base[::7] + 0.01
        qi, qd = store.search(queries, emb, 2)
        ei, ed = exact_search(queries, emb, 2)
        np.testing.assert_array_equal(qi, ei)
        np.testing.assert_array_equal(qi[:, 1] - qi[:, 0], n)
        np.testing.assert_array_equal(qd[:, 0], qd[:, 1])


def keys_plus_query_norms(store: QuantizedStore,
                          queries: np.ndarray) -> np.ndarray:
    """``rank_keys + ‖q‖²`` in int64: the code distances the keys stand
    for (the keys are exact integers, so the cast loses nothing)."""
    keys = store.rank_keys(queries)
    assert (keys == np.rint(keys)).all()
    codes = store.quantize(queries).astype(np.int64)
    return keys.astype(np.int64) + (codes * codes).sum(axis=1)[:, None]


class TestInt32Kernel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_production_kernel_is_exact_int32_accumulation(self, seed):
        """The float32 GEMM over int8 codes must produce keys that are
        the int32 code distances less ``‖q‖²``, *exactly* — every partial
        sum fits the 24-bit mantissa for any embedding width the encoder
        produces."""
        emb = random_cloud(seed, n=150)
        store = QuantizedStore(emb)
        queries = random_cloud(seed + 100, n=40, dim=emb.shape[1])
        assert store.rank_keys(queries).dtype == np.float32
        np.testing.assert_array_equal(
            keys_plus_query_norms(store, queries),
            quantized_distances_int32(store.quantize(queries), store.codes))

    @pytest.mark.parametrize("dim", [261, 1100])
    def test_wide_embeddings_fall_back_to_a_float64_gemm(self, dim):
        """Past d = 260 the store runs the float64 GEMM (exact below 2⁵³),
        and its keys are still the int32 code distances less ``‖q‖²``."""
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(50, dim))
        store = QuantizedStore(emb)
        assert store.rank_keys(emb[:5]).dtype == np.float64
        np.testing.assert_array_equal(
            keys_plus_query_norms(store, emb[:5]),
            quantized_distances_int32(store.quantize(emb[:5]), store.codes))

    def test_float32_gemm_exact_at_the_widest_qualifying_dim(self):
        """d = 260 with maximally spread codes is the worst float32 case:
        opposite-corner codes reach the key bound 3·260·127², and the code
        distance 4·260·127² just fits the mantissa."""
        emb = np.vstack([np.full((2, 260), -1.0), np.full((2, 260), 1.0)])
        store = QuantizedStore(emb)
        keys = store.rank_keys(emb)
        assert keys.dtype == np.float32
        assert keys.max() == 3 * 260 * 127 ** 2
        np.testing.assert_array_equal(
            keys_plus_query_norms(store, emb),
            quantized_distances_int32(store.quantize(emb), store.codes))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_code_distances_match_float_reference_within_quant_bound(
            self, seed):
        """``scale · sqrt(code distance)`` is the dequantized Euclidean
        distance; by the triangle inequality it can differ from the float
        reference by at most the two reconstruction errors, each bounded by
        ``scale/2 · sqrt(d)``."""
        emb = random_cloud(seed)
        store = QuantizedStore(emb)
        queries = emb[:30]
        code_dist = store.scale * np.sqrt(code_distances(store, queries))
        true_dist = np.sqrt(
            np.maximum(((queries[:, None, :] - emb[None, :, :]) ** 2)
                       .sum(axis=2), 0.0))
        bound = store.scale * np.sqrt(emb.shape[1]) * (1 + 1e-9)
        assert np.abs(code_dist - true_dist).max() <= bound


class TestCandidateSearch:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_search_matches_exact_on_separated_clouds(self, seed):
        """With quantization error far below the neighbor separation the
        candidate pass must reproduce the exact top-k bit-for-bit
        (indices and float-tier distances)."""
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(40, 8)) * 50.0
        emb = (centers[:, None, :]
               + rng.normal(size=(40, 5, 8))).reshape(200, 8)
        store = QuantizedStore(emb, QuantizationConfig(overfetch=8))
        queries = emb[::7] + 0.1
        qi, qd = store.search(queries, emb, 5)
        ei, ed = exact_search(queries, emb, 5)
        np.testing.assert_array_equal(qi, ei)
        # Same Gram identity evaluated over different partial sums: only
        # cancellation noise separates the two distance paths.
        np.testing.assert_allclose(qd, ed, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("k", [4, 20, 30])
    def test_small_corpora_serve_the_plain_float_scan(self, k):
        """A k · overfetch pool covering the corpus skips the code scan."""
        emb = random_cloud(0, n=30)
        store = QuantizedStore(emb, QuantizationConfig(overfetch=8))
        qi, qd = store.search(emb[:3], emb, k)
        ei, ed = exact_search(emb[:3], emb, k)
        np.testing.assert_array_equal(qi, ei)
        np.testing.assert_array_equal(qd, ed)


class TestSearchMatchesThePreviousPath:
    """The rank-key scan and the re-rank from memoized norms return what
    the code-distance scan and the re-rank that summed member norms
    returned (``oracles.code_distance_search``), bit for bit: indices and
    distances, at every batch size and k, on both precision tiers and on
    mixed tiers, over a corpus with duplicated members whose keys tie."""

    @staticmethod
    def rcs(seed: int, dtype) -> RecommendationCandidateSet:
        base = family_cloud(seed, families=50, per_family=24, dim=32)
        members = np.vstack([base, base[:200]]).astype(dtype)
        rng = np.random.default_rng(seed)
        labels = [ScoreLabel(model_names=("a", "b", "c"), sa=rng.random(3),
                             se=rng.random(3)) for _ in members]
        rcs = RecommendationCandidateSet(members, labels,
                                         ann=ANNConfig(threshold=1000))
        assert isinstance(rcs.index, QuantizedStore)
        return rcs

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("rows, queries", [
        (np.float64, np.float64), (np.float32, np.float32),
        (np.float32, np.float64)], ids=["float64", "float32", "mixed"])
    def test_rcs_search_equals_the_code_distance_search(self, seed, rows,
                                                        queries):
        rcs = self.rcs(seed, rows)
        rng = np.random.default_rng(seed + 50)
        probes = (rcs.embeddings[rng.choice(len(rcs), 64, replace=False)]
                  + 0.05 * rng.normal(size=(64, 32))).astype(queries)
        for q in (1, 7, 16, 64):
            for k in (1, 2, 5, 40):
                got_i, got_d = rcs.search(probes[:q], k)
                want_i, want_d = code_distance_search(
                    rcs.index, probes[:q], rcs.embeddings, k)
                assert got_d.dtype == want_d.dtype
                np.testing.assert_array_equal(got_i, want_i,
                                              err_msg=f"Q={q} k={k}")
                np.testing.assert_array_equal(got_d, want_d,
                                              err_msg=f"Q={q} k={k}")

    def test_a_pool_of_the_whole_corpus_is_the_exact_scan(self):
        rcs = self.rcs(0, np.float64)
        probes = rcs.embeddings[::97] + 0.01
        k = len(rcs) // rcs.index.config.overfetch + 1
        got_i, got_d = rcs.search(probes, k)
        want_i, want_d = exact_search(probes, rcs.embeddings, k)
        np.testing.assert_array_equal(got_i, want_i)
        np.testing.assert_array_equal(got_d, want_d)

    def test_a_pool_below_one_candidate_per_neighbor_is_refused(self):
        with pytest.raises(ValueError, match="overfetch must be at least 1"):
            QuantizedStore(random_cloud(0), QuantizationConfig(overfetch=0))


class TestRankingFidelity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kendall_tau_floor_on_the_overfetch_pool(self, seed):
        """The code-space ordering of each query's top ``k · overfetch``
        candidates must track the exact ordering — the ranking-fidelity
        contract the int8 tier serves under on family-structured
        embeddings (tight near-duplicates, well-separated families)."""
        emb = family_cloud(seed)
        config = QuantizationConfig(overfetch=8)
        store = QuantizedStore(emb, config)
        queries = emb[::11] + 0.2
        code = code_distances(store, queries)
        true_sq = euclidean(queries, emb) ** 2
        pool = 5 * config.overfetch
        taus = []
        for q in range(len(queries)):
            candidates = np.argpartition(code[q], pool - 1)[:pool]
            taus.append(kendall_tau(code[q][candidates],
                                    true_sq[q][candidates]))
        assert np.mean(taus) >= 0.95
        assert min(taus) >= 0.9


class TestNarrowPools:
    """Pools narrower than the corpus (``k · overfetch < N``) go through
    the code scan and the float re-rank of the pool."""

    @staticmethod
    def case(seed):
        emb = random_cloud(seed)
        rng = np.random.default_rng(seed + 500)
        queries = (emb[rng.choice(len(emb), 12, replace=False)]
                   + 0.3 * emb.std(axis=0) * rng.normal(size=(12, 16)))
        return emb, queries

    @pytest.mark.parametrize("seed", SEEDS)
    def test_answers_are_distinct_ascending_and_float_priced(self, seed):
        emb, queries = self.case(seed)
        store = QuantizedStore(emb, QuantizationConfig(overfetch=2))
        qi, qd = store.search(queries, emb, 5)
        assert qi.shape == qd.shape == (len(queries), 5)
        for row in qi:
            assert len(set(row.tolist())) == 5
        assert (np.diff(qd, axis=1) >= 0).all()
        np.testing.assert_allclose(
            qd, np.take_along_axis(euclidean(queries, emb), qi, axis=1),
            rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rerank_is_exact_within_the_code_pool(self, seed):
        """Every answer lies inside the code pool, and no member surely in
        the pool (strictly inside its code-distance cut) that is truly
        closer than the k-th answer is left out: quantization can only
        cost recall through the pool, never through the re-rank."""
        emb, queries = self.case(seed)
        k, overfetch = 5, 2
        store = QuantizedStore(emb, QuantizationConfig(overfetch=overfetch))
        qi, qd = store.search(queries, emb, k)
        code = code_distances(store, queries)
        true = euclidean(queries, emb)
        for q in range(len(queries)):
            cut = np.partition(code[q], k * overfetch - 1)[k * overfetch - 1]
            assert (code[q][qi[q]] <= cut).all()
            surely_pooled = np.flatnonzero(code[q] < cut)
            closer = surely_pooled[true[q][surely_pooled]
                                   < qd[q, -1] * (1 - 1e-9)]
            assert set(closer.tolist()) <= set(qi[q].tolist())


class TestPrecisionTiers:
    @pytest.mark.parametrize("seed", range(4))
    def test_float32_corpus_is_served_in_float32(self, seed):
        """A float32 corpus stays float32 through the code scan and the
        re-rank — no silent float64 promotion of the returned distances."""
        emb = family_cloud(seed, dim=24, spread=3.0,
                           noise=0.1).astype(np.float32)
        queries = emb[::9] + np.float32(0.05)
        store = QuantizedStore(emb, QuantizationConfig(overfetch=4))
        qi, qd = store.search(queries, emb, 5)
        ei, ed = exact_search(queries, emb, 5)
        assert qd.dtype == ed.dtype == np.float32
        np.testing.assert_array_equal(qi, ei)
        # Both paths price with the float32 Gram identity, whose
        # cancellation noise scales with the operands' squared norms.
        reference = np.take_along_axis(euclidean(queries, emb), qi, axis=1)
        norms = (np.vstack([queries, emb]).astype(np.float64) ** 2).sum(
            axis=1).max()
        np.testing.assert_allclose(qd.astype(np.float64) ** 2,
                                   reference ** 2,
                                   atol=32 * np.finfo(np.float32).eps
                                   * norms)

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_family_clouds_search_exactly_through_the_float64_gemm(
            self, seed):
        """Past the float32 exactness bound the code scan runs a float64
        GEMM; on separated families it still reproduces the exact top-k."""
        emb = family_cloud(seed, dim=300, spread=4.0, noise=0.2)
        store = QuantizedStore(emb, QuantizationConfig(overfetch=4))
        queries = emb[::7] + 0.01
        assert store.rank_keys(queries).dtype == np.float64
        qi, qd = store.search(queries, emb, 5)
        ei, ed = exact_search(queries, emb, 5)
        np.testing.assert_array_equal(qi, ei)
        np.testing.assert_allclose(qd, ed, rtol=1e-9, atol=1e-9)
