"""Fast-path before/after benchmark runner.

Times the scalar reference path against the vectorized fast path for the
three advisor stages the perf PR targets:

* ``featurize_corpus``  — per-column loops vs single-pass broadcast kernels
  over a 20-dataset corpus;
* ``dml_epoch``         — per-batch ``batch_graphs`` re-padding vs the
  corpus tensor cache (``GraphTensorBatcher``), one epoch at batch_size=32;
* ``recommend_batch``   — 100 sequential ``recommend`` calls (embedding
  cache off) vs one ``recommend_batch`` over repeat traffic;
* ``float32_epoch``     — the float64 fast path vs the float32 precision
  tier: one DML epoch (tensor cache + fused GIN/loss/Adam at each dtype)
  and batched serving, with the recommendation agreement between tiers;
* ``quantized_search``  — the int8 candidate tier: exact float32 scan vs
  the ``QuantizedStore`` candidate pass the RCS attaches at its default
  size threshold (int32-accumulated code distances, top ``k·overfetch``
  kept, float re-rank) on GIN embeddings of the 8192-member family
  corpus, with recall@k, plus the float32 serving check — a
  ``dtype="float32"`` advisor serving from int8 candidates must agree with
  the float64 reference recommendations;
* ``daemon_microbatch`` — ``repro serve --daemon``'s work on the 116
  serve-cold request files streamed as paths: ``iter_batches`` drains the
  stream, and each batch is loaded and answered by ``recommend_batch``
  (featurize, GIN embed, exact search) over the 1 200-member serve-cold
  advisor, one request per call vs 16 coalesced, embedding cache cleared
  per drain; picks, neighbours and score vectors checked identical;
* ``drift_check``       — Sec. V-E's drift check with the RCS
  nearest-neighbour threshold recomputed on every call (the N×N kernel
  per request) vs memoized per RCS state, on random 64-d RCSs of 1 200
  (paper scale) and 4 096 members (the int8 tier's threshold), with
  every verdict checked identical;
* ``dataset_load``      — the 116 serve-cold request datasets of
  ``benchmarks/e2e``, each written as a format-1 file (one deflated
  member per column, by a bench-local copy of the old writer) and as a
  format-2 file (``save_dataset``: one stored int64 block), then read by
  ``load_dataset``; plus the join correlation of every foreign key by
  ``np.unique`` (the definition) vs ``Dataset.join_correlation``'s
  bincount, with columns, correlations and ``build_feature_graph``
  output checked identical for every dataset;
* ``serve_cold_stages`` — serve-cold's per-request stages over the 116
  request datasets of ``benchmarks/e2e``, against bench-local copies of
  the previous code: ``load_dataset`` plus the eager networkx join graph
  and forest check ``Dataset`` used to build vs ``load_dataset`` alone;
  the broadcast featurizer vs ``build_feature_graph``; and the drift
  check plus exact search with the member norms and the threshold's
  percentile recomputed per request vs memoized per RCS state, on a
  1 200-member RCS (the serve-cold advisor: fitted on the 240
  frozen-label datasets, grown with perturbed copies).  Feature graphs,
  join graphs (``fk_between`` on every table pair against the eager
  graph), verdicts, distances and picks are checked identical;
* ``progressive_sampling`` — NeuroCard's progressive sampler over every
  train and test query of 12 generated datasets (fast testbed): a
  bench-local copy of the full column walk (one MADE forward and one draw
  per column) vs the shipped sampler (column 0 memoized, the walk cut
  after the last constrained column or once every path is dead), with
  estimates and RNG states checked bit-identical and MADE forwards
  counted; plus ``UAE.fit`` on a fresh context vs on the context where
  NeuroCard already fitted its MADEs, calibrations checked identical;
* ``ce_inference``      — every sub-plan estimate of one optimizer-loop
  pass of ``benchmarks/e2e`` (its 16 datasets, each with the model the
  advisor picks, DeepDB or BayesCard, fitted as the loop fits it), plus
  FLAT fitted on the same datasets answering the same sub-plans: a
  bench-local copy of the recursive SPN and Chow–Liu evaluation (and the
  discretizer mass it read) vs the shipped flat inference, with every
  estimate checked bit-identical, in µs per estimate per model;
* ``e2e_advisor_loop``  — the closed loop: histogram baseline, every fixed
  candidate model and the advisor-picked model planning and executing
  small single-/multi-table workloads through the provider layer, scored
  on true-recost plan cost, simulated latency and TrueCard plan
  agreement, with an internal deterministic double run (before = the
  average fixed-model policy's simulated latency, after = the advisor's).

Writes a machine-readable ``results/BENCH_micro.json`` so future PRs can
track the perf trajectory, and prints a human-readable table.
``--only name [name ...]`` re-runs a subset and merges it into the
existing JSON instead of re-running everything.

Run:  PYTHONPATH=src python benchmarks/run_benchmarks.py [--repeats N]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
import time
from pathlib import Path

import networkx as nx
import numpy as np

from repro import nn
from repro.ce.registry import CANDIDATE_MODELS
from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig, DMLTrainer
from repro.core.encoder import GINEncoder
from repro.core.features import join_correlation_matrix
from repro.core.graph import (FeatureGraph, batch_graphs,
                              build_feature_graph,
                              build_feature_graph_reference)
from repro.core.serving import (RecommendationCandidateSet, exact_search,
                                squared_distance_matrix)
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.db.io import load_dataset, save_dataset
from repro.testbed.scores import DatasetLabel
from repro.utils.rng import rng_from_seed

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_e2e_loop import _sub_templates, bench_e2e_loop  # noqa: E402
from synth import MODELS, family_corpus, synthetic_corpus  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def interleaved_best(fn_before, fn_after, repeats: int) -> tuple[float, float]:
    """Best-of-N wall times of two functions, measured alternately so slow
    drift of the machine (shared CPU, thermal state) hits both equally."""
    best_before = best_after = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn_before()
        best_before = min(best_before, time.perf_counter() - start)
        start = time.perf_counter()
        fn_after()
        best_after = min(best_after, time.perf_counter() - start)
    return best_before, best_after


def bench_featurize(repeats: int) -> dict:
    datasets = [
        generate_dataset(random_spec(1000 + i, ranges={"num_tables": (2, 4)}))
        for i in range(20)
    ]
    before, after = interleaved_best(
        lambda: [build_feature_graph_reference(d) for d in datasets],
        lambda: [build_feature_graph(d) for d in datasets], repeats)
    return {"datasets": len(datasets), "before_s": before, "after_s": after,
            "speedup": before / after}


class SeedAdam:
    """The seed repository's Adam: a Python loop of per-parameter updates."""

    def __init__(self, params, lr: float):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.beta1, self.beta2 = 0.9, 0.999
        self.eps = 1e-8
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self):
        for param in self.params:
            param.zero_grad()

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            param.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def seed_cosine_similarity_matrix(labels: np.ndarray) -> np.ndarray:
    """The seed repository's Eq. 6 (``np.linalg.norm`` per batch)."""
    labels = np.asarray(labels, dtype=np.float64)
    norms = np.linalg.norm(labels, axis=1, keepdims=True)
    normalized = labels / np.maximum(norms, 1e-12)
    return np.clip(normalized @ normalized.T, -1.0, 1.0)


def seed_masks(similarities: np.ndarray, tau: float):
    """The seed repository's Eq. 7 (fresh eye + two comparison passes)."""
    eye = np.eye(len(similarities), dtype=bool)
    positive = (similarities >= tau) & ~eye
    negative = (similarities < tau) & ~eye
    return positive, negative


def seed_pairwise_distances(embeddings: nn.Tensor) -> nn.Tensor:
    """The seed repository's Eq. 8: composed autograd ops (~9 graph nodes)."""
    squared = (embeddings * embeddings).sum(axis=1, keepdims=True)
    gram = embeddings @ embeddings.T
    dist_sq = squared + squared.T - gram * 2.0
    dist_sq = dist_sq.relu()
    return (dist_sq + 1e-12).sqrt()


def seed_weighted_loss(embeddings: nn.Tensor, sims: np.ndarray,
                       tau: float, gamma: float) -> nn.Tensor:
    """The seed repository's Eq. 9: duplicated U+Sim nodes and -inf fills."""
    positive, negative = seed_masks(sims, tau)
    distances = seed_pairwise_distances(embeddings)
    sims_t = nn.Tensor(sims)
    pos_arg = nn.where(positive, distances + sims_t,
                       nn.Tensor(np.full_like(sims, -1e9)))
    neg_arg = nn.where(negative, (distances + sims_t) * -1.0 + gamma,
                       nn.Tensor(np.full_like(sims, -1e9)))
    pos_term = pos_arg.logsumexp(axis=1)
    neg_term = neg_arg.logsumexp(axis=1)
    has_pos = positive.any(axis=1).astype(np.float64)
    has_neg = negative.any(axis=1).astype(np.float64)
    total = pos_term * nn.Tensor(has_pos) + neg_term * nn.Tensor(has_neg)
    return total.mean()


def seed_mlp(mlp, x: nn.Tensor) -> nn.Tensor:
    """The seed repository's MLP forward: composed ``x @ W + b`` / relu
    nodes (3-D inputs run as stacks of small per-graph GEMMs)."""
    last = len(mlp.layers) - 1
    for i, layer in enumerate(mlp.layers):
        x = x @ layer.weight + layer.bias
        if i < last:
            x = x.relu()
    return x


def seed_encode_batch(encoder: GINEncoder, graphs) -> nn.Tensor:
    """The seed repository's GIN forward: per-batch padding + symmetrize,
    per-layer mask multiplies, stacked 3-D matmuls (the "before" path)."""
    vertices, edges, mask = batch_graphs(graphs)
    adjacency = nn.Tensor(edges + np.swapaxes(edges, 1, 2))
    h = nn.Tensor(vertices)
    for layer in encoder.layers:
        neighbour_sum = adjacency @ h
        combined = h * (layer.epsilon + 1.0) + neighbour_sum
        h = seed_mlp(layer.mlp, combined).relu() * nn.Tensor(mask[:, :, None])
    return (h * nn.Tensor(mask[:, :, None])).sum(axis=1)


def seed_train_epochs(encoder: GINEncoder, optimizer: SeedAdam,
                      config: DMLConfig, graphs, labels, epochs: int) -> None:
    """The seed repository's Algorithm-1 epoch loop: ``batch_graphs``, label
    score vectors and the Eq. 9 graph all re-derived per batch."""
    rng = rng_from_seed(config.seed)
    n = len(graphs)
    weight_cycle = list(config.weights)
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            if len(idx) < 2:
                continue
            accuracy_weight = weight_cycle[step % len(weight_cycle)]
            batch_labels = np.stack(
                [labels[i].score_vector(accuracy_weight) for i in idx])
            step += 1
            sims = seed_cosine_similarity_matrix(batch_labels)
            off_diagonal = sims[~np.eye(len(sims), dtype=bool)]
            tau = float(np.quantile(off_diagonal, config.tau_quantile))
            embeddings = seed_encode_batch(encoder, [graphs[i] for i in idx])
            loss = seed_weighted_loss(embeddings, sims, tau, config.gamma)
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(encoder.parameters(), config.grad_clip)
            optimizer.step()


def bench_dml_epoch(repeats: int, epochs_per_run: int = 20) -> dict:
    """Steady-state per-epoch cost (one train call per run, as in real
    training, so the fast path's one-time corpus caches amortize)."""
    graphs, labels = synthetic_corpus(128)
    config = DMLConfig(batch_size=32, seed=0)

    seed_encoder = GINEncoder(graphs[0].vertex_dim, hidden_dim=64,
                              embedding_dim=32, seed=0)
    seed_optimizer = SeedAdam(seed_encoder.parameters(), lr=config.lr)
    seed_train_epochs(seed_encoder, seed_optimizer, config, graphs, labels, 1)

    fast_encoder = GINEncoder(graphs[0].vertex_dim, hidden_dim=64,
                              embedding_dim=32, seed=0)
    trainer = DMLTrainer(fast_encoder, config)
    trainer.train(graphs, labels, epochs=1)

    before, after = interleaved_best(
        lambda: seed_train_epochs(seed_encoder, seed_optimizer, config,
                                  graphs, labels, epochs_per_run),
        lambda: trainer.train(graphs, labels, epochs=epochs_per_run), repeats)
    before /= epochs_per_run
    after /= epochs_per_run
    return {"corpus": len(graphs), "batch_size": 32,
            "epochs_per_run": epochs_per_run, "before_s": before,
            "after_s": after, "speedup": before / after}


def bench_recommend_batch(repeats: int) -> dict:
    graphs, labels = synthetic_corpus(64)
    # Sequential baseline: per-query serving without the embedding memo.
    baseline = AutoCE(AutoCEConfig(
        hidden_dim=32, embedding_dim=16, use_incremental=False,
        embedding_cache_size=0,
        dml=DMLConfig(epochs=2, batch_size=32), seed=0))
    baseline.fit(graphs, labels)
    batched = AutoCE(AutoCEConfig(
        hidden_dim=32, embedding_dim=16, use_incremental=False,
        dml=DMLConfig(epochs=2, batch_size=32), seed=0))
    batched.fit(graphs, labels)

    rng = np.random.default_rng(7)
    queries = [graphs[i] for i in rng.integers(0, len(graphs), size=100)]
    before, after = interleaved_best(
        lambda: [baseline.recommend(q, 0.9) for q in queries],
        lambda: batched.recommend_batch(queries, 0.9), repeats)

    models_seq = [baseline.recommend(q, 0.9).model for q in queries]
    models_batch = [r.model for r in batched.recommend_batch(queries, 0.9)]
    assert models_seq == models_batch, "batched serving diverged from sequential"
    return {"queries": len(queries), "rcs_size": len(graphs),
            "before_s": before, "after_s": after, "speedup": before / after}


def bench_float32_epoch(repeats: int, epochs_per_run: int = 20) -> dict:
    """The float32 precision tier vs the float64 fast path.

    Both sides run the full PR 1 fast path (corpus tensor cache, fused
    GIN/loss, fused Adam); the only difference is the dtype threaded through
    encoder parameters, batch tensors, loss and optimizer state.  Serving is
    compared on ``recommend_batch`` (embedding cache off, so the GIN forward
    and KNN kernels are measured, not the memo-cache), and the two tiers'
    recommendations are checked for agreement.
    """
    graphs, labels = synthetic_corpus(128)
    config = DMLConfig(batch_size=32, seed=0)
    trainers = {}
    for dtype in (np.float64, np.float32):
        encoder = GINEncoder(graphs[0].vertex_dim, hidden_dim=64,
                             embedding_dim=32, seed=0, dtype=dtype)
        trainer = DMLTrainer(encoder, config)
        # Warm-up epoch: prime allocator/BLAS state and move both tiers off
        # their cold first step before the interleaved timing below.
        trainer.train(graphs, labels, epochs=1)
        trainers[dtype] = trainer
    before, after = interleaved_best(
        lambda: trainers[np.float64].train(graphs, labels,
                                           epochs=epochs_per_run),
        lambda: trainers[np.float32].train(graphs, labels,
                                           epochs=epochs_per_run), repeats)
    before /= epochs_per_run
    after /= epochs_per_run

    serve_graphs, serve_labels = synthetic_corpus(64)
    advisors = {}
    for dtype in ("float64", "float32"):
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=32, embedding_dim=16, use_incremental=False,
            embedding_cache_size=0,
            dml=DMLConfig(epochs=2, batch_size=32), seed=0, dtype=dtype))
        advisor.fit(serve_graphs, serve_labels)
        advisors[dtype] = advisor
    rng = np.random.default_rng(7)
    queries = [serve_graphs[i]
               for i in rng.integers(0, len(serve_graphs), size=100)]
    serve_before, serve_after = interleaved_best(
        lambda: advisors["float64"].recommend_batch(queries, 0.9),
        lambda: advisors["float32"].recommend_batch(queries, 0.9), repeats)
    agreement = float(np.mean([
        r64.model == r32.model
        for r64, r32 in zip(advisors["float64"].recommend_batch(queries, 0.9),
                            advisors["float32"].recommend_batch(queries, 0.9))
    ]))
    return {"corpus": len(graphs), "batch_size": 32,
            "epochs_per_run": epochs_per_run,
            "before_s": before, "after_s": after, "speedup": before / after,
            "serve_queries": len(queries), "serve_before_s": serve_before,
            "serve_after_s": serve_after,
            "serve_speedup": serve_before / serve_after,
            "recommendation_agreement": agreement}


def bench_quantized_search(repeats: int, rcs_size: int = 8192,
                           num_queries: int = 512, k: int = 5) -> dict:
    """The int8 candidate tier vs the exact float32 scan.

    Embeddings come from a real GIN encoder over the family corpus, cast to
    the float32 serving tier.  The quantized pass scans all members in
    int32-accumulated code space (no square roots, no exact tie machinery),
    keeps ``k · overfetch`` candidates and re-ranks them in float32; recall
    and the wall-time are measured against ``exact_search`` on the same
    queries.  The second half checks float32 serving end to end: an
    advisor trained and served with ``dtype="float32"`` and the int8 tier
    attached must produce the float64 reference recommendations.
    """
    from repro.core.serving import (ANNConfig, QuantizationConfig,
                                    QuantizedStore,
                                    RecommendationCandidateSet, exact_search)

    graphs, labels = family_corpus(rcs_size + num_queries, seed=0)
    encoder = GINEncoder(graphs[0].vertex_dim, hidden_dim=64,
                         embedding_dim=32, seed=0)
    embeddings = encoder.embed(graphs).astype(np.float32)
    members, queries = embeddings[:rcs_size], embeddings[rcs_size:]

    # The default tier rule: an RCS at or past ANNConfig().threshold
    # members serves from the int8 store it attaches itself.
    rcs = RecommendationCandidateSet(members, labels[:rcs_size],
                                     ann=ANNConfig())
    store = rcs.index
    assert isinstance(store, QuantizedStore), "int8 tier failed to attach"
    config = store.config
    rcs.search(queries, k)                      # warm both code paths
    before, after = interleaved_best(
        lambda: exact_search(queries, members, k),
        lambda: rcs.search(queries, k), repeats)

    exact_idx, _ = exact_search(queries, members, k)
    quant_idx, _ = rcs.search(queries, k)
    recall = float(np.mean([
        len(set(a) & set(e)) / k for a, e in zip(quant_idx, exact_idx)]))

    # float32 tier end to end (training and serving) + int8 candidates.
    serve_graphs, serve_labels = synthetic_corpus(64)
    reference = AutoCE(AutoCEConfig(
        hidden_dim=32, embedding_dim=16, use_incremental=False,
        embedding_cache_size=0,
        dml=DMLConfig(epochs=2, batch_size=32), seed=0))
    reference.fit(serve_graphs, serve_labels)
    fast = AutoCE(AutoCEConfig(
        hidden_dim=32, embedding_dim=16, use_incremental=False,
        embedding_cache_size=0, dtype="float32",
        ann=ANNConfig(threshold=8),
        quantization=QuantizationConfig(overfetch=4),
        dml=DMLConfig(epochs=2, batch_size=32), seed=0))
    fast.fit(serve_graphs, serve_labels)
    assert fast.rcs.index is not None, "int8 tier failed to attach"
    rng = np.random.default_rng(7)
    serve_queries = [serve_graphs[i]
                     for i in rng.integers(0, len(serve_graphs), size=100)]
    agreement = float(np.mean([
        r64.model == rq.model
        for r64, rq in zip(reference.recommend_batch(serve_queries, 0.9),
                           fast.recommend_batch(serve_queries, 0.9))]))
    return {"rcs_size": rcs_size, "queries": num_queries, "k": k,
            "overfetch": config.overfetch, "dtype": "float32 + int8",
            "recall_at_k": recall, "before_s": before, "after_s": after,
            "speedup": before / after,
            "float32_recommendation_agreement": agreement}


def bench_daemon_microbatch(repeats: int, num_files: int = 116,
                            spec_seed: int = 30_000_000,
                            rcs_size: int = 1200, max_batch: int = 16,
                            weight: float = 0.9) -> dict:
    """The daemon's work on its own traffic: the 116 serve-cold request
    files as one stdin stream of paths, drained by ``iter_batches`` and
    answered per batch as ``repro serve --daemon`` answers it (load each
    file, then ``recommend_batch``: featurize, GIN embed, exact search)
    over the 1 200-member serve-cold advisor.  ``max_batch=1`` (one
    request per call) vs ``max_batch`` requests coalesced per call; an
    in-memory stream drains greedily, so every batch is full.  The
    embedding cache is cleared before each drain, so every request pays
    its GIN forward as a first request does.  Picks, neighbours and
    score vectors must match request for request.
    """
    import io

    from repro.serving import BatchingConfig, iter_batches

    advisor = serve_cold_advisor(rcs_size)
    datasets = [generate_dataset(random_spec(spec_seed + i))
                for i in range(num_files)]

    with tempfile.TemporaryDirectory() as tmp:
        paths = [f"{tmp}/{i:05d}.npz" for i in range(num_files)]
        for dataset, path in zip(datasets, paths):
            save_dataset(dataset, path)
        stream_text = "".join(f"{path}\n" for path in paths)

        def drain(batch_size: int) -> list:
            advisor.embedding_cache.clear()
            recs = []
            for batch in iter_batches(io.StringIO(stream_text),
                                      BatchingConfig(max_batch=batch_size)):
                recs.extend(advisor.recommend_batch(
                    [load_dataset(path) for path in batch],
                    accuracy_weight=weight))
            return recs

        before, after = interleaved_best(
            lambda: drain(1), lambda: drain(max_batch), repeats)
        serial_recs, coalesced_recs = drain(1), drain(max_batch)
    assert len(serial_recs) == len(coalesced_recs) == num_files
    for s, c in zip(serial_recs, coalesced_recs):
        # Picks, neighbour sets and score vectors are bit-for-bit; the
        # raw distances may differ by an ulp or two because BLAS reduces
        # a one-row product in another order than a blocked one.
        assert (s.model == c.model
                and np.array_equal(s.neighbor_indices, c.neighbor_indices)
                and np.array_equal(s.score_vector, c.score_vector)
                and np.allclose(s.neighbor_distances, c.neighbor_distances,
                                rtol=0, atol=1e-12)), \
            "coalesced daemon answers diverged from the serial loop"
    return {"requests": num_files, "rcs_size": len(advisor.rcs),
            "max_batch": max_batch, "k": advisor.predictor.k,
            "before_ms_per_request": before / num_files * 1e3,
            "after_ms_per_request": after / num_files * 1e3,
            "before_s": before, "after_s": after,
            "speedup": before / after}


def per_call_distance_to_rcs(embedding: np.ndarray, rcs) -> float:
    """``DriftDetector.distance_to_rcs`` before the member-norms memo."""
    return float(np.sqrt(
        squared_distance_matrix(embedding, rcs.embeddings).min()))


def per_call_is_drifted(detector, embedding: np.ndarray, rcs) -> bool:
    """The drift check before the memo: the full N×N nearest-neighbour
    matrix of the RCS on every call."""
    sq = squared_distance_matrix(rcs.embeddings, rcs.embeddings)
    np.fill_diagonal(sq, np.inf)
    threshold = float(np.percentile(np.sqrt(sq.min(axis=1)),
                                    detector.percentile))
    return per_call_distance_to_rcs(embedding, rcs) > threshold


def bench_drift_check(repeats: int, rcs_sizes: tuple[int, ...] = (1200, 4096),
                      num_probes: int = 8, dim: int = 64) -> dict:
    """``DriftDetector.is_drifted`` over ``num_probes`` probe embeddings:
    the threshold recomputed per call vs the memoized RCS state.

    Half the probes sit next to members and half far outside the RCS, so
    both verdicts occur.  The memoized side is timed warm (its one N×N
    run per RCS state is reported as ``first_check_s``).
    """
    from repro.core.online import DriftDetector
    from repro.core.serving import RecommendationCandidateSet
    from repro.testbed.scores import DatasetLabel

    detector = DriftDetector()
    rng = np.random.default_rng(13)
    rows = []
    for size in rcs_sizes:
        members = rng.normal(size=(size, dim))
        labels = [DatasetLabel(MODELS, rng.uniform(1, 10, 3),
                               rng.uniform(0.001, 0.01, 3))
                  for _ in range(size)]
        rcs = RecommendationCandidateSet(members, labels)
        half = num_probes // 2
        probes = np.concatenate([
            members[:half] + rng.normal(scale=0.01, size=(half, dim)),
            rng.normal(scale=4.0, size=(num_probes - half, dim))])
        start = time.perf_counter()
        detector.is_drifted(probes[0], rcs)
        first_check = time.perf_counter() - start
        verdicts: dict[str, list[bool]] = {}

        def run(name, check):
            verdicts[name] = [check(p) for p in probes]

        before, after = interleaved_best(
            lambda: run("before", lambda p: per_call_is_drifted(
                detector, p, rcs)),
            lambda: run("after", lambda p: detector.is_drifted(p, rcs)),
            repeats)
        assert verdicts["before"] == verdicts["after"], \
            "memoized drift verdicts diverged from the per-call threshold"
        rows.append({"rcs_size": size, "before_s": before, "after_s": after,
                     "speedup": before / after, "first_check_s": first_check,
                     "drifted": int(sum(verdicts["after"]))})
    before = sum(row["before_s"] for row in rows)
    after = sum(row["after_s"] for row in rows)
    return {"dim": dim, "probes": num_probes, "sizes": rows,
            "before_s": before, "after_s": after, "speedup": before / after}


def save_dataset_format_1(dataset, path: str) -> None:
    """The format-1 writer that ``save_dataset`` replaced: one deflated
    ``.npz`` member per column under ``{table}__{column}`` keys."""
    metadata = {
        "format_version": 1,
        "name": dataset.name,
        "tables": {t.name: t.column_names for t in dataset.tables.values()},
        "foreign_keys": [
            {"child": fk.child, "fk_column": fk.fk_column, "parent": fk.parent}
            for fk in dataset.foreign_keys
        ],
    }
    arrays = {"metadata": np.frombuffer(json.dumps(metadata).encode("utf-8"),
                                        dtype=np.uint8)}
    for table in dataset.tables.values():
        for column, values in table.columns.items():
            arrays[f"{table.name}__{column}"] = values
    np.savez_compressed(path, **arrays)


def same_columns(a, b) -> bool:
    return a.name == b.name and a.table_names == b.table_names and all(
        a[t].column_names == b[t].column_names and all(
            a[t][c].dtype == b[t][c].dtype and np.array_equal(a[t][c], b[t][c])
            for c in a[t].column_names)
        for t in a.table_names)


def same_graph(a, b) -> bool:
    return (a.vertices.tobytes() == b.vertices.tobytes()
            and a.edges.tobytes() == b.edges.tobytes())


def bench_dataset_load(repeats: int, num_files: int = 116,
                       spec_seed: int = 30_000_000) -> dict:
    """``load_dataset`` of format-1 vs format-2 files, and ``np.unique`` vs
    bincount join correlation, over the serve-cold request datasets
    (``benchmarks/e2e``: spec seeds ``30_000_000 + i``, 116 files)."""
    datasets = [generate_dataset(random_spec(spec_seed + i))
                for i in range(num_files)]
    foreign_keys = [(d, fk) for d in datasets for fk in d.foreign_keys]

    def unique_correlations() -> list[float]:
        return [len(np.unique(d[fk.child][fk.fk_column]))
                / d[fk.parent].num_rows for d, fk in foreign_keys]

    def bincount_correlations() -> list[float]:
        return [d.join_correlation(fk) for d, fk in foreign_keys]

    with tempfile.TemporaryDirectory() as tmp:
        old_paths, new_paths = [], []
        for i, dataset in enumerate(datasets):
            old_paths.append(f"{tmp}/{i:05d}-v1.npz")
            new_paths.append(f"{tmp}/{i:05d}-v2.npz")
            save_dataset_format_1(dataset, old_paths[-1])
            save_dataset(dataset, new_paths[-1])
        sizes = {name: float(np.median([Path(p).stat().st_size
                                        for p in paths]))
                 for name, paths in (("format_1", old_paths),
                                     ("format_2", new_paths))}
        for dataset, old, new in zip(datasets, old_paths, new_paths):
            from_old, from_new = load_dataset(old), load_dataset(new)
            assert same_columns(from_old, dataset) and \
                same_columns(from_new, dataset), \
                f"{dataset.name}: loaded columns differ from the saved ones"
            graph = build_feature_graph(dataset)
            assert same_graph(build_feature_graph(from_old), graph) and \
                same_graph(build_feature_graph(from_new), graph), \
                f"{dataset.name}: feature graph changed across save/load"
        before, after = interleaved_best(
            lambda: [load_dataset(path) for path in old_paths],
            lambda: [load_dataset(path) for path in new_paths], repeats)
    assert [x.hex() for x in unique_correlations()] == \
        [x.hex() for x in bincount_correlations()], \
        "bincount join correlation diverged from np.unique"
    unique_s, bincount_s = interleaved_best(
        unique_correlations, bincount_correlations, repeats)
    return {"files": num_files, "median_file_bytes": sizes,
            "before_s": before, "after_s": after, "speedup": before / after,
            "join_correlation": {"foreign_keys": len(foreign_keys),
                                 "before_s": unique_s, "after_s": bincount_s,
                                 "speedup": unique_s / bincount_s}}


def broadcast_column_features(matrix: np.ndarray) -> np.ndarray:
    """The previous ``column_features_matrix``: a float copy, one fresh
    array per moment product, a sorted copy, separate max and min and a
    NaN count."""
    matrix = np.asarray(matrix, dtype=np.float64)
    m, r = matrix.shape
    if r == 0 or m == 0:
        return np.zeros((m, 6))
    mean = matrix.mean(axis=1)
    centered = matrix - mean[:, None]
    squared = centered * centered
    std = np.sqrt(squared.mean(axis=1))
    safe_std = np.where(std > 0, std, 1.0)
    nonzero = std > 0
    skewness = np.where(
        nonzero, (squared * centered).mean(axis=1) / safe_std ** 3, 0.0)
    kurtosis = np.where(
        nonzero, (squared * squared).mean(axis=1) / safe_std ** 4 - 3.0, 0.0)
    value_range = matrix.max(axis=1) - matrix.min(axis=1)
    sorted_rows = np.sort(matrix, axis=1)
    domain = 1.0 + np.count_nonzero(
        sorted_rows[:, 1:] != sorted_rows[:, :-1], axis=1)
    domain = domain - np.maximum(np.isnan(matrix).sum(axis=1) - 1, 0)
    mean_dev = np.abs(centered).mean(axis=1)
    return np.column_stack([
        skewness / (1.0 + np.abs(skewness)),
        kurtosis / (1.0 + np.abs(kurtosis)),
        std / (value_range + 1.0),
        mean_dev / (value_range + 1.0),
        np.log1p(value_range) / 10.0,
        np.log1p(domain) / 10.0,
    ])


def broadcast_feature_graph(dataset, max_columns: int = 5) -> FeatureGraph:
    """The previous ``build_feature_graph``: per table, a stack, the
    broadcast kernels above and the ``[m, m, R]`` equality compare, copied
    into the vertex vector through a separate block."""
    vectors = []
    for name in sorted(dataset.table_names):
        table = dataset[name]
        columns = table.data_columns()[:max_columns]
        vector = np.zeros((6 + max_columns) * max_columns + 2)
        vector[0] = np.log1p(table.num_rows) / 15.0
        vector[1] = len(table.data_columns()) / 25.0
        if columns:
            matrix = np.stack([table[c] for c in columns])
            n = len(columns)
            block = np.zeros((n, 6 + max_columns))
            block[:, :6] = broadcast_column_features(matrix)
            if matrix.shape[1]:
                block[:, 6:6 + n] = (matrix[:, None, :]
                                     == matrix[None, :, :]).mean(axis=2)
            vector[2:2 + n * (6 + max_columns)] = block.ravel()
        vectors.append(vector)
    return FeatureGraph(dataset.name, np.stack(vectors),
                        join_correlation_matrix(dataset))


def eager_join_graph(dataset) -> nx.Graph:
    """The join graph and forest check ``Dataset.__init__`` used to run
    on every construction."""
    graph = nx.Graph()
    graph.add_nodes_from(dataset.tables)
    for fk in dataset.foreign_keys:
        if graph.has_edge(fk.child, fk.parent):
            raise ValueError("join graph must be acyclic (a forest)")
        graph.add_edge(fk.child, fk.parent, fk=fk)
    if not nx.is_forest(graph):
        raise ValueError("join graph must be acyclic (a forest)")
    return graph


def same_join_graph(dataset, eager: nx.Graph) -> bool:
    """``Dataset.fk_between`` answers every table pair as ``eager`` does."""
    names = dataset.table_names
    return list(eager.nodes) == names and all(
        dataset.fk_between(a, b) == (eager.edges[a, b]["fk"]
                                     if eager.has_edge(a, b) else None)
        for a in names for b in names)


def serve_cold_advisor(rcs_size: int) -> AutoCE:
    """The serve-cold advisor of ``benchmarks/e2e``: fitted on the 240
    frozen-label datasets, its RCS grown to ``rcs_size`` members with
    perturbed copies (vertex noise 0.05, labels copied)."""
    data = Path(__file__).resolve().parent / "e2e" / "data"
    entries = []
    for seed in (0, 1, 2):
        frozen = json.loads((data / f"labels_seed{seed}.json").read_text())
        entries += frozen["train"] + frozen["heldout"]
    bases = [generate_dataset(random_spec(entry["spec_seed"]))
             for entry in entries]
    labels = [DatasetLabel(tuple(CANDIDATE_MODELS), entry["qerror_means"],
                           entry["latency_means"]) for entry in entries]
    advisor = AutoCE(AutoCEConfig(seed=0)).fit(bases, labels)
    graphs = [build_feature_graph(dataset) for dataset in bases]
    members, member_labels = list(graphs), list(labels)
    rng = np.random.default_rng(0)
    for i in range(rcs_size - len(graphs)):
        graph = graphs[i % len(graphs)]
        members.append(FeatureGraph(
            f"copy{i}", graph.vertices + rng.normal(
                0.0, 0.05, size=graph.vertices.shape), graph.edges))
        member_labels.append(labels[i % len(graphs)])
    advisor.rcs = RecommendationCandidateSet(
        advisor.encoder.embed(members), member_labels,
        ann=advisor.config.ann, quantization=advisor.config.quantization)
    return advisor


def bench_serve_cold_stages(repeats: int, num_files: int = 116,
                            spec_seed: int = 30_000_000,
                            rcs_size: int = 1200,
                            weight: float = 0.9) -> dict:
    """Load, featurize, and drift check plus exact search of one
    serve-cold request, each over the 116 request datasets: the previous
    code (eager join graph, broadcast featurizer, per-request member
    norms and threshold percentile) vs the shipped code.

    The before side's load also runs the union-find forest check that
    replaced the eager graph's; embedding (the GIN forward) is the same
    on both sides and left out.
    """
    advisor = serve_cold_advisor(rcs_size)
    rcs, detector = advisor.rcs, advisor.detector
    k = min(advisor.predictor.k, len(rcs))
    datasets = [generate_dataset(random_spec(spec_seed + i))
                for i in range(num_files)]

    def per_call_drift_and_pick(embedding):
        threshold = float(np.percentile(rcs.nearest_neighbor_distances(),
                                        detector.percentile))
        drifted = per_call_distance_to_rcs(embedding, rcs) > threshold
        nearest, distances = exact_search(embedding, rcs.embeddings, k)
        scores = rcs.score_matrix(weight)[nearest].mean(axis=1)
        return (drifted, rcs.model_names[int(np.argmax(scores[0]))],
                nearest[0].tobytes() + distances[0].tobytes())

    def memoized_drift_and_pick(embedding):
        drifted = detector.is_drifted(embedding, rcs)
        rec = advisor.predictor.recommend(embedding, rcs, weight)
        return (drifted, rec.model, rec.neighbor_indices.tobytes()
                + rec.neighbor_distances.tobytes())

    with tempfile.TemporaryDirectory() as tmp:
        paths = [f"{tmp}/{i:05d}.npz" for i in range(num_files)]
        for dataset, path in zip(datasets, paths):
            save_dataset(dataset, path)
        loaded = [load_dataset(path) for path in paths]
        embeddings = []
        for dataset in loaded:
            assert same_join_graph(dataset, eager_join_graph(dataset)), \
                f"{dataset.name}: join graph built on first use differs"
            graph = build_feature_graph(dataset)
            assert same_graph(broadcast_feature_graph(dataset), graph), \
                f"{dataset.name}: feature graph differs from the broadcast one"
            embeddings.append(advisor.embed(graph))
        verdicts = [memoized_drift_and_pick(e) for e in embeddings]
        assert verdicts == [per_call_drift_and_pick(e) for e in embeddings], \
            "memoized drift verdict, pick or neighbours differ"
        assert [detector.distance_to_rcs(e, rcs).hex() for e in embeddings] \
            == [per_call_distance_to_rcs(e, rcs).hex() for e in embeddings], \
            "distance to the RCS differs with the member-norms memo"
        stages = {
            "load": interleaved_best(
                lambda: [eager_join_graph(load_dataset(p)) for p in paths],
                lambda: [load_dataset(p) for p in paths], repeats),
            "featurize": interleaved_best(
                lambda: [broadcast_feature_graph(d) for d in loaded],
                lambda: [build_feature_graph(d) for d in loaded], repeats),
            "drift_and_search": interleaved_best(
                lambda: [per_call_drift_and_pick(e) for e in embeddings],
                lambda: [memoized_drift_and_pick(e) for e in embeddings],
                repeats),
        }
    rows = {name: {"before_ms_per_request": before / num_files * 1e3,
                   "after_ms_per_request": after / num_files * 1e3,
                   "speedup": before / after}
            for name, (before, after) in stages.items()}
    before = sum(before for before, _ in stages.values())
    after = sum(after for _, after in stages.values())
    return {"requests": num_files, "rcs_size": len(rcs), "k": k,
            "drifted": sum(drifted for drifted, _, _ in verdicts),
            "stages": rows, "before_s": before, "after_s": after,
            "speedup": before / after}


def full_walk_sample(self, fitted, allowed) -> float:
    """The progressive sampler the shipped one replaced: every column of
    the template gets a MADE forward and a draw of uniforms."""
    made = fitted.made
    samples = self.config.num_samples
    x = np.zeros((samples, made.input_dim), dtype=np.float64)
    weights = np.ones(samples, dtype=np.float64)
    for col, mass in enumerate(allowed):
        probs = made.conditional_probs(x, col)
        if mass is not None:
            restricted = probs * mass[None, :]
            col_mass = restricted.sum(axis=1)
            weights *= col_mass
            safe = np.where(col_mass[:, None] > 0,
                            restricted / np.maximum(col_mass[:, None], 1e-30),
                            np.full_like(probs, 1.0 / probs.shape[1]))
        else:
            safe = probs
        cdf = np.cumsum(safe, axis=1)
        draws = self._rng.random(samples)[:, None]
        chosen = (draws > cdf).sum(axis=1)
        chosen = np.minimum(chosen, probs.shape[1] - 1)
        offset = made.offsets[col]
        x[np.arange(samples), offset + chosen] = 1.0
    return float(weights.mean())


def bench_progressive_sampling(repeats: int, num_datasets: int = 12,
                               spec_seed: int = 0) -> dict:
    """Every train and test query through the full column walk vs the
    shipped sampler, and ``UAE.fit`` without vs with NeuroCard's MADEs.

    Each side estimates from the same fitted MADEs with its RNG reset to
    the model seed, so estimates and final RNG states must match bit for
    bit.  MADE forwards are counted on the first (cold) pass of each side.
    """
    from repro.ce.base import TrainingContext
    from repro.ce.made import MADE
    from repro.ce.neurocard import NeuroCard
    from repro.ce.uae import UAE
    from repro.cli import fast_testbed_config
    from repro.workload.generator import generate_workload

    class FullWalkNeuroCard(NeuroCard):
        _progressive_sample = full_walk_sample

    testbed = fast_testbed_config(0)
    contexts, shipped, full_walk, queries = [], [], [], []
    for i in range(num_datasets):
        dataset = generate_dataset(random_spec(spec_seed + i))
        workload = generate_workload(
            dataset, num_train=testbed.num_train_queries,
            num_test=testbed.num_test_queries, seed=testbed.seed)
        ctx = TrainingContext.build(dataset, workload, seed=testbed.seed,
                                    sample_size=testbed.sample_size)
        model = testbed.build_candidates()["NeuroCard"]
        model.fit(ctx)
        reference = FullWalkNeuroCard(model.config)
        reference.fit(ctx)  # takes the MADEs ``model`` fitted
        contexts.append(ctx)
        shipped.append(model)
        full_walk.append(reference)
        queries.append(workload.train + workload.test)
    outputs: dict[str, tuple[list, list]] = {}

    def estimate_all(name: str, models: list) -> None:
        estimates, states = [], []
        for model, batch in zip(models, queries):
            model._rng = rng_from_seed(model.config.seed)
            estimates.extend(model.estimate(q) for q in batch)
            states.append(model._rng.bit_generator.state)
        outputs[name] = (estimates, states)

    forwards: dict[str, int] = {}
    original = MADE.conditional_probs
    for name, models in (("before", full_walk), ("after", shipped)):
        count = [0]

        def counting(self, x, col, count=count):
            count[0] += 1
            return original(self, x, col)

        MADE.conditional_probs = counting
        try:
            estimate_all(name, models)
        finally:
            MADE.conditional_probs = original
        forwards[name] = count[0]
    before, after = interleaved_best(
        lambda: estimate_all("before", full_walk),
        lambda: estimate_all("after", shipped), repeats)
    assert [x.hex() for x in outputs["before"][0]] == \
        [x.hex() for x in outputs["after"][0]], \
        "shipped sampler estimates diverged from the full column walk"
    assert outputs["before"][1] == outputs["after"][1], \
        "shipped sampler left a different RNG state than the full walk"

    uae_config = testbed.build_candidates()["UAE"].config
    calibrations: dict[str, list] = {}

    def fit_uae(name: str, shared: bool) -> None:
        calibrations[name] = []
        for ctx in contexts:
            if not shared:
                # Same warm join samples, empty MADE memo.
                ctx = TrainingContext(
                    dataset=ctx.dataset, workload=ctx.workload,
                    encoder=ctx.encoder, samples=ctx.samples, seed=ctx.seed,
                    sample_size=ctx.sample_size)
            model = UAE(uae_config)
            model.fit(ctx)
            calibrations[name].append(model._calibration)

    fit_before, fit_after = interleaved_best(
        lambda: fit_uae("before", shared=False),
        lambda: fit_uae("after", shared=True), repeats)
    assert calibrations["before"] == calibrations["after"], \
        "UAE calibrated differently on NeuroCard's MADEs"
    return {"datasets": num_datasets,
            "queries": len(outputs["after"][0]),
            "made_forwards": forwards,
            "before_s": before, "after_s": after, "speedup": before / after,
            "uae_fit": {"before_s": fit_before, "after_s": fit_after,
                        "speedup": fit_before / fit_after}}


def recursive_leaf_probability(self, ranges) -> float:
    """``LeafNode.probability`` before the flat SPN program."""
    bounds = ranges.get(self.column)
    if bounds is None:
        return 1.0
    return self.histogram.range_fraction(bounds[0], bounds[1])


def recursive_product_probability(self, ranges) -> float:
    """``ProductNode.probability`` before the flat SPN program."""
    prob = 1.0
    for child in self.children:
        prob *= child.probability(ranges)
        if prob == 0.0:
            return 0.0
    return prob


def recursive_sum_probability(self, ranges) -> float:
    """``SumNode.probability`` before the flat SPN program."""
    return float(sum(w * c.probability(ranges)
                     for w, c in zip(self.weights, self.children)))


def recursive_range_fraction(self, lo: int, hi: int) -> float:
    """``BinnedHistogram.range_fraction`` (unchanged; it reads the mass
    below while the recursion is swapped in)."""
    mass = self.discretizer.range_mass(lo, hi)
    return float(np.dot(self.probs, mass))


def recursive_range_mass(self, lo: int, hi: int) -> np.ndarray:
    """``Discretizer.range_mass`` before it kept its bin widths and
    bisected its values."""
    if lo > hi:
        return np.zeros(self.n_bins)
    if self.kind == "value":
        return ((self.values >= lo) & (self.values <= hi)).astype(np.float64)
    overlap = (np.minimum(float(hi + 1), self.edges[1:])
               - np.maximum(float(lo), self.edges[:-1]))
    width = np.diff(self.edges)
    coverage = np.zeros(self.n_bins)
    np.divide(overlap, width, out=coverage, where=width > 0)
    return np.clip(coverage, 0.0, 1.0, out=coverage)


def recursive_query_probability(self, allowed) -> float:
    """``ChowLiuTree.query_probability`` before path-only messages: every
    node's message, recomputed on every call."""
    root = next(c for c, p in self.parent.items() if p is None)

    def message(node: str) -> np.ndarray:
        mass = allowed.get(node, np.ones(self.n_bins[node]))
        vector = np.asarray(mass, dtype=np.float64).copy()
        for child in self.children[node]:
            child_message = message(child)
            vector *= self.cpt[child] @ child_message
        return vector

    return float(np.dot(self.marginal[root], message(root)))


@contextlib.contextmanager
def recursive_inference():
    """Inside the block, SPNs, Chow–Liu trees and discretizers answer
    through the recursive evaluation above."""
    from repro.ce.chow_liu import ChowLiuTree
    from repro.ce.discretize import Discretizer
    from repro.ce.histograms import BinnedHistogram
    from repro.ce.spn import LeafNode, ProductNode, SumNode

    swaps = [(LeafNode, "probability", recursive_leaf_probability),
             (ProductNode, "probability", recursive_product_probability),
             (SumNode, "probability", recursive_sum_probability),
             (BinnedHistogram, "range_fraction", recursive_range_fraction),
             (Discretizer, "range_mass", recursive_range_mass),
             (ChowLiuTree, "query_probability", recursive_query_probability)]
    saved = [(cls, name, cls.__dict__.get(name)) for cls, name, _ in swaps]
    for cls, name, method in swaps:
        setattr(cls, name, method)
    try:
        yield
    finally:
        for cls, name, method in saved:
            if method is None:
                delattr(cls, name)
            else:
                setattr(cls, name, method)


def bench_ce_inference(repeats: int, seed: int = 0, num_datasets: int = 16,
                       num_queries: int = 256, weight: float = 0.9) -> dict:
    """Every sub-plan estimate of one optimizer-loop pass, through the
    recursive evaluation vs the shipped flat inference.

    The loop is ``benchmarks/e2e``'s: the advisor fitted on the frozen
    seed-0 corpus picks a model for each of the 16 loop datasets, the
    pick is fitted with ``fast_testbed_config(seed)`` and its sub-plan
    templates prepared, and one planning pass records the sub-plans the
    optimizer asks it for.  FLAT, fitted on the same contexts, answers
    the same sub-plans.  Both sides run on the same fitted models.
    """
    from repro.ce.base import TrainingContext
    from repro.ce.fspn import FLAT, FLATConfig
    from repro.cli import fast_testbed_config
    from repro.engine import AdvisorProvider, Optimizer
    from repro.workload.generator import generate_workload

    data = Path(__file__).resolve().parent / "e2e" / "data"
    frozen = json.loads((data / "labels_seed0.json").read_text())["train"]
    corpus = [generate_dataset(random_spec(entry["spec_seed"]))
              for entry in frozen[:64]]
    labels = [DatasetLabel(tuple(CANDIDATE_MODELS), entry["qerror_means"],
                           entry["latency_means"]) for entry in frozen[:64]]
    advisor = AutoCE(AutoCEConfig(seed=0)).fit(corpus, labels)
    loop_ranges = {"num_tables": (3, 4), "rows": (3_000, 6_000),
                   "skew": (0.7, 0.95), "max_correlation": (0.8, 0.95),
                   "interaction": (0.7, 0.95), "fanout_skew": (0.8, 1.0),
                   "domain": (8, 40)}
    testbed = fast_testbed_config(seed)
    calls: dict[str, list] = {}
    for j in range(num_datasets):
        dataset = generate_dataset(random_spec(40_000_000 + j,
                                               ranges=loop_ranges))
        workload = generate_workload(
            dataset, num_train=testbed.num_train_queries,
            num_test=num_queries, seed=seed * 1_000 + j,
            max_templates=len(dataset.connected_subsets()))
        provider = AdvisorProvider(advisor, dataset,
                                   testbed.build_candidates(),
                                   accuracy_weight=weight)
        pick = provider.pick()
        model = provider.models[pick]
        ctx = TrainingContext.build(dataset, workload, seed=seed,
                                    sample_size=testbed.sample_size)
        model.fit(ctx)
        model.prepare_templates(_sub_templates(dataset, workload.test))
        subplans: list = []
        answer = model.estimate

        def recording(query, answer=answer, subplans=subplans):
            subplans.append(query)
            return answer(query)

        model.estimate = recording  # the sub-plans the memo lets through
        optimizer = Optimizer(dataset)
        for query in workload.test:
            optimizer.plan(query, provider)
        del model.estimate
        flat = FLAT(FLATConfig(seed=seed))
        flat.fit(ctx)
        flat.prepare_templates(_sub_templates(dataset, workload.test))
        calls.setdefault(pick, []).extend((model, q) for q in subplans)
        calls.setdefault("FLAT", []).extend((flat, q) for q in subplans)

    def estimate_all(pairs) -> np.ndarray:
        return np.array([model.estimate(q) for model, q in pairs],
                        dtype=np.float64)

    rows, before_s, after_s = {}, 0.0, 0.0
    for name, pairs in sorted(calls.items()):
        shipped = estimate_all(pairs)
        with recursive_inference():
            recursive = estimate_all(pairs)
        assert shipped.tobytes() == recursive.tobytes(), \
            f"{name}: flat inference estimates differ from the recursion"

        def recursive_pass(pairs=pairs):
            with recursive_inference():
                estimate_all(pairs)

        before, after = interleaved_best(
            recursive_pass, lambda pairs=pairs: estimate_all(pairs), repeats)
        rows[name] = {"estimates": len(pairs),
                      "before_us_per_estimate": before / len(pairs) * 1e6,
                      "after_us_per_estimate": after / len(pairs) * 1e6,
                      "speedup": before / after}
        before_s += before
        after_s += after
    return {"datasets": num_datasets, "models": rows, "before_s": before_s,
            "after_s": after_s, "speedup": before_s / after_s}


#: Bench name → runner, in the canonical reporting order.
BENCHES = {
    "featurize_corpus": bench_featurize,
    "dml_epoch": bench_dml_epoch,
    "recommend_batch": bench_recommend_batch,
    "float32_epoch": bench_float32_epoch,
    "quantized_search": bench_quantized_search,
    "daemon_microbatch": bench_daemon_microbatch,
    "drift_check": bench_drift_check,
    "dataset_load": bench_dataset_load,
    "serve_cold_stages": bench_serve_cold_stages,
    "progressive_sampling": bench_progressive_sampling,
    "ce_inference": bench_ce_inference,
    "e2e_advisor_loop": bench_e2e_loop,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats (default 3)")
    parser.add_argument("--output", type=Path,
                        default=RESULTS_DIR / "BENCH_micro.json")
    parser.add_argument("--only", nargs="+", choices=sorted(BENCHES),
                        default=None, metavar="NAME",
                        help="run only these benches and merge their "
                             "results into the existing JSON")
    args = parser.parse_args(argv)

    selected = args.only or list(BENCHES)
    results: dict = {}
    if args.only and args.output.exists():
        results = json.loads(args.output.read_text())
    for name in BENCHES:
        if name in selected:
            results[name] = BENCHES[name](args.repeats)
    # Keep the canonical order regardless of what was merged when.
    results = {name: results[name] for name in BENCHES if name in results}

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(results, indent=2) + "\n")

    width = max(len(name) for name in results)
    print(f"{'stage':<{width}}  {'before':>10}  {'after':>10}  speedup")
    for name, r in results.items():
        print(f"{name:<{width}}  {r['before_s'] * 1e3:>8.1f}ms  "
              f"{r['after_s'] * 1e3:>8.1f}ms  {r['speedup']:>6.1f}x")
    print(f"[saved to {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
