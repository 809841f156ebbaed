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
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import nn
from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig, DMLTrainer
from repro.core.encoder import GINEncoder
from repro.core.graph import (batch_graphs, build_feature_graph,
                              build_feature_graph_reference)
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.utils.rng import rng_from_seed

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_e2e_loop import bench_e2e_loop  # noqa: E402
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


def bench_daemon_microbatch(repeats: int, rcs_size: int = 8192,
                            num_requests: int = 128, k: int = 5) -> dict:
    """The daemon stream: serial one-request-at-a-time loop vs the
    micro-batch coalescer draining the same stream.

    Both paths run the real ``iter_batches`` coalescer over the same
    line stream (an in-memory stream drains greedily, so the batched
    run coalesces ``max_batch`` requests per ``recommend_batch`` call
    while ``max_batch=1`` recovers the old serial loop).  The coalesced
    answers must match the serial ones bit-for-bit per request.
    """
    import io

    from repro.core.serving import (KNNPredictor,
                                    RecommendationCandidateSet)
    from repro.serving import BatchingConfig, iter_batches
    from repro.testbed.scores import DatasetLabel

    rng = np.random.default_rng(11)
    members = rng.normal(size=(rcs_size, 32))
    labels = [DatasetLabel(MODELS, rng.uniform(1, 10, 3),
                           rng.uniform(0.001, 0.01, 3))
              for _ in range(rcs_size)]
    rcs = RecommendationCandidateSet(members, labels)
    predictor = KNNPredictor()
    queries = rng.normal(size=(num_requests, 32))
    stream_text = "".join(f"{i}\n" for i in range(num_requests))

    serial = BatchingConfig(max_batch=1, window_ms=0)
    coalesced = BatchingConfig(max_batch=16, window_ms=0)

    def drain(config: BatchingConfig) -> list:
        recs = []
        for batch in iter_batches(io.StringIO(stream_text), config):
            ids = [int(line) for line in batch]
            recs.extend(predictor.recommend_batch(
                queries[ids], rcs, 0.9, k=k))
        return recs

    before, after = interleaved_best(
        lambda: drain(serial), lambda: drain(coalesced), repeats)

    serial_recs, coalesced_recs = drain(serial), drain(coalesced)
    assert len(serial_recs) == len(coalesced_recs) == num_requests
    for s, c in zip(serial_recs, coalesced_recs):
        # Picks, neighbor sets and score vectors are bit-for-bit; the
        # raw distances may differ by 1-2 ulp because BLAS reduces a
        # 1-row query (gemv) in a different order than a blocked gemm.
        assert (s.model == c.model
                and np.array_equal(s.neighbor_indices, c.neighbor_indices)
                and np.array_equal(s.score_vector, c.score_vector)
                and np.allclose(s.neighbor_distances, c.neighbor_distances,
                                rtol=0, atol=1e-12)), \
            "coalesced daemon answers diverged from the serial loop"
    return {"rcs_size": rcs_size, "requests": num_requests,
            "max_batch": coalesced.max_batch, "k": k,
            "before_s": before, "after_s": after,
            "speedup": before / after}


#: Bench name → runner, in the canonical reporting order.
BENCHES = {
    "featurize_corpus": bench_featurize,
    "dml_epoch": bench_dml_epoch,
    "recommend_batch": bench_recommend_batch,
    "float32_epoch": bench_float32_epoch,
    "quantized_search": bench_quantized_search,
    "daemon_microbatch": bench_daemon_microbatch,
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
