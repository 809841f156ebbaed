"""DML trainer, KNN predictor, incremental learning, online adapting and the
AutoCE facade — exercised on a small synthetic labeled corpus."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig, DMLTrainer
from repro.core.encoder import GINEncoder
from repro.core.graph import FeatureGraph
from repro.core.incremental import (IncrementalConfig, augment_with_mixup,
                                    collect_feedback, incremental_learning)
from repro.core.online import DriftDetector
from repro.core.persistence import load_advisor, save_advisor
from repro.core.serving import (KNNPredictor, RecommendationCandidateSet)
from repro.testbed.scores import DatasetLabel

MODELS = ("A", "B", "C")


def synthetic_corpus(n=24, dim=12, seed=0):
    """Graphs whose structure determines which model wins.

    Graphs with positive first-feature mean favor model A; negative favor
    B; near-zero favor C — a learnable mapping for the encoder.
    """
    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for i in range(n):
        kind = i % 3
        shift = {0: 2.0, 1: -2.0, 2: 0.0}[kind]
        tables = int(rng.integers(1, 4))
        vertices = rng.normal(size=(tables, dim)) * 0.3
        vertices[:, 0] += shift
        edges = np.zeros((tables, tables))
        for t in range(1, tables):
            edges[t - 1, t] = 0.5
        graphs.append(FeatureGraph(f"g{i}", vertices, edges))
        qerr = {0: [1.1, 3.0, 6.0], 1: [6.0, 1.1, 3.0], 2: [3.0, 6.0, 1.1]}[kind]
        qerr = list(np.array(qerr) + rng.uniform(0, 0.2, 3))
        labels.append(DatasetLabel(MODELS, qerr, [0.001, 0.002, 0.003]))
    return graphs, labels


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus()


@pytest.fixture(scope="module")
def trained(corpus):
    graphs, labels = corpus
    encoder = GINEncoder(vertex_dim=graphs[0].vertex_dim, hidden_dim=24,
                         embedding_dim=8, seed=0)
    trainer = DMLTrainer(encoder, DMLConfig(epochs=30, batch_size=12, seed=0))
    history = trainer.train(graphs, labels)
    return encoder, trainer, history


class TestDMLTrainer:
    def test_loss_decreases(self, trained):
        _, _, history = trained
        assert np.mean(history[-5:]) < np.mean(history[:5])

    def test_embeddings_cluster_by_label(self, trained, corpus):
        encoder, _, _ = trained
        graphs, labels = corpus
        emb = encoder.embed(graphs)
        kinds = np.array([i % 3 for i in range(len(graphs))])
        dist = np.sqrt(((emb[:, None] - emb[None, :]) ** 2).sum(-1))
        same = dist[kinds[:, None] == kinds[None, :]].mean()
        diff = dist[kinds[:, None] != kinds[None, :]].mean()
        assert diff > same

    def test_requires_two_graphs(self, corpus):
        graphs, labels = corpus
        encoder = GINEncoder(graphs[0].vertex_dim, 8, 4)
        trainer = DMLTrainer(encoder)
        with pytest.raises(ValueError):
            trainer.train(graphs[:1], labels[:1])

    def test_unknown_loss_rejected(self, corpus):
        graphs, _ = corpus
        encoder = GINEncoder(graphs[0].vertex_dim, 8, 4)
        with pytest.raises(ValueError):
            DMLTrainer(encoder, DMLConfig(loss="nope"))

    def test_basic_loss_trains(self, corpus):
        graphs, labels = corpus
        encoder = GINEncoder(graphs[0].vertex_dim, 16, 8, seed=1)
        trainer = DMLTrainer(encoder, DMLConfig(epochs=5, loss="basic"))
        history = trainer.train(graphs, labels)
        assert len(history) == 5


class TestKNNPredictor:
    def test_k1_returns_nearest_label(self, trained, corpus):
        encoder, _, _ = trained
        graphs, labels = corpus
        emb = encoder.embed(graphs)
        rcs = RecommendationCandidateSet(emb[1:], labels[1:])
        rec = KNNPredictor(k=1).recommend(emb[0], rcs, 1.0)
        nearest = int(np.argmin(np.sqrt(((emb[1:] - emb[0]) ** 2).sum(1))))
        assert rec.model == labels[1 + nearest].best_model(1.0)

    def test_k_capped_at_rcs_size(self, trained, corpus):
        encoder, _, _ = trained
        graphs, labels = corpus
        emb = encoder.embed(graphs)
        rcs = RecommendationCandidateSet(emb[:2], labels[:2])
        rec = KNNPredictor(k=10).recommend(emb[0], rcs, 1.0)
        assert len(rec.neighbor_indices) == 2

    def test_empty_rcs_rejected(self):
        empty = RecommendationCandidateSet(np.zeros((0, 4)), [])
        with pytest.raises(ValueError, match="empty RCS"):
            KNNPredictor().recommend(np.zeros(4), empty, 1.0)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            KNNPredictor(k=0)

    def test_ranking_sorted(self, trained, corpus):
        encoder, _, _ = trained
        graphs, labels = corpus
        emb = encoder.embed(graphs)
        rcs = RecommendationCandidateSet(emb, labels)
        rec = KNNPredictor(k=2).recommend(emb[0], rcs, 0.8)
        scores = [s for _, s in rec.ranking()]
        assert scores == sorted(scores, reverse=True)
        assert rec.ranking()[0][0] == rec.model


class TestIncremental:
    def test_feedback_partitions_corpus(self, trained, corpus):
        encoder, _, _ = trained
        graphs, labels = corpus
        config = IncrementalConfig(folds=4, d_error_threshold=0.05)
        feedback, reference = collect_feedback(encoder, graphs, labels, config)
        assert sorted(feedback + reference) == list(range(len(graphs)))

    def test_mixup_synthesizes_per_feedback(self, trained, corpus):
        encoder, _, _ = trained
        graphs, labels = corpus
        config = IncrementalConfig(seed=1)
        result = augment_with_mixup(encoder, graphs, labels,
                                    feedback=[0, 1], reference=[2, 3, 4],
                                    config=config)
        assert len(result.new_graphs) == 2
        for g, lab in zip(result.new_graphs, result.new_labels):
            assert g.vertex_dim == graphs[0].vertex_dim
            assert np.all(lab.sa >= 0) and np.all(lab.sa <= 1)

    def test_no_reference_no_synthesis(self, trained, corpus):
        encoder, _, _ = trained
        graphs, labels = corpus
        result = augment_with_mixup(encoder, graphs, labels,
                                    feedback=[0], reference=[],
                                    config=IncrementalConfig())
        assert len(result.new_graphs) == 0

    def test_full_loop_runs(self, corpus):
        graphs, labels = corpus
        encoder = GINEncoder(graphs[0].vertex_dim, 16, 8, seed=2)
        trainer = DMLTrainer(encoder, DMLConfig(epochs=5))
        trainer.train(graphs, labels)
        result = incremental_learning(
            trainer, graphs, labels,
            IncrementalConfig(folds=4, epochs=2, d_error_threshold=0.0))
        # With threshold 0, every imperfect recommendation gives feedback.
        assert len(result.new_graphs) == len(result.feedback_indices) or \
            not result.reference_indices

    def test_no_augment_variant(self, corpus):
        graphs, labels = corpus
        encoder = GINEncoder(graphs[0].vertex_dim, 16, 8, seed=3)
        trainer = DMLTrainer(encoder, DMLConfig(epochs=3))
        trainer.train(graphs, labels)
        result = incremental_learning(trainer, graphs, labels,
                                      IncrementalConfig(folds=4, epochs=1),
                                      augment=False)
        assert len(result.new_graphs) == 0


class TestOnline:
    def test_threshold_is_percentile(self, trained, corpus):
        encoder, _, _ = trained
        graphs, labels = corpus
        emb = encoder.embed(graphs)
        rcs = RecommendationCandidateSet(emb, labels)
        detector = DriftDetector(percentile=90.0)
        threshold = detector.threshold(rcs)
        distances = rcs.nearest_neighbor_distances()
        assert threshold == pytest.approx(np.percentile(distances, 90.0))

    def test_far_point_is_drifted(self, trained, corpus):
        encoder, _, _ = trained
        graphs, labels = corpus
        emb = encoder.embed(graphs)
        rcs = RecommendationCandidateSet(emb, labels)
        detector = DriftDetector()
        far = emb.mean(axis=0) + 1000.0
        assert detector.is_drifted(far, rcs)
        assert not detector.is_drifted(emb[0], rcs)

    def test_adapt_grows_rcs(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=16, embedding_dim=8, use_incremental=False,
            dml=DMLConfig(epochs=3), seed=4))
        advisor.fit(graphs[:-1], labels[:-1])
        before = advisor.rcs
        advisor.adapt_online(graphs[-1], labels[-1], update_epochs=1)
        assert len(advisor.rcs) == len(graphs)
        assert advisor.rcs is not before and len(before) == len(graphs) - 1
        assert advisor.rcs.labels == list(labels)
        np.testing.assert_array_equal(advisor.rcs.embeddings,
                                      advisor.encoder.embed(graphs))


class TestAutoCEFacade:
    def test_fit_recommend_cycle(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=24, embedding_dim=8,
            dml=DMLConfig(epochs=20, batch_size=12), seed=0))
        advisor.fit(graphs, labels)
        rec = advisor.recommend(graphs[0], accuracy_weight=1.0)
        assert rec.model in MODELS
        # The synthetic mapping is learnable: most picks should be optimal.
        hits = sum(advisor.recommend(g, 1.0).model == lab.best_model(1.0)
                   for g, lab in zip(graphs, labels))
        assert hits >= len(graphs) * 0.7

    def test_unfitted_raises(self, corpus):
        advisor = AutoCE()
        with pytest.raises(RuntimeError):
            advisor.recommend(corpus[0][0], 1.0)

    def test_mismatched_lengths_rejected(self, corpus):
        graphs, labels = corpus
        with pytest.raises(ValueError):
            AutoCE().fit(graphs, labels[:-1])

    def test_drift_api(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(AutoCEConfig(dml=DMLConfig(epochs=5),
                                      use_incremental=False))
        advisor.fit(graphs, labels)
        assert isinstance(advisor.is_drifted(graphs[0]), bool)

    def test_adapt_online_updates(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(AutoCEConfig(dml=DMLConfig(epochs=5),
                                      use_incremental=False))
        advisor.fit(graphs[:-1], labels[:-1])
        before = len(advisor.rcs)
        advisor.adapt_online(graphs[-1], labels[-1], update_epochs=1)
        assert len(advisor.rcs) == before + 1


class TestRefusedUpdatesChangeNothing:
    """A ``fit`` or ``adapt_online`` that DML cannot train on raises before
    the advisor changes, so it keeps serving, saving and adapting."""

    OTHER_MODELS = DatasetLabel(MODELS + ("D",), [1.1, 2.0, 3.0, 4.0],
                                [0.001, 0.002, 0.003, 0.004])

    @staticmethod
    def wide_graph(graph):
        return FeatureGraph("wide", np.zeros((2, graph.vertex_dim + 1)),
                            np.zeros((2, 2)))

    @staticmethod
    def fitted(corpus):
        graphs, labels = corpus
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=16, embedding_dim=8, use_incremental=False,
            dml=DMLConfig(epochs=3, batch_size=8), seed=4))
        return advisor.fit(graphs[:-1], labels[:-1])

    @pytest.mark.parametrize("bad", ["label", "graph"])
    def test_refused_adapt_online(self, corpus, bad, tmp_path):
        graphs, labels = corpus
        advisor = self.fitted(corpus)
        weights = [p.data.tobytes() for p in advisor.encoder.parameters()]
        rcs = advisor.rcs
        graph, label = graphs[-1], labels[-1]
        if bad == "label":
            label = self.OTHER_MODELS
        else:
            graph = self.wide_graph(graph)
        with pytest.raises(ValueError, match="the advisor's"):
            advisor.adapt_online(graph, label, update_epochs=1)
        members = len(graphs) - 1
        assert (len(advisor._graphs), len(advisor._labels)) == (members,
                                                                members)
        assert advisor.rcs is rcs and len(rcs) == members
        assert [p.data.tobytes()
                for p in advisor.encoder.parameters()] == weights

        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        assert ([r.model for r in reloaded.recommend_batch(graphs, 0.9)]
                == [r.model for r in advisor.recommend_batch(graphs, 0.9)])
        advisor.adapt_online(graphs[-1], labels[-1], update_epochs=1)
        assert len(advisor.rcs) == len(graphs)

    @pytest.mark.parametrize("bad", ["label", "graph", "size"])
    def test_refused_refit(self, corpus, bad):
        graphs, labels = corpus
        advisor = self.fitted(corpus)
        encoder, trainer, rcs = advisor.encoder, advisor.trainer, advisor.rcs
        picks = [r.model for r in advisor.recommend_batch(graphs, 0.9)]
        new_graphs, new_labels = list(graphs), list(labels)
        if bad == "label":
            new_labels[5] = self.OTHER_MODELS
        elif bad == "graph":
            new_graphs[5] = self.wide_graph(graphs[5])
        else:
            new_graphs, new_labels = graphs[:1], labels[:1]
        with pytest.raises(ValueError):
            advisor.fit_graphs(new_graphs, new_labels)
        assert (advisor.encoder, advisor.trainer, advisor.rcs) == (
            encoder, trainer, rcs)
        np.testing.assert_array_equal(rcs.embeddings,
                                      encoder.embed(advisor._graphs))
        assert [r.model for r in advisor.recommend_batch(graphs, 0.9)] == picks
