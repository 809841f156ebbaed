"""The four model-selection baselines of Sec. VII-A.

* :class:`MLPSelector` — GIN + 3-layer MLP head trained as a classifier
  with cross-entropy on the per-weight optimal model.
* :class:`RuleSelector` — the heuristic from the empirical studies: random
  data-driven model for single-table datasets, random query-driven model
  for multi-table datasets.
* :class:`RawFeatureKnnSelector` — KNN directly on raw (flattened) feature
  graphs, skipping the learned embedding.
* :class:`SamplingSelector` — online learning on a sample of the target
  dataset: trains and tests every candidate CE model on the sample.
* :class:`LearningAllSelector` — online learning on the full dataset (the
  "LA" method of Fig. 12); by construction near-optimal but slowest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..ce.registry import CANDIDATE_MODELS, DATA_DRIVEN_MODELS, QUERY_DRIVEN_MODELS
from ..db.sampling import subsample_dataset
from ..db.schema import Dataset
from ..testbed.runner import TestbedConfig, run_testbed
from ..testbed.scores import ScoreLabel, WEIGHT_GRID
from ..utils.rng import rng_from_seed
from .encoder import GINEncoder
from .graph import FeatureGraph


class SelectionBaseline:
    """Interface: fit on labeled graphs, recommend for a feature graph."""

    name: str = "abstract"

    def fit(self, graphs: list[FeatureGraph], labels: list[ScoreLabel]) -> None:
        raise NotImplementedError  # pragma: no cover - abstract

    def recommend(self, graph: FeatureGraph, accuracy_weight: float) -> str:
        raise NotImplementedError  # pragma: no cover - abstract


class _LearnedSelector(SelectionBaseline):
    """GIN encoder + 3-layer MLP head over (embedding, w_a, w_e).

    One trainer for both learned baselines: each batch cycles through
    :data:`WEIGHT_GRID`, and the pick is the argmax of the head's output.
    A subclass names the head's output activation and its loss.
    """

    output_activation: str | None = None

    def __init__(self, hidden_dim: int = 64, embedding_dim: int = 32,
                 epochs: int = 60, batch_size: int = 32, lr: float = 2e-3,
                 seed: int = 0) -> None:
        self.hidden_dim = hidden_dim
        self.embedding_dim = embedding_dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self.encoder: GINEncoder | None = None
        self.head: nn.MLP | None = None
        self.model_names: tuple[str, ...] = ()

    def _loss(self, output: nn.Tensor, labels: list[ScoreLabel],
              accuracy_weight: float) -> nn.Tensor:
        raise NotImplementedError  # pragma: no cover - abstract

    def fit(self, graphs: list[FeatureGraph], labels: list[ScoreLabel]) -> None:
        rng = rng_from_seed(self.seed)
        self.model_names = labels[0].model_names
        num_models = len(self.model_names)
        self.encoder = GINEncoder(graphs[0].vertex_dim, self.hidden_dim,
                                  self.embedding_dim, seed=self.seed)
        # Head input: embedding + the metric weight (w_a, w_e).
        self.head = nn.MLP([self.embedding_dim + 2, self.hidden_dim,
                            self.hidden_dim // 2, num_models], rng,
                           output_activation=self.output_activation)
        params = self.encoder.parameters() + self.head.parameters()
        optimizer = nn.Adam(params, lr=self.lr)
        n = len(graphs)
        weight_cycle = list(WEIGHT_GRID)
        step = 0
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start:start + self.batch_size]
                if len(idx) < 2:
                    continue
                accuracy_weight = weight_cycle[step % len(weight_cycle)]
                step += 1
                embeddings = self.encoder.encode_batch([graphs[i] for i in idx])
                weight_cols = np.tile([accuracy_weight, 1.0 - accuracy_weight],
                                      (len(idx), 1))
                output = self.head(nn.concatenate(
                    [embeddings, nn.Tensor(weight_cols)], axis=1))
                loss = self._loss(output, [labels[i] for i in idx],
                                  accuracy_weight)
                optimizer.zero_grad()
                loss.backward()
                nn.clip_grad_norm(params, 5.0)
                optimizer.step()

    def recommend(self, graph: FeatureGraph, accuracy_weight: float) -> str:
        with nn.no_grad():
            embedding = self.encoder.encode_batch([graph])
            weight_cols = np.array([[accuracy_weight, 1.0 - accuracy_weight]])
            output = self.head(
                nn.concatenate([embedding, nn.Tensor(weight_cols)], axis=1))
        return self.model_names[int(np.argmax(output.numpy()[0]))]


class MLPSelector(_LearnedSelector):
    """GIN encoder + MLP classification head (cross-entropy)."""

    name = "MLP"

    def _loss(self, output: nn.Tensor, labels: list[ScoreLabel],
              accuracy_weight: float) -> nn.Tensor:
        targets = np.array([label.index_of(label.best_model(accuracy_weight))
                            for label in labels])
        return nn.cross_entropy(output, targets)


class RegressionSelector(_LearnedSelector):
    """AutoCE (Without DML): GIN + fully-connected head, MSE on score vectors.

    The Fig. 11(a) ablation: the same graph encoder trained end-to-end to
    *regress* the score vector (L = Σ ||ŷ − y||²) instead of learning a
    similarity-aware metric space; recommendation is argmax(ŷ).
    """

    name = "Without-DML"
    output_activation = "sigmoid"

    def _loss(self, output: nn.Tensor, labels: list[ScoreLabel],
              accuracy_weight: float) -> nn.Tensor:
        targets = np.stack([label.score_vector(accuracy_weight)
                            for label in labels])
        return nn.mse_loss(output, targets)


class RuleSelector(SelectionBaseline):
    """Heuristic rules from prior empirical studies (Sec. VII-A).

    The random pick from the rule's pool is drawn from a generator seeded
    with ``seed`` and the graph's fingerprint, so a graph gets the same
    pick whatever was recommended before it.
    """

    name = "Rule"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.model_names: tuple[str, ...] = tuple(CANDIDATE_MODELS)

    def fit(self, graphs: list[FeatureGraph], labels: list[ScoreLabel]) -> None:
        self.model_names = labels[0].model_names

    def recommend(self, graph: FeatureGraph, accuracy_weight: float) -> str:
        single_table = graph.num_tables == 1
        pool = DATA_DRIVEN_MODELS if single_table else QUERY_DRIVEN_MODELS
        pool = [m for m in pool if m in self.model_names] or list(self.model_names)
        rng = np.random.default_rng([self.seed, int(graph.fingerprint(), 16)])
        return pool[int(rng.integers(0, len(pool)))]


class RawFeatureKnnSelector(SelectionBaseline):
    """KNN over raw feature vectors (no learned embedding)."""

    name = "Knn"

    def __init__(self, k: int = 2) -> None:
        self.k = k
        self._features: np.ndarray | None = None
        self._labels: list[ScoreLabel] = []

    def fit(self, graphs: list[FeatureGraph], labels: list[ScoreLabel]) -> None:
        n_max = max(g.num_tables for g in graphs)
        self._pad_to = n_max
        self._features = np.stack([g.padded(n_max).flat() for g in graphs])
        self._labels = list(labels)

    def recommend(self, graph: FeatureGraph, accuracy_weight: float) -> str:
        padded = graph.padded(max(self._pad_to, graph.num_tables))
        vector = padded.flat()
        features = self._features
        if len(vector) != features.shape[1]:
            # Align dimensions when the target has more tables than training.
            width = max(len(vector), features.shape[1])
            features = np.pad(features, ((0, 0), (0, width - features.shape[1])))
            vector = np.pad(vector, (0, width - len(vector)))
        distances = np.sqrt(((features - vector) ** 2).sum(axis=1))
        nearest = np.argsort(distances, kind="stable")[:min(self.k, len(distances))]
        score = np.mean([self._labels[i].score_vector(accuracy_weight)
                         for i in nearest], axis=0)
        return self._labels[0].model_names[int(np.argmax(score))]


@dataclass
class OnlineSelectorConfig:
    """Testbed budget for the online (Sampling / Learning-All) selectors."""

    sample_fraction: float = 0.3
    testbed: TestbedConfig = field(default_factory=lambda: TestbedConfig(
        num_train_queries=120, num_test_queries=30, sample_size=800))
    seed: int = 0


class SamplingSelector(SelectionBaseline):
    """Online learning on a sample: train & test all CE models per dataset.

    Unlike the learned selectors it needs the *dataset*, not its feature
    graph — selection cost is dominated by CE-model training, which is the
    overhead Fig. 12 quantifies.  Labels are memoized per dataset name so
    that evaluating several metric weights pays the training cost once.
    """

    name = "Sampling"

    def __init__(self, config: OnlineSelectorConfig | None = None) -> None:
        self.config = config or OnlineSelectorConfig()
        self._label_cache: dict[str, ScoreLabel] = {}

    def fit(self, graphs: list[FeatureGraph], labels: list[ScoreLabel]) -> None:
        pass  # Online method: nothing to train offline.

    def recommend(self, graph: FeatureGraph, accuracy_weight: float) -> str:
        raise TypeError(f"{type(self).__name__} needs the dataset; "
                        "use recommend_dataset")

    def _testbed_input(self, dataset: Dataset) -> Dataset:
        """The data the candidates are trained and tested on."""
        return subsample_dataset(dataset, self.config.sample_fraction,
                                 seed=self.config.seed)

    def label_dataset(self, dataset: Dataset) -> ScoreLabel:
        if dataset.name not in self._label_cache:
            self._label_cache[dataset.name] = run_testbed(
                self._testbed_input(dataset), config=self.config.testbed)
        return self._label_cache[dataset.name]

    def recommend_dataset(self, dataset: Dataset, accuracy_weight: float) -> str:
        return self.label_dataset(dataset).best_model(accuracy_weight)


class LearningAllSelector(SamplingSelector):
    """Online learning on the full dataset (the LA method of Fig. 12)."""

    name = "Learning-All"

    def _testbed_input(self, dataset: Dataset) -> Dataset:
        return dataset
