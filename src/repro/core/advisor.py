"""AutoCE: the model advisor facade.

Ties together the four stages of Fig. 3: feature engineering (Stage 2.1),
DML-based graph-encoder learning (Stage 2), incremental learning with Mixup
(Stage 3), and the KNN recommendation (Stage 4), plus the online adapting
of Sec. V-E.

Typical usage::

    advisor = AutoCE()
    advisor.fit(datasets, labels)                 # labels from the testbed
    rec = advisor.recommend(new_dataset, accuracy_weight=0.9)
    rec.model                                     # e.g. "DeepDB"

Serving fast path
-----------------
:meth:`AutoCE.recommend_batch` serves many datasets at once: every feature
graph is embedded in **one** GIN forward pass and the KNN search runs as a
single vectorized ``[Q, N]`` distance computation (Gram identity +
``argpartition``), so throughput scales with batch size instead of paying
per-query Python overhead::

    recs = advisor.recommend_batch(datasets, accuracy_weight=0.9)

Scale-out serving
-----------------
Two pieces make the serving path scale:

* **int8 candidate tier** — once the RCS reaches
  ``AutoCEConfig.ann.threshold`` members, neighbor search switches from
  the exact ``[Q, N]`` scan to a flat int8 code scan
  (:class:`~repro.core.serving.QuantizedStore`, parameters in
  ``AutoCEConfig.quantization``) whose top ``k · overfetch`` candidates
  are re-ranked in the float serving tier; the store is built with the
  RCS, from its rows.
* **Embedding cache** — both :meth:`recommend` and :meth:`recommend_batch`
  consult an in-memory LRU memo-cache keyed by the feature graph's content
  fingerprint (``AutoCEConfig.embedding_cache_size``, ``0`` disables it),
  so repeat traffic skips the GIN forward.  Every ``fit``,
  ``adapt_online`` and tier switch (``set_dtype``) clears it.

``AutoCEConfig.dtype`` is the one precision knob: the encoder, the RCS
rows and every query embedding live at that tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np
from numpy.typing import DTypeLike

from ..db.schema import Dataset
from ..testbed.scores import ScoreLabel
from ..utils.cache import MISSING, LRUCache
from .dml import DMLConfig, DMLTrainer
from .encoder import GINEncoder
from .graph import DEFAULT_MAX_COLUMNS, FeatureGraph, build_feature_graph
from .incremental import IncrementalConfig, incremental_learning
from .online import DriftDetector
from .serving import (ANNConfig, KNNPredictor, QuantizationConfig,
                      Recommendation, RecommendationCandidateSet)


#: The size fields of :class:`AutoCEConfig` (dotted into nested configs)
#: and the least value each may take.  A smaller one would build no
#: encoder (``hidden_dim: 0`` divides by zero in the weight init), search
#: no candidates or batch nothing; 0 switches the embedding cache and the
#: int8 tier off.
SIZE_MINIMA = {
    "max_columns": 1, "hidden_dim": 1, "embedding_dim": 1, "num_layers": 1,
    "knn_k": 1, "quantization.overfetch": 1, "dml.batch_size": 1,
    "embedding_cache_size": 0, "ann.threshold": 0,
}


@dataclass
class AutoCEConfig:
    """All hyper-parameters of the advisor in one place."""

    max_columns: int = DEFAULT_MAX_COLUMNS
    hidden_dim: int = 96
    embedding_dim: int = 64
    num_layers: int = 2
    #: Numeric precision tier of the encoder, the DML training tensors and
    #: the serving embeddings: "float64" (reference, the default) or
    #: "float32" (the fast tier — half the memory bandwidth on the GIN and
    #: KNN kernels, with recommendation agreement measured in the ROADMAP
    #: tier guide).
    dtype: str = "float64"
    #: Parameters of the int8 candidate tier (attached per ``ann``).
    quantization: QuantizationConfig = field(
        default_factory=QuantizationConfig)
    #: The paper's Table IV optimum is k = 2 on a 1 000-dataset corpus; on
    #: this reproduction's smaller default corpus a slightly larger
    #: neighborhood averages out label noise (see the Table IV bench).
    knn_k: int = 5
    dml: DMLConfig = field(default_factory=DMLConfig)
    incremental: IncrementalConfig = field(default_factory=IncrementalConfig)
    use_incremental: bool = True
    #: False = the "No Augmentation" ablation of Fig. 11(b).
    incremental_augment: bool = True
    #: LRU capacity of the serving-path embedding memo-cache (0 disables).
    embedding_cache_size: int = 1024
    #: RCS size at which search switches to the int8 candidate tier.
    ann: ANNConfig = field(default_factory=ANNConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ``TypeError`` naming the first field, nested configs
        included, not of its declared type, or ``ValueError`` for a
        ``dtype`` other than float32 or float64 or a size field below its
        least value (:data:`SIZE_MINIMA`).  The constructor runs it, and
        :func:`~repro.core.persistence.save_advisor` runs it again, since
        a field may be set after construction."""
        _require_declared_types(self)
        if self.dtype not in ("float32", "float64"):
            raise ValueError("config field dtype must be 'float32' or "
                             f"'float64', got {self.dtype!r}")
        for name, least in SIZE_MINIMA.items():
            value: Any = self
            for part in name.split("."):
                value = getattr(value, part)
            if value < least:
                raise ValueError(f"config field {name} must be at least "
                                 f"{least}, got {value!r}")


def _has_declared_type(value: Any, declared: Any) -> bool:
    """``isinstance`` as a config field means it: a bool is not an int,
    and an int counts as a float."""
    if get_origin(declared) is tuple:       # tuple[float, ...]
        item = get_args(declared)[0]
        return isinstance(value, tuple) and all(
            _has_declared_type(v, item) for v in value)
    if isinstance(value, bool):
        return declared is bool
    return isinstance(value, (int, float) if declared is float else declared)


@cache
def _declared_types(cls: type) -> dict[str, Any]:
    """The resolved field annotations of a config class (resolving them
    costs ~0.2 ms a class, so once)."""
    return get_type_hints(cls)


def _require_declared_types(config: Any, prefix: str = "") -> None:
    """Raise ``TypeError`` naming the first field of ``config``, or of a
    config nested in it, whose value is not of the field's declared type.

    ``AutoCEConfig(...)`` runs it, and so
    :func:`~repro.core.persistence.load_advisor` does: a save with a string
    ``dml.epochs`` or an ``ann`` of None fails to load instead of serving.
    """
    hints = _declared_types(type(config))
    for f in fields(config):
        name, value = prefix + f.name, getattr(config, f.name)
        declared = hints[f.name]
        if not _has_declared_type(value, declared):
            spelled = (declared.__name__ if isinstance(declared, type)
                       else declared)
            raise TypeError(
                f"config field {name} must be {spelled}, got {value!r}")
        if is_dataclass(declared):
            _require_declared_types(value, f"{name}.")


class AutoCE:
    """The learned CE-model advisor (offline training, online prediction)."""

    def __init__(self, config: AutoCEConfig | None = None) -> None:
        self.config = config or AutoCEConfig()
        self.encoder: GINEncoder | None = None
        self.trainer: DMLTrainer | None = None
        self.rcs: RecommendationCandidateSet | None = None
        self.predictor = KNNPredictor(k=self.config.knn_k)
        self.detector = DriftDetector()
        self._graphs: list[FeatureGraph] = []
        self._labels: list[ScoreLabel] = []
        self.embedding_cache: LRUCache | None = (
            LRUCache(self.config.embedding_cache_size)
            if self.config.embedding_cache_size > 0 else None)
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------
    # Stage 2.1: feature engineering
    # ------------------------------------------------------------------
    def featurize(self, dataset: Dataset) -> FeatureGraph:
        return build_feature_graph(dataset,
                                   max_columns=self.config.max_columns)

    def featurize_many(
            self, datasets: list[Dataset] | list[FeatureGraph]
    ) -> list[FeatureGraph]:
        """Featurize a batch; prebuilt :class:`FeatureGraph` entries pass
        through untouched."""
        return [d if isinstance(d, FeatureGraph) else self.featurize(d)
                for d in datasets]

    # ------------------------------------------------------------------
    # Stages 2–3: training
    # ------------------------------------------------------------------
    def fit(self, datasets: list[Dataset] | list[FeatureGraph],
            labels: list[ScoreLabel]) -> "AutoCE":
        """Train the advisor from labeled datasets (or prebuilt graphs)."""
        if len(datasets) != len(labels):
            raise ValueError("datasets and labels must align")
        return self.fit_graphs(self.featurize_many(datasets), labels)

    def fit_graphs(self, graphs: list[FeatureGraph],
                   labels: list[ScoreLabel]) -> "AutoCE":
        """Train on prebuilt graphs.  All-or-nothing: the advisor keeps its
        previous encoder, RCS and training set until the new ones are
        trained and built."""
        config = self.config
        if len(graphs) != len(labels):
            raise ValueError("graphs and labels must align")
        if len(graphs) < 2:
            raise ValueError(
                f"fit needs at least two labeled graphs, got {len(graphs)}")
        _require_compatible(graphs, labels, graphs[0].vertex_dim,
                            labels[0].model_names)
        graphs, labels = list(graphs), list(labels)
        encoder = GINEncoder(
            vertex_dim=graphs[0].vertex_dim,
            hidden_dim=config.hidden_dim,
            embedding_dim=config.embedding_dim,
            num_layers=config.num_layers,
            seed=config.seed,
            dtype=np.dtype(config.dtype),
        )
        trainer = DMLTrainer(encoder, config.dml)
        loss_history = trainer.train(graphs, labels)
        if config.use_incremental and len(graphs) >= 2 * config.incremental.folds:
            incremental_learning(trainer, graphs, labels,
                                 config.incremental,
                                 augment=config.incremental_augment)
        rcs = self._build_rcs(encoder, graphs, labels)
        self.encoder, self.trainer, self.rcs = encoder, trainer, rcs
        self._graphs, self._labels = graphs, labels
        self.loss_history = loss_history
        self._invalidate_embedding_cache()
        return self

    def _build_rcs(self, encoder: GINEncoder, graphs: list[FeatureGraph],
                   labels: list[ScoreLabel]) -> RecommendationCandidateSet:
        return RecommendationCandidateSet(
            encoder.embed(graphs), list(labels), ann=self.config.ann,
            quantization=self.config.quantization)

    # ------------------------------------------------------------------
    # Embedding memo-cache
    # ------------------------------------------------------------------
    def _invalidate_embedding_cache(self) -> None:
        """Drop memoized embeddings after any encoder weight change."""
        if self.embedding_cache is not None:
            self.embedding_cache.clear()

    # ------------------------------------------------------------------
    # Precision tiers
    # ------------------------------------------------------------------
    def set_dtype(self, dtype: DTypeLike) -> "AutoCE":
        """Switch the advisor's *full* precision tier (e.g. ``"float32"``).

        On a fitted advisor this casts the encoder weights in place,
        re-embeds the RCS on the new tier and clears the embedding cache.
        Downcasting a float64-trained advisor to float32 is the supported
        destructive cast; *upcasting* a float32-trained (or float32-saved)
        advisor raises — the discarded mantissa bits are unrecoverable, and
        silently serving zero-padded float64 weights as if they were the
        full-precision originals is exactly the kind of bad cast the
        persistence metadata exists to prevent.
        """
        dtype = np.dtype(dtype)
        if dtype.name not in ("float32", "float64"):
            raise ValueError(f"unsupported precision tier {dtype.name!r}")
        if (self.encoder is not None
                and np.dtype(self.encoder.dtype) == np.float32
                and dtype == np.float64):
            raise ValueError(
                "cannot upcast a float32 advisor to float64: the encoder "
                "weights live at float32 (trained or reloaded from a "
                "float32 save) and the discarded mantissa bits are "
                "unrecoverable; retrain at float64 instead.")
        self.config.dtype = dtype.name
        if self.encoder is not None and self.encoder.dtype != dtype:
            self.encoder.to(dtype)
            self._invalidate_embedding_cache()
            if self._graphs:
                self.rcs = self._build_rcs(self.encoder, self._graphs,
                                           self._labels)
        return self

    # ------------------------------------------------------------------
    # Stage 4: recommendation
    # ------------------------------------------------------------------
    def _embed_graphs(self, graphs: list[FeatureGraph]) -> np.ndarray:
        """Embed graphs through the memo-cache; misses share one forward."""
        cache = self.embedding_cache
        if cache is None:
            return self.encoder.embed(graphs)
        out = np.empty((len(graphs), self.encoder.embedding_dim),
                       dtype=self.config.dtype)
        miss_indices: list[int] = []
        keys = [graph.fingerprint() for graph in graphs]
        for i, key in enumerate(keys):
            hit = cache.get(key, MISSING)
            if hit is MISSING:
                miss_indices.append(i)
            else:
                out[i] = hit
        if miss_indices:
            # Duplicate datasets within one cold batch share one forward row.
            positions_by_key: dict[str, list[int]] = {}
            for i in miss_indices:
                positions_by_key.setdefault(keys[i], []).append(i)
            fresh = self.encoder.embed(
                [graphs[positions[0]]
                 for positions in positions_by_key.values()])
            for row, (key, positions) in zip(fresh, positions_by_key.items()):
                cache.put(key, row)
                for i in positions:
                    out[i] = row
        return out

    def embed(self, dataset: Dataset | FeatureGraph) -> np.ndarray:
        self._require_fitted()
        graph = dataset if isinstance(dataset, FeatureGraph) else self.featurize(dataset)
        return self._embed_graphs([graph])[0]

    def embed_many(self, datasets: list[Dataset] | list[FeatureGraph]
                   ) -> np.ndarray:
        """Batched query embedding: featurization + one forward.

        The public half of :meth:`recommend_batch`, exposed so a caller
        can embed through the same memo-cache and then run its own
        neighbor search.
        """
        self._require_fitted()
        if not datasets:
            return np.zeros((0, self.encoder.embedding_dim),
                            dtype=self.config.dtype)
        return self._embed_graphs(self.featurize_many(datasets))

    def recommend(self, dataset: Dataset | FeatureGraph,
                  accuracy_weight: float = 1.0,
                  k: int | None = None) -> Recommendation:
        """Select the best CE model for a dataset under the given weights.

        ``accuracy_weight`` is w_a of Eq. 2 (w_e = 1 − w_a): 1.0 asks for
        pure accuracy, 0.0 for pure inference efficiency.
        """
        self._require_fitted()
        embedding = self.embed(dataset)
        return self.predictor.recommend(embedding, self.rcs, accuracy_weight, k=k)

    def recommend_batch(self, datasets: list[Dataset] | list[FeatureGraph],
                        accuracy_weight: float = 1.0,
                        k: int | None = None) -> list[Recommendation]:
        """Batched serving: one GIN forward + one vectorized KNN for Q queries.

        Equivalent to ``[self.recommend(d, accuracy_weight, k) for d in
        datasets]`` but orders of magnitude cheaper at high throughput: cache
        misses are embedded together in a single forward pass, and the KNN
        search runs one vectorized pass — the exact scan below the int8
        tier's size threshold, int8 candidates from it up.
        """
        self._require_fitted()
        if not datasets:
            return []
        return self.predictor.recommend_batch(
            self.embed_many(datasets), self.rcs, accuracy_weight, k=k)

    # ------------------------------------------------------------------
    # Online adapting (Sec. V-E)
    # ------------------------------------------------------------------
    def is_drifted(self, dataset: Dataset | FeatureGraph) -> bool:
        """True when the dataset falls outside the trained distribution.

        Sec. V-E's rule: the dataset's embedding is farther from every RCS
        member than the 90th percentile of the members' own
        nearest-neighbor distances.  The RCS memoizes those distances and
        its members' squared norms, and the detector the percentile, so
        only the first check after ``fit``, ``load_advisor``, ``set_dtype``
        or ``adapt_online`` pays the N×N kernel; later checks cost one 1×N
        distance row, O(N·d).  Pass the :class:`FeatureGraph` from
        :meth:`featurize` when the same dataset is also recommended, so it
        is featurized once.
        """
        self._require_fitted()
        return self.detector.is_drifted(self.embed(dataset), self.rcs)

    def adapt_online(self, dataset: Dataset | FeatureGraph,
                     label: ScoreLabel, update_epochs: int = 5) -> None:
        """Incorporate a freshly labeled drifted dataset (Sec. V-E): train
        ``update_epochs`` more DML epochs over every stored graph, the new
        one included, then rebuild the RCS from the retrained encoder.

        A graph or label that cannot train beside the stored ones (another
        feature layout or model set) raises ``ValueError`` before anything
        changes."""
        self._require_fitted()
        graph = dataset if isinstance(dataset, FeatureGraph) else self.featurize(dataset)
        _require_compatible([graph], [label], self.encoder.vertex_dim,
                            self.rcs.model_names)
        graphs, labels = self._graphs + [graph], self._labels + [label]
        self.trainer.train(graphs, labels, epochs=update_epochs)
        self.rcs = self._build_rcs(self.encoder, graphs, labels)
        self._graphs, self._labels = graphs, labels
        self._invalidate_embedding_cache()

    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self.encoder is None or self.rcs is None:
            raise RuntimeError("AutoCE is not fitted; call fit() first")


def _require_compatible(graphs: list[FeatureGraph], labels: list[ScoreLabel],
                        vertex_dim: int, model_names: tuple[str, ...]) -> None:
    """Refuse a graph or label that cannot train beside the advisor's
    others: DML stacks every graph's vertex rows and every label's score
    vector, and the RCS names its picks after one label's models."""
    for graph in graphs:
        if graph.vertex_dim != vertex_dim:
            raise ValueError(
                f"graph {graph.name!r} has vertex_dim {graph.vertex_dim}, "
                f"the advisor's graphs have {vertex_dim}")
    for label in labels:
        if tuple(label.model_names) != tuple(model_names):
            raise ValueError(
                f"a label scores the models {tuple(label.model_names)}, "
                f"the advisor's labels score {tuple(model_names)}")
