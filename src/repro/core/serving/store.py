"""The RCS (Def. 5) and the KNN predictor (Eq. 13).

:class:`RecommendationCandidateSet` owns the labeled embeddings and
serves neighbor search from one of two tiers, chosen once, when the RCS
is built, by one size rule (:func:`serves_int8`): the exact float scan,
or the flat int8 candidate store
(:class:`~repro.core.serving.quantizers.QuantizedStore`).
:class:`KNNPredictor` averages the k nearest labels' score vectors under
the user's metric weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...testbed.scores import ScoreLabel
from .kernels import (_as_float_matrix, exact_search,
                      require_finite_embeddings, squared_distance_matrix)
from .quantizers import QuantizationConfig, QuantizedStore


@dataclass(frozen=True)
class ANNConfig:
    """When candidate search leaves the exact scan for the int8 tier.

    The default keeps paper-scale corpora (~1 200 members) on the exact
    scan; docs/serving.md has the tier audit behind the two-tier design.
    ``ANNConfig(threshold=0)`` is the one spelling of "the exact scan at
    every size".
    """

    #: RCS size at which neighbor search switches from the exact float
    #: scan to the int8 candidate tier (0 keeps the exact scan at any size).
    threshold: int = 4096


def serves_int8(size: int, ann: ANNConfig) -> bool:
    """The tier rule: int8 candidates from ``ann.threshold`` members up."""
    return 0 < ann.threshold <= size


@dataclass
class Recommendation:
    """Outcome of one AutoCE recommendation."""

    model: str
    score_vector: np.ndarray
    model_names: tuple[str, ...]
    neighbor_indices: np.ndarray
    neighbor_distances: np.ndarray

    def ranking(self) -> list[tuple[str, float]]:
        order = np.argsort(-self.score_vector)
        return [(self.model_names[i], float(self.score_vector[i])) for i in order]


class RecommendationCandidateSet:
    """Def. 5: labeled embeddings (X, Y) searched by the KNN predictor.

    Built once from its rows, labels and tier config: the constructor
    refuses non-finite rows, keeps one read-only copy of them
    (``embeddings``) and quantizes them into the int8 store (``index``,
    None for the exact scan) when :func:`serves_int8` calls for it; the
    default ``ann`` keeps the exact scan at every size.
    Retraining the encoder builds a new RCS.  The score matrices (one per
    weight), the members' squared norms (:meth:`squared_norms_for`) and
    their nearest-neighbor distances behind the drift threshold
    (:meth:`nearest_neighbor_distances`) are each computed on first use
    and kept for as long as the RCS exists.
    """

    def __init__(self, embeddings: np.ndarray, labels: list[ScoreLabel],
                 ann: ANNConfig = ANNConfig(threshold=0),
                 quantization: QuantizationConfig | None = None) -> None:
        embeddings = _as_float_matrix(embeddings)
        self.labels: list[ScoreLabel] = list(labels)
        if len(embeddings) != len(self.labels):
            raise ValueError("embeddings and labels must align")
        require_finite_embeddings(embeddings, "RCS embeddings")
        # The rows keep their precision tier: a float32 corpus (the serving
        # fast tier) is stored and searched in float32.
        self.embeddings = np.array(embeddings, dtype=embeddings.dtype)
        self.embeddings.flags.writeable = False
        self.index: QuantizedStore | None = (
            QuantizedStore(self.embeddings, quantization)
            if serves_int8(len(self.embeddings), ann) else None)
        self._score_cache: dict[float, np.ndarray] = {}
        self._sq_norms: np.ndarray | None = None
        self._nn_distances: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def model_names(self) -> tuple[str, ...]:
        if not self.labels:
            raise ValueError("empty RCS")
        return self.labels[0].model_names

    def search(self, queries: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest members per query: ([Q, k] indices, [Q, k] distances).

        Either tier prices its answers with the memoized member norms
        (:meth:`squared_norms_for`)."""
        queries = _as_float_matrix(queries)
        k = min(k, len(self))
        sq_norms = self.squared_norms_for(queries)
        if self.index is None:
            return exact_search(queries, self.embeddings, k, sq_norms)
        return self.index.search(queries, self.embeddings, k, sq_norms)

    def score_matrix(self, accuracy_weight: float) -> np.ndarray:
        """Memoized [N, m] matrix of member score vectors at one weight."""
        key = float(accuracy_weight)
        cached = self._score_cache.get(key)
        if cached is None:
            cached = np.stack(
                [label.score_vector(key) for label in self.labels])
            self._score_cache[key] = cached
        return cached

    def squared_norms_for(self, queries: np.ndarray) -> np.ndarray | None:
        """The members' squared norms ``(E * E).sum(axis=1)``, for a
        distance pass from ``queries`` to the members.

        Computed on the first call and returned read-only for as long as
        the RCS exists, so the exact scan, the int8 tier's re-rank and the
        drift check stop summing them per request.  Returns None when
        ``queries`` are not of the RCS's dtype: the kernel then meets them
        on another precision tier and computes the norms there, as it
        would without the memo.
        """
        if queries.dtype != self.embeddings.dtype:
            return None
        if self._sq_norms is None:
            embeddings = self.embeddings
            norms = (embeddings * embeddings).sum(axis=1)
            norms.flags.writeable = False
            self._sq_norms = norms
        return self._sq_norms

    def nearest_neighbor_distances(self) -> np.ndarray:
        """Distance of each member to its nearest other member.

        Computed on the first call and returned read-only for as long as
        the RCS exists, so the N×N kernel runs once per RCS rather than
        once per drift check.  Never built eagerly: an RCS that checks no
        drift (serve-hot's 8 192 members) never pays the N×N temporary.
        """
        if self._nn_distances is None:
            if len(self) < 2:
                distances = np.zeros(len(self), dtype=self.embeddings.dtype)
            else:
                sq = squared_distance_matrix(self.embeddings, self.embeddings)
                np.fill_diagonal(sq, np.inf)
                distances = np.sqrt(sq.min(axis=1))
            distances.flags.writeable = False
            self._nn_distances = distances
        return self._nn_distances


class KNNPredictor:
    """Eq. 13: average the k nearest labels and pick the top ranker.

    The paper finds k = 2 optimal (Table IV); that is the default.  Neighbor
    search is delegated to :meth:`RecommendationCandidateSet.search`, so the
    predictor transparently uses whichever tier the RCS serves (the exact
    scan below the threshold, int8 candidates from it up).
    """

    def __init__(self, k: int = 2) -> None:
        self.k = self.resolve_k(k)

    def resolve_k(self, k: int | None) -> int:
        """The neighbour count of one call: ``k``, or the default when None."""
        k = self.k if k is None else k
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        return k

    def recommend(self, embedding: np.ndarray, rcs: RecommendationCandidateSet,
                  accuracy_weight: float, k: int | None = None) -> Recommendation:
        return self.recommend_batch(
            _as_float_matrix(embedding), rcs, accuracy_weight, k=k)[0]

    def recommend_batch(self, embeddings: np.ndarray,
                        rcs: RecommendationCandidateSet,
                        accuracy_weight: float,
                        k: int | None = None) -> list[Recommendation]:
        """Vectorized Eq. 13 for Q queries at once.

        One [Q, N] Gram-identity distance matrix (or one int8 code scan),
        one ``argpartition`` per row, and one gather over the memoized score
        matrix replace Q independent full-sort searches.
        """
        if len(rcs) == 0:
            raise ValueError("cannot recommend from an empty RCS")
        embeddings = _as_float_matrix(embeddings)
        k = min(self.resolve_k(k), len(rcs))
        nearest, neighbor_distances = rcs.search(embeddings, k)   # [Q, k]
        scores = rcs.score_matrix(accuracy_weight)[nearest].mean(axis=1)
        best = np.argmax(scores, axis=1)
        names = rcs.model_names
        return [
            Recommendation(
                model=names[int(best[i])],
                score_vector=scores[i],
                model_names=names,
                neighbor_indices=nearest[i],
                neighbor_distances=neighbor_distances[i],
            )
            for i in range(len(embeddings))
        ]
