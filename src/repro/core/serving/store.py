"""The RCS (Def. 5) and the KNN predictor (Eq. 13).

:class:`RecommendationCandidateSet` owns the labeled embeddings and
serves neighbor search from one of two tiers, chosen by one size rule
(:func:`serves_int8`): the exact float scan, or the flat int8 candidate
store (:class:`~repro.core.serving.quantizers.QuantizedStore`) kept
size-synced through ``add`` / ``replace_embeddings``.
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


@dataclass
class ANNConfig:
    """When candidate search leaves the exact scan for the int8 tier.

    The default keeps paper-scale corpora (~1 200 members) on the exact
    scan; docs/serving.md has the tier audit behind the two-tier design.
    """

    #: RCS size at which neighbor search switches from the exact float
    #: scan to the int8 candidate tier (0 keeps the exact scan at any size).
    threshold: int = 4096


def serves_int8(size: int, ann: ANNConfig | None) -> bool:
    """The tier rule: int8 candidates from ``ann.threshold`` members up.

    Shared by the RCS and every shard runtime, so a shard slice serves
    the tier an unsharded RCS of its size would.
    """
    return ann is not None and 0 < ann.threshold <= size


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

    Embeddings live in an amortized capacity-doubling buffer, so the online
    adaptation path can :meth:`add` members in O(1) amortized instead of
    re-allocating the whole matrix per insert.  Score matrices (one per
    accuracy weight) are memoized for the batched KNN.

    Neighbor queries go through :meth:`search`: the exact Gram-identity
    scan, or — once an :class:`ANNConfig` is supplied and the membership
    reaches its threshold — the int8 :class:`QuantizedStore`, attached
    automatically, requantized on :meth:`add` and recalibrated on
    :meth:`replace_embeddings`.

    Derived state is memoized per RCS state and dropped by the same two
    hooks: the per-weight score matrices; the members' squared norms,
    which every exact scan and drift check reads (:meth:`squared_norms_for`);
    and the members' own nearest-neighbor distances behind the drift
    threshold (Sec. V-E), which :meth:`nearest_neighbor_distances` builds
    with one N×N kernel.  The last two are built on their first call after
    construction, :meth:`add` or :meth:`replace_embeddings` — never
    eagerly.
    """

    def __init__(self, embeddings: np.ndarray | None = None,
                 labels: list[ScoreLabel] | None = None,
                 ann: ANNConfig | None = None,
                 quantization: QuantizationConfig | None = None,
                 quantized_store: QuantizedStore | None = None) -> None:
        # The buffer keeps the embeddings' precision tier: a float32 corpus
        # (the serving fast tier) is stored and searched in float32.
        embeddings = (np.zeros((0, 0), dtype=np.float64)
                      if embeddings is None
                      else _as_float_matrix(embeddings))
        self.labels: list[ScoreLabel] = list(labels or [])
        if len(embeddings) != len(self.labels):
            raise ValueError("embeddings and labels must align")
        self._buffer = np.array(embeddings, dtype=embeddings.dtype)
        self._size = len(embeddings)
        self._score_cache: dict[float, np.ndarray] = {}
        self._sq_norms: np.ndarray | None = None
        self._nn_distances: np.ndarray | None = None
        self.ann_config = ann
        self.quantization = quantization
        # Warm attach (persistence restore path): adopt a prebuilt store
        # covering these rows, when the tier rule calls for one, instead of
        # requantizing them.
        self._store: QuantizedStore | None = (
            quantized_store if quantized_store is not None
            and len(quantized_store) == self._size
            and serves_int8(self._size, ann) else None)
        self._sync_store()

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def embeddings(self) -> np.ndarray:
        """The live [N, d] embedding matrix (a view of the growth buffer)."""
        return self._buffer[:self._size]

    @property
    def index(self) -> QuantizedStore | None:
        """The attached int8 candidate store (None = exact float scan)."""
        return self._store

    @property
    def model_names(self) -> tuple[str, ...]:
        if not self.labels:
            raise ValueError("empty RCS")
        return self.labels[0].model_names

    def _sync_store(self) -> None:
        """Attach the int8 store once membership reaches the threshold."""
        if self._store is None and serves_int8(self._size, self.ann_config):
            self._store = QuantizedStore(self.embeddings, self.quantization)

    def add(self, embedding: np.ndarray, label: ScoreLabel) -> None:
        embedding = _as_float_matrix(embedding).ravel()
        require_finite_embeddings(embedding, "RCS embedding")
        dim = embedding.shape[0]
        if self._size == 0:
            if self._buffer.shape[1] != dim or len(self._buffer) == 0:
                self._buffer = np.zeros((max(4, len(self._buffer)), dim),
                                        dtype=embedding.dtype)
        elif self._buffer.shape[1] != dim:
            raise ValueError(
                f"embedding dimension {dim} != RCS dimension "
                f"{self._buffer.shape[1]}")
        if self._size == len(self._buffer):
            grown = np.zeros((max(4, 2 * len(self._buffer)), dim),
                             dtype=self._buffer.dtype)
            grown[:self._size] = self._buffer[:self._size]
            self._buffer = grown
        self._buffer[self._size] = embedding
        self._size += 1
        self.labels.append(label)
        self._score_cache.clear()
        self._sq_norms = None
        self._nn_distances = None
        if self._store is not None:
            # Requantization hook: the store quantizes the appended row
            # under its frozen calibration and reports drift (clipping /
            # gross outliers), at which point the scale and zero-points are
            # recalibrated from the live corpus.
            if self._store.add(embedding):
                self._store.recalibrate(self.embeddings)
        else:
            self._sync_store()

    def replace_embeddings(self, embeddings: np.ndarray) -> None:
        """Refresh stored embeddings after the encoder is retrained."""
        embeddings = _as_float_matrix(embeddings)
        require_finite_embeddings(embeddings, "RCS embeddings")
        if len(embeddings) != len(self.labels):
            raise ValueError("embedding count must match labels")
        self._buffer = np.array(embeddings, dtype=embeddings.dtype)
        self._size = len(embeddings)
        self._score_cache.clear()
        self._sq_norms = None
        self._nn_distances = None
        if self._store is not None:
            # Retrained embeddings land on new geometry; the old calibration
            # is meaningless, so requantize the whole corpus.
            self._store.recalibrate(self.embeddings)
        else:
            self._sync_store()

    def search(self, queries: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest members per query: ([Q, k] indices, [Q, k] distances)."""
        queries = _as_float_matrix(queries)
        k = min(k, self._size)
        if self._store is None:
            return exact_search(queries, self.embeddings, k,
                                self.squared_norms_for(queries))
        return self._store.search(queries, self.embeddings, k)

    def score_matrix(self, accuracy_weight: float) -> np.ndarray:
        """Memoized [N, m] matrix of member score vectors at one weight."""
        key = float(accuracy_weight)
        cached = self._score_cache.get(key)
        if cached is None or len(cached) != len(self.labels):
            cached = np.stack(
                [label.score_vector(key) for label in self.labels])
            self._score_cache[key] = cached
        return cached

    def squared_norms_for(self, queries: np.ndarray) -> np.ndarray | None:
        """The members' squared norms ``(E * E).sum(axis=1)``, for a
        distance pass from ``queries`` to the members.

        Computed on the first call per RCS state and returned read-only
        from then on, so the exact scan and the drift check stop summing
        them per request; :meth:`add` and :meth:`replace_embeddings` drop
        the memo.  Returns None when ``queries`` are not of the RCS's
        dtype: the kernel then meets them on another precision tier and
        computes the norms there, as it would without the memo.
        """
        if queries.dtype != self._buffer.dtype:
            return None
        if self._sq_norms is None:
            embeddings = self.embeddings
            norms = (embeddings * embeddings).sum(axis=1)
            norms.flags.writeable = False
            self._sq_norms = norms
        return self._sq_norms

    def nearest_neighbor_distances(self) -> np.ndarray:
        """Distance of each member to its nearest other member.

        Computed on the first call per RCS state and returned read-only
        from then on, so the N×N kernel runs once per state rather than
        once per drift check.  The memo is dropped, never patched in
        place, by :meth:`add` and :meth:`replace_embeddings`: a 1×N
        product need not equal the N×N GEMM's row bit for bit.
        """
        if self._nn_distances is None:
            if len(self) < 2:
                distances = np.zeros(len(self), dtype=self._buffer.dtype)
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
