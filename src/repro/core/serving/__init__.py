"""The serving package: kernels, the int8 candidate tier, the RCS + KNN
predictor, and the streaming daemon's micro-batch coalescer.

Layering (no cycles; each module imports only from those above it):

``kernels``
    Precision-tier-aware float substrate: Gram-identity distances,
    top-k selection, finiteness validation, :func:`exact_search`.
``quantizers``
    The flat int8 candidate tier (:class:`QuantizedStore`) and its
    float-tier re-rank.
``store``
    :class:`RecommendationCandidateSet` (built once from its rows, labels
    and tier config), :class:`KNNPredictor` and the one tier rule,
    :func:`serves_int8`.
``batching``
    :func:`iter_batches`, which turns ``repro serve --daemon``'s stdin
    stream into micro-batches; it imports none of the modules above.
"""

from .batching import iter_batches
from .kernels import (_FLOAT_DTYPES, _as_float_matrix, _common_dtype,
                      exact_search, require_finite_embeddings,
                      squared_distance_matrix, top_k_neighbors)
from .quantizers import (INT8_EXACT_MAX_DIM, QuantizationConfig,
                         QuantizedStore, rerank_candidates)
from .store import (ANNConfig, KNNPredictor, Recommendation,
                    RecommendationCandidateSet, serves_int8)

__all__ = [
    "iter_batches",
    "_FLOAT_DTYPES", "_as_float_matrix", "_common_dtype", "exact_search",
    "require_finite_embeddings", "squared_distance_matrix",
    "top_k_neighbors",
    "INT8_EXACT_MAX_DIM", "QuantizationConfig", "QuantizedStore",
    "rerank_candidates",
    "ANNConfig", "KNNPredictor", "Recommendation",
    "RecommendationCandidateSet", "serves_int8",
]
