"""The flat int8 candidate tier.

Rankings survive quantization because the DML metric space only needs
neighbor *order*, not distances: :class:`QuantizedStore` ranks the
corpus in int8 code space and only the top ``k · overfetch`` candidates
reach the float-tier re-rank (:func:`rerank_candidates`), so returned
distances stay float-exact.

The code scan is one exact GEMM per search
(:meth:`QuantizedStore.rank_keys`).  Its rank keys ``‖c‖² − 2·q·c`` and
every partial sum behind them are integers of magnitude at most
``3 · d · 127²``, below 2²⁴ (float32's mantissa) for ``d ≤
INT8_EXACT_MAX_DIM``, so float32 holds them exactly in any summation
order; wider stores run the GEMM in float64.  Each key is the code-space
squared distance ``‖q − c‖²`` less the per-query constant ``‖q‖²``, so
the comparison-only ``argpartition`` that picks the pool returns the
candidates, in the order, that the code distances would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _as_float_matrix, _common_dtype, exact_search

#: Widest embedding searched by a float32 GEMM.  Its keys need only
#: ``3 · d · 127² < 2²⁴``; at ``d ≤ 260`` the code distance itself (a key
#: plus ``‖q‖²``, up to ``4 · d · 127²``) fits float32's mantissa too.
#: Wider stores run a float64 GEMM.
INT8_EXACT_MAX_DIM = 260


@dataclass
class QuantizationConfig:
    """Parameters of the flat int8 candidate tier.

    Serving only needs neighbor *rankings* to survive — the DML metric space
    (Eq. 9) is trained so that rank order, not absolute distance, carries the
    recommendation signal — which is exactly what a low-precision candidate
    pass exploits: scan the whole corpus in int8 codes, keep the top
    ``k · overfetch`` candidates, and re-rank only those in the float tier.
    Whether the tier is attached at all is the RCS size rule
    (:func:`~repro.core.serving.store.serves_int8`).
    """

    #: Candidate pool per query = ``k · overfetch``; the float-tier re-rank
    #: only sees this many members, so recall failures require the true
    #: neighbor to be pushed past ``k · (overfetch − 1)`` impostors by
    #: quantization error alone.  At least 1.
    overfetch: int = 8


def rerank_candidates(queries: np.ndarray, embeddings: np.ndarray,
                      candidates: np.ndarray, k: int,
                      sq_norms: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Float-tier exact re-rank of per-query candidate lists.

    ``candidates`` is [Q, P] member indices, ascending within each row, so
    the stable sort's tie-break by position is the lowest-index tie-break
    of :func:`~repro.core.serving.kernels.top_k_neighbors`, and the k
    returned per row are the ones it would return.  Returned distances are
    always float-tier exact whatever the codes that selected the pool.

    ``sq_norms``: the members' squared norms ``(E * E).sum(axis=1)`` on
    the tier the queries and rows meet at, from the RCS's memo
    (:meth:`~repro.core.serving.store.RecommendationCandidateSet.squared_norms_for`).
    Without it each candidate's norm is summed from its gathered row,
    which gives the same bits.
    """
    dtype = _common_dtype(queries, embeddings)
    queries = queries.astype(dtype, copy=False)
    gathered = embeddings[candidates].astype(dtype, copy=False)
    dots = (gathered @ queries[:, :, None])[:, :, 0]
    if sq_norms is None:
        member_norms = (gathered * gathered).sum(axis=2)
    else:
        member_norms = sq_norms[candidates]
    query_norms = (queries * queries).sum(axis=1)
    sq = np.maximum(member_norms + query_norms[:, None] - 2.0 * dots, 0.0)
    # Rank the sqrt'd values, exactly as exact_search does: in float32 a
    # near-tie distinct in squared space can collapse to one value under
    # sqrt, and the lowest-index tie-break must see what exact_search
    # sees or the two paths return different k-sets at the boundary.
    distances = np.sqrt(sq)
    local = np.argsort(distances, axis=1, kind="stable")[:, :k]
    return (np.take_along_axis(candidates, local, axis=1),
            np.take_along_axis(distances, local, axis=1))


class QuantizedStore:
    """Symmetric int8 codes of the RCS embeddings + the candidate kernel,
    built once from the rows they quantize.

    Layout: per-dimension zero-points (the midrange of each dimension over
    the corpus) with one shared symmetric scale.  The shared
    scale is deliberate — it is the only int8 layout whose code-space
    distances are *exactly proportional* to dequantized Euclidean distances
    (``‖x̂_a − x̂_b‖² = scale² · Σ(c_a − c_b)²``; the zero-points cancel),
    so candidate rankings in pure integer arithmetic are the dequantized
    float rankings.  Per-dimension scales would shrink the per-dimension
    rounding error but warp the metric into a range-whitened space, which is
    precisely what the DML embedding geometry must not be searched in.

    The candidate kernel is one GEMM of ``[q | 1]`` by the operand
    ``[−2·c ; ‖c‖²]``, built here at the GEMM dtype: float32 up to
    ``INT8_EXACT_MAX_DIM`` dims, float64 past it (numpy has no fast int8
    GEMM).  Each product, partial sum and result is an integer of
    magnitude at most ``3 · d · 127²`` (``d·127²`` for ``‖c‖²`` plus
    ``2·d·127²`` for the cross terms), below 2²⁴ at ``d ≤ 260``, so the
    float GEMM is exact integer arithmetic in any summation order.  The
    result, :meth:`rank_keys`, is each code distance ``‖q − c‖²`` less
    ``‖q‖²`` exactly; a row's keys compare as its code distances do, so
    :meth:`search`'s ``argpartition`` keeps the same ``k · overfetch``
    candidates the code distances would give.  It then re-ranks them
    against the float-tier embedding matrix, so returned distances are
    always float-tier exact.
    """

    #: Code layout tag (the serving CLI and tier reports read this).
    kind = "int8"

    def __init__(self, embeddings: np.ndarray,
                 config: QuantizationConfig | None = None) -> None:
        self.config = config or QuantizationConfig()
        if self.config.overfetch < 1:
            raise ValueError("quantization.overfetch must be at least 1, "
                             f"got {self.config.overfetch}")
        embeddings = _as_float_matrix(embeddings)
        n, dim = embeddings.shape
        if n:
            lo = embeddings.min(axis=0).astype(np.float64)
            hi = embeddings.max(axis=0).astype(np.float64)
        else:
            lo = hi = np.zeros(dim, dtype=np.float64)
        self.zero_point = (lo + hi) / 2.0           # [d] float64
        # Symmetric shared scale over the widest dimension; the floor keeps
        # a constant (or single-member, or empty) corpus at all-zero codes
        # instead of dividing by zero.
        self.scale = max(float(np.max(hi - self.zero_point, initial=0.0)),
                         1e-12) / 127.0
        self.codes = self.quantize(embeddings)      # [N, d] int8
        codes = self.codes.astype(
            np.float32 if dim <= INT8_EXACT_MAX_DIM else np.float64)
        # [d + 1, N], one column a member: −2·c over ‖c‖².
        self._key_operand = np.empty((dim + 1, n), dtype=codes.dtype)
        np.multiply(codes.T, -2.0, out=self._key_operand[:dim])
        self._key_operand[dim] = (codes * codes).sum(axis=1)

    def __len__(self) -> int:
        return len(self.codes)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Int8 codes of ``x`` under the store's calibration (clipping)."""
        raw = (np.asarray(_as_float_matrix(x), dtype=np.float64)
               - self.zero_point) / self.scale
        return np.clip(np.rint(raw), -127, 127).astype(np.int8)

    def rank_keys(self, queries: np.ndarray) -> np.ndarray:
        """[Q, N] rank keys ``‖c‖² − 2·q·c`` of float-tier queries, at the
        GEMM dtype: exact integers, each the code-space squared distance
        less ``‖q‖²`` (see the class docstring).  Multiplied by ``scale²``
        after adding ``‖q‖²`` they would be dequantized squared distances,
        but candidate selection only ranks, so neither is applied."""
        dim = len(self._key_operand) - 1
        codes = self.quantize(queries)
        lhs = np.ones((len(codes), dim + 1), dtype=self._key_operand.dtype)
        lhs[:, :dim] = codes
        return lhs @ self._key_operand

    def search(self, queries: np.ndarray, embeddings: np.ndarray, k: int,
               sq_norms: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """Quantized candidate pass + float-tier re-rank.

        The int8 scan ranks the whole corpus by :meth:`rank_keys` and keeps
        the ``k · overfetch`` best candidates per query — no square roots,
        no exact tie resolution, just one ``argpartition`` — then the float
        tier re-ranks that pool exactly (same tie-breaking as
        :func:`exact_search`, candidates pre-sorted by member index).

        ``embeddings`` are the float rows the store was built from;
        ``sq_norms``, their squared norms as :func:`rerank_candidates` and
        :func:`exact_search` take them.
        """
        embeddings = np.atleast_2d(np.asarray(embeddings))
        queries = _as_float_matrix(queries)
        n = len(embeddings)
        k = min(k, n)
        pool = k * self.config.overfetch
        if pool >= n:
            return exact_search(queries, embeddings, k, sq_norms)
        keys = self.rank_keys(queries)
        candidates = np.argpartition(keys, pool - 1, axis=1)[:, :pool]
        candidates.sort(axis=1)
        return rerank_candidates(queries, embeddings, candidates, k, sq_norms)
