"""The flat int8 candidate tier.

Rankings survive quantization because the DML metric space only needs
neighbor *order*, not distances: :class:`QuantizedStore` ranks the
corpus in int8 code space (exact integer arithmetic up to
``INT8_EXACT_MAX_DIM`` dims) and only the top ``k · overfetch``
candidates reach the float-tier re-rank (:func:`rerank_candidates`), so
returned distances stay float-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (_as_float_matrix, _common_dtype, exact_search,
                      top_k_neighbors)

#: Widest embedding whose assembled int8 code distance (4 · d · 127²) still
#: fits float32's 24-bit mantissa — the exactness bound of the float32
#: GEMM the int8 kernel runs on; wider stores run a float64 GEMM.
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
    #: quantization error alone.
    overfetch: int = 8


def rerank_candidates(queries: np.ndarray, embeddings: np.ndarray,
                      candidates: np.ndarray, k: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Float-tier exact re-rank of per-query candidate lists.

    ``candidates`` is [Q, P] member indices, ascending within each row (the
    order the lowest-index tie-break of :func:`top_k_neighbors` relies on),
    so returned distances are always float-tier exact whatever the codes
    that selected the pool.
    """
    dtype = _common_dtype(queries, embeddings)
    queries = queries.astype(dtype, copy=False)
    gathered = embeddings[candidates].astype(dtype, copy=False)
    dots = (gathered @ queries[:, :, None])[:, :, 0]
    if candidates.size >= len(embeddings):
        # One corpus-wide norm pass + a [Q, P] gather: bit-identical to the
        # per-candidate reduction (same per-row multiply-sum order) but
        # O(N·d) instead of O(Q·P·d) — the common case for batched serving,
        # where the candidate pools jointly cover the corpus many times.
        cast = np.asarray(embeddings, dtype=dtype)
        member_norms = (cast * cast).sum(axis=1)[candidates]
    else:
        member_norms = (gathered * gathered).sum(axis=2)
    query_norms = (queries * queries).sum(axis=1)
    sq = np.maximum(member_norms + query_norms[:, None] - 2.0 * dots, 0.0)
    # Rank the sqrt'd values, exactly as exact_search does: in float32 a
    # near-tie distinct in squared space can collapse to one value under
    # sqrt, and the lowest-index tie-break must see what exact_search
    # sees or the two paths return different k-sets at the boundary.
    distances = np.sqrt(sq)
    local = top_k_neighbors(distances, k)
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

    The distance kernel is int32-accumulated: every ``(c_a − c_b)²`` term is
    an integer and the full Gram-identity result ``‖c_a‖² + ‖c_b‖² −
    2·c_a·c_b`` is bounded by ``4 · d · 127² < 2²⁴`` for any ``d ≤ 260``, so
    a float32 GEMM over the codes performs the exact integer accumulation
    (every intermediate — cross term, norms and the assembled distance —
    fits the 24-bit mantissa) at BLAS speed — numpy has no fast int8 GEMM.
    Wider embeddings fall back to a float64 GEMM (exact below 2⁵³).  On top of the
    scan, :meth:`search` keeps the ``k · overfetch`` best candidates per
    query and re-ranks them against the float-tier embedding matrix, so
    returned distances are always float-tier exact.
    """

    #: Code layout tag (the serving CLI and tier reports read this).
    kind = "int8"

    def __init__(self, embeddings: np.ndarray,
                 config: QuantizationConfig | None = None) -> None:
        self.config = config or QuantizationConfig()
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
        # The assembled distance ‖c_a‖² + ‖c_b‖² − 2·c_a·c_b reaches
        # 4 · d · 127² and must fit the GEMM mantissa for the integer
        # arithmetic to be exact: 24 bits buy d ≤ 260 in float32, float64
        # covers the rest.
        self._gemm_dtype = np.dtype(
            np.float32 if dim <= INT8_EXACT_MAX_DIM else np.float64)
        self.codes = self.quantize(embeddings)      # [N, d] int8
        self._codes_float: np.ndarray | None = None  # [N, d] GEMM-tier memo
        codes = self.codes.astype(self._gemm_dtype)
        self._norms = (codes * codes).sum(axis=1)   # [N] ‖c‖² (float)

    def __len__(self) -> int:
        return len(self.codes)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Int8 codes of ``x`` under the store's calibration (clipping)."""
        raw = (np.asarray(_as_float_matrix(x), dtype=np.float64)
               - self.zero_point) / self.scale
        return np.clip(np.rint(raw), -127, 127).astype(np.int8)

    # -- the int32-accumulated candidate kernel --------------------------
    def code_distances(self, queries: np.ndarray) -> np.ndarray:
        """[Q, N] code-space squared distances of float-tier queries.

        Exact integer arithmetic end-to-end (see the class docstring for why
        the float32 GEMM qualifies); multiplied by ``scale²`` this is the
        dequantized squared Euclidean distance, but candidate selection only
        ranks, so the factor is never applied.

        The GEMM-tier view of the member codes is memoized on the first
        search: a single-query serving path must not pay an O(N·d) cast
        per call.  The memo trades the steady-state footprint back up to
        one float copy of the codes — resident-set-critical deployments can
        drop it after each search.
        """
        qcodes = self.quantize(queries).astype(self._gemm_dtype)
        cross = qcodes @ self._codes_gemm().T
        return self._norms[None, :] - 2.0 * cross \
            + (qcodes * qcodes).sum(axis=1)[:, None]

    def _codes_gemm(self) -> np.ndarray:
        """The memoized GEMM-tier view of the member codes."""
        if self._codes_float is None:
            self._codes_float = self.codes.astype(self._gemm_dtype)
        return self._codes_float

    def search(self, queries: np.ndarray, embeddings: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
        """Quantized candidate pass + float-tier re-rank.

        The int8 scan ranks the whole corpus in code space and keeps the
        ``k · overfetch`` best candidates per query — no square roots, no
        exact tie resolution, just one ``argpartition`` — then the float
        tier re-ranks that pool exactly (same tie-breaking as
        :func:`exact_search`, candidates pre-sorted by member index).

        ``embeddings`` are the float rows the store was built from.
        """
        embeddings = np.atleast_2d(np.asarray(embeddings))
        queries = _as_float_matrix(queries)
        n = len(embeddings)
        k = min(k, n)
        pool = k * max(self.config.overfetch, 1)
        if pool >= n:
            return exact_search(queries, embeddings, k)
        code_sq = self.code_distances(queries)
        candidates = np.argpartition(code_sq, pool - 1, axis=1)[:, :pool]
        candidates.sort(axis=1)
        return rerank_candidates(queries, embeddings, candidates, k)
