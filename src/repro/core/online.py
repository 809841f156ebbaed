"""Drift detection for online adapting (Sec. V-E).

Flags datasets whose feature-graph embedding is far from every RCS member
(data drift).  The caller labels such a dataset, typically with the CE
testbed, and adapts the advisor with ``AutoCE.adapt_online``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .serving import (RecommendationCandidateSet, _as_float_matrix,
                      squared_distance_matrix)


@dataclass
class DriftDetector:
    """Thresholded nearest-RCS-distance drift test.

    The threshold is the 90th percentile of the RCS members' own
    nearest-neighbor distances, exactly as described in Sec. V-E.  The RCS
    memoizes those distances for as long as it exists
    (:meth:`RecommendationCandidateSet.nearest_neighbor_distances`), and
    the detector memoizes the percentile over each such memo, so after the
    first check on each RCS a check costs one 1×N distance row — O(N·d) —
    over the members' memoized squared norms.
    """

    percentile: float = 90.0
    #: (the RCS's nearest-neighbor distance memo, percentile, threshold) of
    #: the last threshold computed; another RCS or percentile misses.
    _threshold_memo: tuple[np.ndarray, float, float] | None = field(
        default=None, init=False, repr=False, compare=False)

    def threshold(self, rcs: RecommendationCandidateSet) -> float:
        # A 0- or 1-member RCS has no meaningful nearest-neighbor spread
        # (``nearest_neighbor_distances`` degenerates to ``[0.0]`` for a
        # single member, which would flag *every* dataset as drifted), so
        # nothing counts as drift until there are at least two members.
        if len(rcs) < 2:
            return np.inf
        distances = rcs.nearest_neighbor_distances()
        memo = self._threshold_memo
        # The RCS returns one read-only array for its lifetime, so identity
        # is the RCS check; the memo's reference keeps its id from reuse.
        if memo is None or memo[0] is not distances \
                or memo[1] != self.percentile:
            memo = (distances, self.percentile,
                    float(np.percentile(distances, self.percentile)))
            self._threshold_memo = memo
        return memo[2]

    def distance_to_rcs(self, embedding: np.ndarray,
                        rcs: RecommendationCandidateSet) -> float:
        if len(rcs) == 0:
            return np.inf
        embedding = _as_float_matrix(embedding)
        sq = squared_distance_matrix(embedding, rcs.embeddings,
                                     rcs.squared_norms_for(embedding))
        return float(np.sqrt(sq.min()))

    def is_drifted(self, embedding: np.ndarray,
                   rcs: RecommendationCandidateSet) -> bool:
        return self.distance_to_rcs(embedding, rcs) > self.threshold(rcs)
