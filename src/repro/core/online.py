"""Online adapting for unexpected data distributions (Sec. V-E).

Detects datasets whose feature-graph embedding is far from every member of
the RCS (data drift), obtains a ground-truth label for them via online
learning (the caller supplies a labeler — typically the CE testbed), adds
the new sample to the RCS, and updates the encoder with a few DML steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..testbed.scores import ScoreLabel
from .dml import DMLTrainer
from .graph import FeatureGraph
from .serving import RecommendationCandidateSet, squared_distance_matrix


@dataclass
class DriftDetector:
    """Thresholded nearest-RCS-distance drift test.

    The threshold is the 90th percentile of the RCS members' own
    nearest-neighbor distances, exactly as described in Sec. V-E.
    """

    percentile: float = 90.0

    def threshold(self, rcs: RecommendationCandidateSet) -> float:
        # A 0- or 1-member RCS has no meaningful nearest-neighbor spread
        # (``nearest_neighbor_distances`` degenerates to ``[0.0]`` for a
        # single member, which would flag *every* dataset as drifted), so
        # nothing counts as drift until there are at least two members.
        if len(rcs) < 2:
            return np.inf
        return float(np.percentile(rcs.nearest_neighbor_distances(),
                                   self.percentile))

    def distance_to_rcs(self, embedding: np.ndarray,
                        rcs: RecommendationCandidateSet) -> float:
        if len(rcs) == 0:
            return np.inf
        sq = squared_distance_matrix(embedding, rcs.embeddings)
        return float(np.sqrt(sq.min()))

    def is_drifted(self, embedding: np.ndarray,
                   rcs: RecommendationCandidateSet) -> bool:
        return self.distance_to_rcs(embedding, rcs) > self.threshold(rcs)


class OnlineAdapter:
    """Applies the three-step online adaptation of Sec. V-E."""

    def __init__(self, trainer: DMLTrainer, detector: DriftDetector | None = None,
                 update_epochs: int = 5) -> None:
        self.trainer = trainer
        self.detector = detector or DriftDetector()
        self.update_epochs = update_epochs

    def adapt(self, graph: FeatureGraph, label: ScoreLabel,
              graphs: list[FeatureGraph], labels: list[ScoreLabel],
              rcs: RecommendationCandidateSet) -> None:
        """Add a freshly labeled drifted dataset and update encoder + RCS."""
        graphs.append(graph)
        labels.append(label)
        self.trainer.train(graphs, labels, epochs=self.update_epochs)
        rcs.labels = list(labels)
        rcs.replace_embeddings(self.trainer.encoder.embed(graphs))
