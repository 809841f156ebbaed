"""Incremental learning with Mixup data augmentation (Sec. VI, Algorithm 2).

Cross-validates the trained encoder over the original training data: for
each fold, the remaining folds form the RCS and every held-out sample is
recommended a model via KNN.  Samples whose recommendation has D-error
above the threshold ``b`` go to the *feedback* set; the rest form the
*reference* set.  Each feedback sample is then augmented by Mixup (Eq. 14)
with its nearest reference neighbor — interpolating both the padded feature
graphs and the labels with λ ~ Beta(α, β) — and the encoder is trained
incrementally on original + synthetic data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..testbed.scores import ScoreLabel
from ..utils.rng import rng_from_seed
from .dml import DMLTrainer
from .encoder import GINEncoder
from .graph import FeatureGraph
from .serving import (KNNPredictor, RecommendationCandidateSet,
                      squared_distance_matrix)


@dataclass
class IncrementalConfig:
    #: D-error threshold b separating feedback from reference samples.
    d_error_threshold: float = 0.1
    #: Number of cross-validation folds (ξ).
    folds: int = 5
    #: Beta(α, β) parameters for the Mixup λ.
    alpha: float = 2.0
    beta: float = 2.0
    #: Accuracy weight used when judging validation recommendations.
    accuracy_weight: float = 0.9
    #: Extra training epochs on the augmented data.
    epochs: int = 10
    knn_k: int = 2
    seed: int = 0


@dataclass
class AugmentationResult:
    """Feedback/reference split plus synthesized samples."""

    feedback_indices: list[int]
    reference_indices: list[int]
    new_graphs: list[FeatureGraph]
    new_labels: list[ScoreLabel]


def collect_feedback(encoder: GINEncoder, graphs: list[FeatureGraph],
                     labels: list[ScoreLabel],
                     config: IncrementalConfig) -> tuple[list[int], list[int]]:
    """Steps 3–12 of Algorithm 2: cross-validated feedback collection."""
    n = len(graphs)
    rng = rng_from_seed(config.seed)
    order = rng.permutation(n)
    folds = np.array_split(order, max(2, min(config.folds, n)))
    embeddings = encoder.embed(graphs)
    predictor = KNNPredictor(k=config.knn_k)

    feedback: list[int] = []
    reference: list[int] = []
    for fold in folds:
        fold_set = set(int(i) for i in fold)
        rest = [i for i in range(n) if i not in fold_set]
        if not rest:
            continue
        rcs = RecommendationCandidateSet(
            embeddings[rest], [labels[i] for i in rest])
        held_out = sorted(fold_set)
        recs = predictor.recommend_batch(
            embeddings[held_out], rcs, config.accuracy_weight)
        for i, rec in zip(held_out, recs):
            d_err = labels[i].d_error(rec.model, config.accuracy_weight, clip=None)
            if d_err > config.d_error_threshold:
                feedback.append(i)
            else:
                reference.append(i)
    return sorted(feedback), sorted(reference)


def augment_with_mixup(encoder: GINEncoder, graphs: list[FeatureGraph],
                       labels: list[ScoreLabel],
                       feedback: list[int], reference: list[int],
                       config: IncrementalConfig) -> AugmentationResult:
    """Steps 13–16: synthesize one Mixup sample per feedback sample."""
    rng = rng_from_seed(config.seed + 1)
    new_graphs: list[FeatureGraph] = []
    new_labels: list[ScoreLabel] = []
    if feedback and reference:
        embeddings = encoder.embed(graphs)
        # One [|feedback|, |reference|] Gram-identity distance matrix instead
        # of a Python loop of broadcast passes.
        sq = squared_distance_matrix(embeddings[feedback],
                                     embeddings[reference])
        nearest_ref = np.argmin(sq, axis=1)
        for i, r in zip(feedback, nearest_ref):
            j = reference[int(r)]
            lam = float(rng.beta(config.alpha, config.beta))
            new_graphs.append(graphs[i].mix_with(graphs[j], lam))
            new_labels.append(labels[i].mix_with(labels[j], lam))
    return AugmentationResult(feedback, reference, new_graphs, new_labels)


def incremental_learning(trainer: DMLTrainer, graphs: list[FeatureGraph],
                         labels: list[ScoreLabel],
                         config: IncrementalConfig | None = None,
                         augment: bool = True) -> AugmentationResult:
    """Full Algorithm 2: feedback → Mixup → incremental training.

    ``augment=False`` is the Fig. 11(b) "No Augmentation" ablation: the
    incremental training epochs still run but on the original data only.
    """
    config = config or IncrementalConfig()
    encoder = trainer.encoder
    feedback, reference = collect_feedback(encoder, graphs, labels, config)
    if not augment:
        trainer.train(graphs, labels, epochs=config.epochs)
        return AugmentationResult(feedback, reference, [], [])
    result = augment_with_mixup(encoder, graphs, labels, feedback, reference, config)
    if result.new_graphs:
        trainer.train(graphs + result.new_graphs, labels + result.new_labels,
                      epochs=config.epochs)
    return result
