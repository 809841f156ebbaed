"""AutoCE core: feature graphs, GIN encoder, deep metric learning,
incremental learning, KNN recommendation and online adaptation."""

from .features import (column_features_matrix, equality_correlation_matrix,
                       table_feature_vector, join_correlation_matrix,
                       vertex_dimension, FEATURES_PER_COLUMN)
from .graph import (FeatureGraph, GraphTensorBatcher, build_feature_graph,
                    batch_graphs, DEFAULT_MAX_COLUMNS)
from .encoder import GINEncoder, GINLayer
from .losses import (weighted_contrastive_loss, basic_contrastive_loss,
                     cosine_similarity_matrix, positive_negative_masks,
                     pairwise_distances, pair_weights)
from .dml import DMLConfig, DMLTrainer
from .serving import (ANNConfig, INT8_EXACT_MAX_DIM, KNNPredictor,
                      QuantizationConfig, QuantizedStore,
                      Recommendation, RecommendationCandidateSet,
                      exact_search, rerank_candidates, serves_int8,
                      squared_distance_matrix, top_k_neighbors)
from .incremental import (IncrementalConfig, AugmentationResult,
                          collect_feedback, augment_with_mixup,
                          incremental_learning)
from .online import DriftDetector
from .advisor import AutoCE, AutoCEConfig
from .persistence import save_advisor, load_advisor, FORMAT_VERSION
from .selection_baselines import (SelectionBaseline, MLPSelector, RuleSelector,
                                  RawFeatureKnnSelector, SamplingSelector,
                                  LearningAllSelector, OnlineSelectorConfig)

__all__ = [
    "column_features_matrix", "equality_correlation_matrix",
    "table_feature_vector", "join_correlation_matrix", "vertex_dimension",
    "FEATURES_PER_COLUMN",
    "FeatureGraph", "GraphTensorBatcher", "build_feature_graph",
    "batch_graphs", "DEFAULT_MAX_COLUMNS",
    "GINEncoder", "GINLayer",
    "weighted_contrastive_loss", "basic_contrastive_loss",
    "cosine_similarity_matrix", "positive_negative_masks",
    "pairwise_distances", "pair_weights",
    "DMLConfig", "DMLTrainer",
    "ANNConfig", "KNNPredictor",
    "INT8_EXACT_MAX_DIM", "QuantizationConfig", "QuantizedStore",
    "Recommendation", "RecommendationCandidateSet",
    "exact_search", "rerank_candidates", "serves_int8",
    "squared_distance_matrix", "top_k_neighbors",
    "IncrementalConfig", "AugmentationResult", "collect_feedback",
    "augment_with_mixup", "incremental_learning",
    "DriftDetector",
    "AutoCE", "AutoCEConfig",
    "save_advisor", "load_advisor", "FORMAT_VERSION",
    "SelectionBaseline", "MLPSelector", "RuleSelector",
    "RawFeatureKnnSelector", "SamplingSelector", "LearningAllSelector",
    "OnlineSelectorConfig",
]
