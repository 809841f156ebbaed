"""The unified cardinality-estimation testbed (dataset labeling)."""

from .metrics import qerror
from .scores import DatasetLabel, ScoreLabel, minmax_scores, WEIGHT_GRID, SCORE_FLOOR
from .runner import TestbedConfig, ModelPerformance, evaluate_model, run_testbed

__all__ = [
    "qerror",
    "DatasetLabel", "ScoreLabel", "minmax_scores", "WEIGHT_GRID", "SCORE_FLOOR",
    "TestbedConfig", "ModelPerformance", "evaluate_model", "run_testbed",
]
