"""The unified cardinality-estimation testbed (dataset labeling)."""

from .faults import FaultPlan
from .metrics import qerror
from .scores import DatasetLabel, ScoreLabel, minmax_scores, WEIGHT_GRID, SCORE_FLOOR
from .runner import TestbedConfig, ModelPerformance, evaluate_model, run_testbed

__all__ = [
    "FaultPlan",
    "qerror",
    "DatasetLabel", "ScoreLabel", "minmax_scores", "WEIGHT_GRID", "SCORE_FLOOR",
    "TestbedConfig", "ModelPerformance", "evaluate_model", "run_testbed",
]
