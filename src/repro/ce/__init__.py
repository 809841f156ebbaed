"""Cardinality estimation model zoo.

Seven learned candidate models (MSCN, LW-NN, LW-XGB, DeepDB, BayesCard,
NeuroCard, UAE) plus the Postgres histogram baseline and a weighted
Ensemble, all implemented from scratch on numpy.
"""

from .base import CEModel, TrainingContext, clip_card
from .postgres import PostgresEstimator
from .mscn import MSCN, MSCNConfig
from .lwnn import LWNN, LWNNConfig
from .lwxgb import LWXGB, LWXGBConfig
from .gbdt import GradientBoostedTrees, RegressionTree
from .deepdb import DeepDB, DeepDBConfig
from .bayescard import BayesCard, BayesCardConfig
from .neurocard import NeuroCard, NeuroCardConfig
from .uae import UAE, UAEConfig
from .ensemble import EnsembleCE
from .fspn import FLAT, FLATConfig, MultiLeaf, build_fspn
from .made import MADE
from .spn import build_spn, SPNConfig
from .chow_liu import ChowLiuTree, mutual_information
from .discretize import Discretizer
from .histograms import ValueHistogram
from .registry import (
    CANDIDATE_MODELS, QUERY_DRIVEN_MODELS, DATA_DRIVEN_MODELS, HYBRID_MODELS,
    register, available_models, build_model,
)

__all__ = [
    "CEModel", "TrainingContext", "clip_card",
    "PostgresEstimator", "MSCN", "MSCNConfig", "LWNN", "LWNNConfig",
    "LWXGB", "LWXGBConfig", "GradientBoostedTrees", "RegressionTree",
    "DeepDB", "DeepDBConfig", "BayesCard", "BayesCardConfig",
    "NeuroCard", "NeuroCardConfig", "UAE", "UAEConfig", "EnsembleCE",
    "FLAT", "FLATConfig", "MultiLeaf", "build_fspn",
    "MADE", "build_spn", "SPNConfig", "ChowLiuTree", "mutual_information",
    "Discretizer", "ValueHistogram",
    "CANDIDATE_MODELS", "QUERY_DRIVEN_MODELS", "DATA_DRIVEN_MODELS",
    "HYBRID_MODELS", "register", "available_models", "build_model",
]
