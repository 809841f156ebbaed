"""Model registry: the candidate set M of the CE-model selection problem.

The paper's testbed implements seven learned CE models — three query-driven
(MSCN, LW-NN, LW-XGB), three data-driven (DeepDB, BayesCard, NeuroCard) and
one hybrid (UAE).  The Postgres estimator and the Ensemble are additional
comparison baselines (Fig. 9) but not selection candidates.

The registry is extensible: ``register`` adds a new estimator class and it
immediately becomes selectable by AutoCE (Sec. IV-B1: "any newly-emerged CE
model ... can be readily incorporated").
"""

from __future__ import annotations

from .base import CEModel
from .bayescard import BayesCard
from .deepdb import DeepDB
from .fspn import FLAT
from .lwnn import LWNN
from .lwxgb import LWXGB
from .mscn import MSCN
from .neurocard import NeuroCard
from .postgres import PostgresEstimator
from .uae import UAE

#: Candidate models in the canonical order used by score vectors.
CANDIDATE_MODELS: list[str] = [
    "BayesCard", "DeepDB", "NeuroCard", "MSCN", "LW-NN", "LW-XGB", "UAE",
]

QUERY_DRIVEN_MODELS: list[str] = ["MSCN", "LW-NN", "LW-XGB"]
DATA_DRIVEN_MODELS: list[str] = ["BayesCard", "DeepDB", "NeuroCard"]
HYBRID_MODELS: list[str] = ["UAE"]

_REGISTRY: dict[str, type[CEModel]] = {
    "BayesCard": BayesCard,
    "DeepDB": DeepDB,
    "NeuroCard": NeuroCard,
    "MSCN": MSCN,
    "LW-NN": LWNN,
    "LW-XGB": LWXGB,
    "UAE": UAE,
    "FLAT": FLAT,
    "Postgres": PostgresEstimator,
}


def register(name: str, model_class: type[CEModel]) -> None:
    """Add a custom estimator to the candidate registry."""
    if not issubclass(model_class, CEModel):
        raise TypeError(f"{model_class!r} is not a CEModel subclass")
    _REGISTRY[name] = model_class
    if name not in CANDIDATE_MODELS:
        CANDIDATE_MODELS.append(name)


def available_models() -> list[str]:
    return list(_REGISTRY)


def build_model(name: str) -> CEModel:
    if name not in _REGISTRY:
        raise KeyError(f"unknown CE model {name!r}; known: {available_models()}")
    return _REGISTRY[name]()
