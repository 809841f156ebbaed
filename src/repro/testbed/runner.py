"""The unified CE testbed (Sec. IV-B1): train, test and time every model.

Implements the paper's four labeling steps for one dataset: (1) generate a
workload, (2) obtain true cardinalities (exact counting), (3) train the
candidate CE models — data-driven ones from join samples, query-driven ones
from encoded training queries — and (4) measure per-model mean Q-error and
mean inference latency on the testing queries, yielding the dataset's
:class:`~repro.testbed.scores.DatasetLabel`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..ce.base import CEModel, TrainingContext
from ..ce.bayescard import BayesCard, BayesCardConfig
from ..ce.deepdb import DeepDB, DeepDBConfig
from ..ce.lwnn import LWNN, LWNNConfig
from ..ce.lwxgb import LWXGB, LWXGBConfig
from ..ce.mscn import MSCN, MSCNConfig
from ..ce.neurocard import NeuroCard, NeuroCardConfig
from ..ce.registry import CANDIDATE_MODELS
from ..ce.uae import UAE, UAEConfig
from ..db.schema import Dataset
from ..workload.generator import Workload, generate_workload
from .metrics import qerror
from .scores import DatasetLabel


@dataclass
class TestbedConfig:
    """Knobs trading labeling fidelity for CPU time.

    The defaults are sized so that labeling one dataset takes a couple of
    seconds on a laptop CPU while preserving the accuracy/latency orderings
    between model families.
    """

    #: Not a test class, though its name starts with "Test" (pytest
    #: would otherwise try to collect it wherever it is imported).
    __test__ = False

    num_train_queries: int = 300
    num_test_queries: int = 40
    sample_size: int = 1200
    mscn_epochs: int = 60
    lwnn_epochs: int = 100
    made_epochs: int = 8
    made_hidden: int = 32
    made_samples: int = 64
    #: Inference-latency repetitions per query; the minimum is kept.  A
    #: single-shot timing fluctuates 2–4x between runs (scheduler jitter,
    #: allocator state), which would bake irreducible noise into the
    #: efficiency half of every label.
    latency_reps: int = 3
    #: Run one untimed estimation pass first so lazily-fitted sub-models
    #: and cold caches don't inflate the first query's latency.
    warmup: bool = True
    #: Also measure the Postgres estimator and the weighted Ensemble
    #: (comparison baselines of Fig. 9 — not selection candidates).
    include_baselines: bool = False
    #: Training queries used to compute the Ensemble's accuracy weights.
    ensemble_weight_queries: int = 60
    seed: int = 0

    def build_candidates(self) -> dict[str, CEModel]:
        """Instantiate the seven candidate models with config-scaled budgets."""
        neuro = NeuroCardConfig(hidden=self.made_hidden, epochs=self.made_epochs,
                                num_samples=self.made_samples, seed=self.seed)
        uae = UAEConfig(hidden=self.made_hidden, epochs=self.made_epochs,
                        num_samples=self.made_samples, seed=self.seed)
        return {
            "BayesCard": BayesCard(BayesCardConfig(seed=self.seed)),
            "DeepDB": DeepDB(DeepDBConfig(seed=self.seed)),
            "NeuroCard": NeuroCard(neuro),
            "MSCN": MSCN(MSCNConfig(epochs=self.mscn_epochs, seed=self.seed)),
            "LW-NN": LWNN(LWNNConfig(epochs=self.lwnn_epochs, seed=self.seed)),
            "LW-XGB": LWXGB(LWXGBConfig(seed=self.seed)),
            "UAE": UAE(uae),
        }


@dataclass
class ModelPerformance:
    """Measured performance of one model on one dataset."""

    name: str
    qerror_mean: float
    qerror_median: float
    latency_mean: float
    fit_time: float
    qerror_p95: float = float("nan")
    qerror_p99: float = float("nan")
    estimates: np.ndarray = field(repr=False, default=None)


def evaluate_model(model: CEModel, ctx: TrainingContext,
                   latency_reps: int = 3, warmup: bool = True) -> ModelPerformance:
    """Fit one model and measure Q-error + per-query inference latency.

    Latency is the per-query minimum over ``latency_reps`` timed repetitions
    (after an optional warm-up pass), the standard robust wall-clock
    protocol: the minimum estimates the true cost with the least scheduler
    and allocator noise, keeping the efficiency half of the label stable
    across labeling runs.
    """
    start = time.perf_counter()
    model.fit(ctx)
    fit_time = time.perf_counter() - start

    test = ctx.workload.test
    true = np.array([q.true_cardinality for q in test], dtype=np.float64)
    estimates = np.empty(len(test))
    latencies = np.full(len(test), np.inf)
    if warmup:
        for query in test:
            model.estimate(query)
    for _ in range(max(1, latency_reps)):
        for i, query in enumerate(test):
            t0 = time.perf_counter()
            estimates[i] = model.estimate(query)
            elapsed = time.perf_counter() - t0
            if elapsed < latencies[i]:
                latencies[i] = elapsed
    errors = qerror(estimates, true)
    return ModelPerformance(
        name=model.name,
        qerror_mean=float(errors.mean()),
        qerror_median=float(np.median(errors)),
        latency_mean=float(latencies.mean()),
        fit_time=fit_time,
        qerror_p95=float(np.percentile(errors, 95)),
        qerror_p99=float(np.percentile(errors, 99)),
        estimates=estimates,
    )


def run_testbed(dataset: Dataset, workload: Workload | None = None,
                config: TestbedConfig | None = None,
                model_names: list[str] | None = None) -> DatasetLabel:
    """Label one dataset: the full Stage-1 testbed pass."""
    config = config or TestbedConfig()
    if workload is None:
        workload = generate_workload(
            dataset, num_train=config.num_train_queries,
            num_test=config.num_test_queries, seed=config.seed)
    ctx = TrainingContext.build(dataset, workload, seed=config.seed,
                                sample_size=config.sample_size)
    candidates = config.build_candidates()
    names = model_names if model_names is not None else list(CANDIDATE_MODELS)
    performances = []
    fitted = []
    for name in names:
        if name not in candidates:
            # Custom models added via repro.ce.register are built from the
            # registry with their default configuration.
            from ..ce.registry import _REGISTRY
            if name not in _REGISTRY:
                raise KeyError(f"testbed has no candidate named {name!r}")
            candidates[name] = _REGISTRY[name]()
        performances.append(evaluate_model(
            candidates[name], ctx, latency_reps=config.latency_reps,
            warmup=config.warmup))
        fitted.append(candidates[name])

    all_names = list(names)
    if config.include_baselines:
        from ..ce.ensemble import EnsembleCE
        from ..ce.postgres import PostgresEstimator

        performances.append(evaluate_model(
            PostgresEstimator(), ctx, latency_reps=config.latency_reps,
            warmup=config.warmup))
        all_names.append("Postgres")
        # The Ensemble reuses the already-fitted candidates; cap the number
        # of training queries used to compute its weights.
        weight_workload = Workload(
            ctx.workload.dataset_name,
            ctx.workload.train[:config.ensemble_weight_queries],
            ctx.workload.test)
        ensemble_ctx = TrainingContext(
            dataset=ctx.dataset, workload=weight_workload,
            encoder=ctx.encoder, samples=ctx.samples, seed=ctx.seed,
            sample_size=ctx.sample_size)
        performances.append(evaluate_model(
            EnsembleCE(fitted), ensemble_ctx,
            latency_reps=config.latency_reps, warmup=config.warmup))
        all_names.append("Ensemble")

    return DatasetLabel(
        model_names=tuple(all_names),
        qerror_means=np.array([p.qerror_mean for p in performances]),
        latency_means=np.array([p.latency_mean for p in performances]),
        qerror_medians=np.array([p.qerror_median for p in performances]),
        fit_times=np.array([p.fit_time for p in performances]),
        qerror_p95=np.array([p.qerror_p95 for p in performances]),
        qerror_p99=np.array([p.qerror_p99 for p in performances]),
    )
