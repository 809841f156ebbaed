"""Figure 10: advisor efficacy on the real-world suites (IMDB-20, STATS-20).

All advisors are trained on the synthetic corpus only; the 20 random
sub-schemas per real-world clone are completely unseen.  Expected shape:
AutoCE's mean D-error is several times lower than MLP / Rule / Sampling /
Knn on both suites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.selection_baselines import OnlineSelectorConfig, SamplingSelector
from .common import ExperimentSuite, format_table, get_suite

ADVISORS = ("AutoCE", "MLP", "Rule", "Sampling", "Knn")
WEIGHTS = (1.0, 0.9, 0.7)


@dataclass
class Fig10Result:
    #: mean_d_error[suite][advisor]
    mean_d_error: dict[str, dict[str, float]]
    text: str


def run(suite: ExperimentSuite | None = None,
        max_sampling_datasets: int = 6) -> Fig10Result:
    suite = suite or get_suite()
    autoce = suite.autoce()
    mlp = suite.baseline("MLP")
    rule = suite.baseline("Rule")
    knn = suite.baseline("Knn")
    sampling = SamplingSelector(OnlineSelectorConfig(seed=suite.seed))

    result: dict[str, dict[str, float]] = {}
    for suite_name, loader in (("IMDB-20", suite.imdb20),
                               ("STATS-20", suite.stats20)):
        datasets, graphs, labels = loader()
        errors = {a: [] for a in ADVISORS}
        for i, (dataset, graph, label) in enumerate(zip(datasets, graphs, labels)):
            for w in WEIGHTS:
                errors["AutoCE"].append(
                    label.d_error(autoce.recommend(graph, w).model, w))
                errors["MLP"].append(label.d_error(mlp.recommend(graph, w), w))
                errors["Rule"].append(label.d_error(rule.recommend(graph, w), w))
                errors["Knn"].append(label.d_error(knn.recommend(graph, w), w))
                if i < max_sampling_datasets:
                    errors["Sampling"].append(
                        label.d_error(sampling.recommend_dataset(dataset, w), w))
        result[suite_name] = {a: float(np.mean(errs))
                              for a, errs in errors.items() if errs}

    rows = [[a, result["IMDB-20"].get(a, float("nan")),
             result["STATS-20"].get(a, float("nan"))] for a in ADVISORS]
    text = format_table(
        ["advisor", "IMDB-20 mean D-error", "STATS-20 mean D-error"],
        rows, title="Figure 10: efficacy on real-world datasets")
    return Fig10Result(result, text)
