"""Figure 8: AutoCE vs the four selection strategies across weights.

For every accuracy weight w_a from 1.0 down to 0.1, each advisor selects a
model per held-out dataset; we report (a) mean Q-error of the selected
models, (b) mean inference latency of the selected models, and (c) mean
D-error.  Expected shape: AutoCE has the lowest D-error everywhere; Rule is
the worst; Sampling is unstable; Knn sits between Rule and MLP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.selection_baselines import OnlineSelectorConfig, SamplingSelector
from .common import ExperimentSuite, format_table, get_suite

WEIGHTS = tuple(round(0.1 * i, 1) for i in range(10, 0, -1))
ADVISORS = ("AutoCE", "MLP", "Rule", "Sampling", "Knn")


@dataclass
class Fig8Result:
    #: d_error[advisor][w_a] etc.
    d_error: dict[str, dict[float, float]]
    q_error: dict[str, dict[float, float]]
    latency_ms: dict[str, dict[float, float]]
    text: str


def _selected_metrics(label, model: str):
    idx = label.index_of(model)
    return float(label.qerror_means[idx]), float(label.latency_means[idx]) * 1000


def run(suite: ExperimentSuite | None = None,
        weights: tuple[float, ...] = WEIGHTS,
        max_sampling_datasets: int = 10) -> Fig8Result:
    suite = suite or get_suite()
    graphs, labels = suite.test_graphs_and_labels()
    entries = suite.test_corpus()

    autoce = suite.autoce()
    mlp = suite.baseline("MLP")
    rule = suite.baseline("Rule")
    knn = suite.baseline("Knn")
    sampling = SamplingSelector(OnlineSelectorConfig(seed=suite.seed))

    # Sampling is online learning per dataset — bound its dataset count.
    sampling_count = min(max_sampling_datasets, len(entries))

    d_error = {a: {} for a in ADVISORS}
    q_error = {a: {} for a in ADVISORS}
    latency = {a: {} for a in ADVISORS}
    for w in weights:
        per_advisor = {a: [] for a in ADVISORS}
        for i, (graph, label) in enumerate(zip(graphs, labels)):
            selections = {
                "AutoCE": autoce.recommend(graph, w).model,
                "MLP": mlp.recommend(graph, w),
                "Rule": rule.recommend(graph, w),
                "Knn": knn.recommend(graph, w),
            }
            if i < sampling_count:
                selections["Sampling"] = sampling.recommend_dataset(
                    entries[i].dataset(), w)
            for advisor, model in selections.items():
                q, lat = _selected_metrics(label, model)
                per_advisor[advisor].append(
                    (label.d_error(model, w), q, lat))
        for advisor in ADVISORS:
            rows = per_advisor[advisor]
            if not rows:
                continue
            arr = np.array(rows)
            d_error[advisor][w] = float(arr[:, 0].mean())
            q_error[advisor][w] = float(arr[:, 1].mean())
            latency[advisor][w] = float(arr[:, 2].mean())

    table_rows = []
    for advisor in ADVISORS:
        for w in weights:
            if w in d_error[advisor]:
                table_rows.append([advisor, w, d_error[advisor][w],
                                   q_error[advisor][w], latency[advisor][w]])
    text = format_table(
        ["advisor", "w_a", "mean D-error", "mean Q-error (selected)",
         "mean latency ms (selected)"],
        table_rows,
        title="Figure 8: AutoCE vs selection strategies across metric weights")
    return Fig8Result(d_error, q_error, latency, text)
