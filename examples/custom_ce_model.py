"""Extend AutoCE with a custom cardinality estimator.

Sec. IV-B1: "any newly-emerged CE model ... can be readily incorporated".
This example registers a naive sampling-based estimator, labels datasets
with the extended candidate set, and shows the advisor selecting among the
eight models.

Run:  python examples/custom_ce_model.py
"""

import numpy as np

from repro.ce import CEModel, clip_card, register
from repro.core import AutoCE, AutoCEConfig, DMLConfig
from repro.datagen import generate_dataset, random_spec
from repro.db.counting import count_join
from repro.db.sampling import subsample_dataset
from repro.testbed import TestbedConfig, run_testbed
from repro.testbed.runner import evaluate_model
from repro.ce.base import TrainingContext
from repro.testbed.scores import DatasetLabel
from repro.workload import generate_workload


class SamplingCE(CEModel):
    """Estimate by exact counting on a 10 % sample (simple, unbiased-ish)."""

    name = "SamplingCE"

    def fit(self, ctx) -> None:
        self._sample = subsample_dataset(ctx.dataset, 0.1, seed=ctx.seed)
        self._scale = ctx.dataset.total_rows / max(1, self._sample.total_rows)

    def estimate(self, query) -> float:
        try:
            count = count_join(self._sample, query.tables,
                               query.predicate_tuples())
        except ValueError:
            return 1.0
        # Each joined table contributes roughly a 1/scale row fraction.
        return clip_card(count * self._scale ** len(query.tables))


def label_with_custom(spec, testbed):
    """Label a dataset with the 7 standard candidates + SamplingCE."""
    dataset = generate_dataset(spec)
    workload = generate_workload(dataset, testbed.num_train_queries,
                                 testbed.num_test_queries, seed=testbed.seed)
    ctx = TrainingContext.build(dataset, workload,
                                sample_size=testbed.sample_size)
    label = run_testbed(dataset, workload, config=testbed)
    custom = evaluate_model(SamplingCE(), ctx)
    return dataset, DatasetLabel(
        model_names=label.model_names + ("SamplingCE",),
        qerror_means=np.append(label.qerror_means, custom.qerror_mean),
        latency_means=np.append(label.latency_means, custom.latency_mean),
    )


def main() -> None:
    register("SamplingCE", SamplingCE)
    testbed = TestbedConfig(num_train_queries=80, num_test_queries=20,
                            sample_size=500, made_epochs=3)

    print("Labeling datasets with the extended candidate set (8 models)...")
    graphs, labels = [], []
    advisor = AutoCE(AutoCEConfig(dml=DMLConfig(epochs=20),
                                  use_incremental=False))
    for i in range(8):
        dataset, label = label_with_custom(random_spec(i), testbed)
        graphs.append(advisor.featurize(dataset))
        labels.append(label)
        print(f"  {dataset.name:16s} best(w_a=1.0) = {label.best_model(1.0)}")

    advisor.fit(graphs, labels)
    target = generate_dataset(random_spec(555))
    rec = advisor.recommend(target, accuracy_weight=0.8)
    print(f"\nrecommendation for an unseen dataset (w_a=0.8): {rec.model}")
    print("score vector:",
          {m: round(float(s), 2) for m, s in rec.ranking()})


if __name__ == "__main__":
    main()
