"""Shipping a trained advisor: train once offline, serve anywhere.

The deployment split of the paper's Fig. 2: an offline node pays the
labeling + DML training cost once and exports the advisor as a single
``.npz`` artifact; serving nodes load it and answer recommendations in
milliseconds with no access to the training corpus.  The same artifact
keeps enough state for the serving node to run drift detection and online
adaptation (Sec. V-E).

Run:  python examples/advisor_shipping.py
"""

import os
import tempfile
import time

from repro.core import AutoCE, AutoCEConfig, DMLConfig, load_advisor, save_advisor
from repro.datagen import generate_dataset, random_spec
from repro.experiments.corpus import label_one
from repro.testbed import TestbedConfig

TESTBED = TestbedConfig(num_train_queries=100, num_test_queries=20,
                        sample_size=600, made_epochs=3)


def offline_training_node(path: str) -> None:
    print("[offline node] labeling 10 datasets and training the advisor...")
    entries = [label_one(random_spec(i), TESTBED) for i in range(10)]
    advisor = AutoCE(AutoCEConfig(dml=DMLConfig(epochs=20)))
    advisor.fit([e.graph for e in entries], [e.label for e in entries])
    save_advisor(advisor, path)
    size_kb = os.path.getsize(path) / 1024
    print(f"[offline node] exported advisor to {path} ({size_kb:.0f} KiB)")


def serving_node(path: str) -> None:
    print("\n[serving node] loading the advisor artifact...")
    advisor = load_advisor(path)

    for i, weight in enumerate((1.0, 0.5, 0.1)):
        dataset = generate_dataset(random_spec(40_000 + i))
        start = time.perf_counter()
        graph = advisor.featurize(dataset)
        rec = advisor.recommend(graph, accuracy_weight=weight)
        elapsed_ms = (time.perf_counter() - start) * 1000
        drift = "drifted!" if advisor.is_drifted(graph) else "in-distribution"
        print(f"[serving node] tenant-{i} (w_a={weight}): {rec.model:10s} "
              f"in {elapsed_ms:.1f} ms  [{drift}]")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "advisor.npz")
        offline_training_node(path)
        serving_node(path)
    print("\nThe artifact is self-contained: no corpus, no cache, no "
          "retraining on the serving path.")


if __name__ == "__main__":
    main()
