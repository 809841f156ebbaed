"""Quickstart: train AutoCE on a small labeled corpus and get advice.

Walks the full pipeline of the paper's Fig. 3 in miniature:
  Stage 1  generate + label datasets with the CE testbed
  Stage 2/3  train the GIN encoder with deep metric learning (+ Mixup)
  Stage 4  recommend a CE model for an unseen dataset under user weights

Run:  python examples/quickstart.py
"""

from repro.core import AutoCE, AutoCEConfig, DMLConfig
from repro.datagen import generate_dataset, random_spec
from repro.experiments.corpus import label_one
from repro.testbed import TestbedConfig

# Small budgets so the example finishes in ~a minute on a laptop CPU.
TESTBED = TestbedConfig(num_train_queries=120, num_test_queries=25,
                        sample_size=800, made_epochs=4)
NUM_TRAINING_DATASETS = 12


def main() -> None:
    print("Stage 1: generating and labeling the training corpus")
    print("(each dataset is labeled by training & testing all 7 CE models)\n")
    entries = []
    for i in range(NUM_TRAINING_DATASETS):
        entry = label_one(random_spec(i), TESTBED)
        entries.append(entry)
        best = entry.label.best_model(1.0)
        print(f"  {entry.name:16s} tables={entry.graph.num_tables} "
              f"best(accuracy)={best}")

    print("\nStages 2-3: deep metric learning + incremental learning")
    advisor = AutoCE(AutoCEConfig(dml=DMLConfig(epochs=25)))
    advisor.fit([e.graph for e in entries], [e.label for e in entries])
    print(f"  trained encoder on {len(entries)} labeled datasets "
          f"(final DML loss {advisor.loss_history[-1]:.3f})")

    print("\nStage 4: recommendation for an unseen dataset")
    target = generate_dataset(random_spec(10_001))
    print(f"  target: {target.num_tables} tables, {target.total_rows} rows")
    for accuracy_weight in (1.0, 0.7, 0.3):
        rec = advisor.recommend(target, accuracy_weight=accuracy_weight)
        ranking = ", ".join(f"{m}={s:.2f}" for m, s in rec.ranking()[:3])
        print(f"  w_a={accuracy_weight:>3}: use {rec.model:10s} (top-3: {ranking})")

    # Batched serving: many targets share ONE GIN forward pass and one
    # vectorized KNN search; repeat traffic skips the GIN forward via the
    # embedding memo-cache (featurization still runs for raw Dataset inputs
    # — pass prebuilt FeatureGraphs to skip it too).
    print("\nBatched serving: a fleet of targets in one recommend_batch call")
    fleet = [generate_dataset(random_spec(20_000 + i)) for i in range(4)]
    recs = advisor.recommend_batch(fleet, accuracy_weight=0.9)
    for dataset, rec in zip(fleet, recs):
        print(f"  {dataset.name:16s} -> {rec.model}")
    cache = advisor.embedding_cache
    advisor.recommend_batch(fleet, accuracy_weight=0.9)  # all cache hits now
    print(f"  embedding cache: {cache.hits} hits / {cache.misses} misses")

    # Scale-out serving: ship the trained advisor to cheap, restartable
    # serving nodes.  A node restarted from load_advisor() serves the exact
    # same RCS rows without retraining (past AutoCEConfig().ann.threshold
    # members it quantizes them into the same int8 candidate codes); its
    # in-memory embedding cache refills on the first repeat of each dataset.
    # The same workflow from a shell:
    #
    #   python -m repro train --corpus 60 --fast --out advisor.npz
    #   python -m repro serve tenant_a.npz tenant_b.npz --advisor advisor.npz
    #   ls tenant_*.npz | python -m repro serve --daemon --advisor advisor.npz
    #
    print("\nScale-out serving: a restarted node gives the same answers")
    import tempfile

    from repro.core import load_advisor, save_advisor

    with tempfile.TemporaryDirectory() as workdir:
        save_advisor(advisor, f"{workdir}/advisor.npz")
        node = load_advisor(f"{workdir}/advisor.npz")        # restarted node
        restarted = node.recommend_batch(fleet, accuracy_weight=0.9)
        same = sum(a.model == b.model for a, b in zip(recs, restarted))
        print(f"  restarted node: {same} of {len(fleet)} picks match the "
              f"original node")

    # How good was the advice?  Label the target and check the D-error.
    truth = label_one(random_spec(10_001), TESTBED).label
    rec = advisor.recommend(target, accuracy_weight=0.9)
    print(f"\n  oracle best at w_a=0.9: {truth.best_model(0.9)}, "
          f"AutoCE chose {rec.model}, "
          f"D-error = {truth.d_error(rec.model, 0.9):.3f}")


if __name__ == "__main__":
    main()
