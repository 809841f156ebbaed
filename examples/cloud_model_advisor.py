"""Cloud-vendor scenario: advise CE models for many tenants, detect drift.

The paper's motivating application (Sec. I): a cloud data service hosts
many tenant datasets and must pick a CE model for each without costly
online learning.  Tenants have different SLAs — an OLAP tenant wants
accuracy (w_a = 1.0), a query-generation tenant wants fast inference
(w_a = 0.2).  New tenants whose data looks nothing like the training
distribution are flagged by the drift detector and labeled online.

Run:  python examples/cloud_model_advisor.py
"""

from repro.core import AutoCE, AutoCEConfig, DMLConfig
from repro.datagen import generate_dataset, random_spec
from repro.experiments.corpus import label_one
from repro.testbed import TestbedConfig

TESTBED = TestbedConfig(num_train_queries=100, num_test_queries=20,
                        sample_size=600, made_epochs=3)

TENANT_SLAS = {
    "olap-warehouse": 1.0,     # pure accuracy: join ordering quality
    "dashboarding": 0.7,       # mostly accuracy, some latency sensitivity
    "fraud-detection": 0.5,    # balanced
    "query-generation": 0.2,   # mostly inference speed (millions of calls)
}


def main() -> None:
    print("Training the advisor offline on synthetic datasets...")
    entries = [label_one(random_spec(i), TESTBED) for i in range(10)]
    advisor = AutoCE(AutoCEConfig(dml=DMLConfig(epochs=20)))
    advisor.fit([e.graph for e in entries], [e.label for e in entries])

    print("\nOnboarding tenants:")
    for i, (tenant, sla_weight) in enumerate(TENANT_SLAS.items()):
        dataset = generate_dataset(random_spec(20_000 + i))
        rec = advisor.recommend(dataset, accuracy_weight=sla_weight)
        print(f"  {tenant:18s} (w_a={sla_weight}): deploy {rec.model}")

    print("\nA tenant with out-of-distribution data arrives:")
    drift_ranges = {
        "num_tables": (5, 6), "columns_per_table": (6, 8),
        "rows": (3000, 4000), "domain": (200, 400),
        "skew": (0.7, 1.0), "interaction": (0.6, 1.0),
    }
    odd_spec = random_spec(30_000, ranges=drift_ranges)
    # Featurize once; the drift check, the adaptation and the
    # recommendation all take the same feature graph.
    odd_graph = advisor.featurize(generate_dataset(odd_spec))
    if advisor.is_drifted(odd_graph):
        print("  drift detected -> falling back to online labeling "
              "(train & test all CE models once)")
        label = label_one(odd_spec, TESTBED).label
        advisor.adapt_online(odd_graph, label)
        print(f"  labeled online: best model is {label.best_model(0.9)}; "
              "advisor updated")
    else:
        print("  within the trained distribution; serving KNN advice")
    rec = advisor.recommend(odd_graph, accuracy_weight=0.9)
    print(f"  recommendation for the new tenant: {rec.model}")


if __name__ == "__main__":
    main()
