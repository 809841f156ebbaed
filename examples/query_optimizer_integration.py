"""Inject learned cardinalities into a cost-based query optimizer.

Reproduces the mechanics of the paper's Sec. VII-D in miniature: every
sub-plan of a join query is estimated by a CE model behind the
estimator-provider layer (memo, fallback chain, inference accounting),
the optimizer picks join orders/operators from those estimates, and the
resulting plans are executed for real.  Compare the plans, the true
re-costed plan quality and the wall-clock under (a) the default
Postgres-style estimator, (b) a learned model, (c) true cardinalities.

Run:  python examples/query_optimizer_integration.py
"""

from repro.ce import DeepDB, PostgresEstimator, TrainingContext
from repro.datagen import generate_dataset, random_spec
from repro.engine import (ModelProvider, Optimizer, TrueCardProvider,
                          plan_signature, recost_plan, run_e2e)
from repro.workload import generate_workload


def main() -> None:
    spec = random_spec(77, ranges={"num_tables": (4, 4),
                                   "rows": (8000, 12000)})
    dataset = generate_dataset(spec)
    workload = generate_workload(dataset, num_train=150, num_test=15, seed=2)
    ctx = TrainingContext.build(dataset, workload, sample_size=1000)

    print(f"dataset: {dataset.num_tables} tables, {dataset.total_rows} rows")
    postgres = PostgresEstimator()
    postgres.fit(ctx)
    deepdb = DeepDB()
    deepdb.fit(ctx)
    # Pre-fit DeepDB on every sub-template the optimizer may probe.
    deepdb.prepare_templates(dataset.connected_subsets())

    def providers():
        # A fresh set per measured run, so every sub-plan memo starts
        # empty.  The learned model falls back to the histogram if it ever
        # raises or returns a non-finite estimate — the planner never
        # crashes mid-query.
        return (
            ModelProvider(postgres),
            ModelProvider(deepdb, fallback=ModelProvider(postgres)),
            TrueCardProvider(dataset),
        )

    oracle = TrueCardProvider(dataset)

    query = max(workload.test, key=lambda q: len(q.tables))
    print(f"\nexample query: {query.sql()}")
    print(f"true cardinality: {query.true_cardinality}\n")
    optimizer = Optimizer(dataset)
    for provider in providers():
        planned = optimizer.plan(query, provider)
        true_cost = recost_plan(planned.plan, dataset, oracle)
        print(f"--- plan with {provider.name} cardinalities "
              f"(own cost {planned.cost:.0f}, true cost {true_cost:.0f}) ---")
        print(planned.plan.describe())
        print(f"signature: {plan_signature(planned.plan)}")
        print()

    print("end-to-end over the test workload (execution + inference):")
    for provider in providers():
        result = run_e2e(dataset, workload.test, provider)
        stats = provider.stats
        print(f"  {provider.name:10s} run={result.execution_time * 1000:7.1f} ms"
              f"  infer={result.inference_time * 1000:7.1f} ms"
              f"  estimates={stats.calls}"
              f"  memo_hits={stats.memo_hits}"
              f"  fallbacks={stats.fallbacks}")


if __name__ == "__main__":
    main()
