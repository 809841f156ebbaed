"""Closed-loop advisor benchmark: AutoCE inside the query optimizer.

The ``e2e_advisor_loop`` row of ``results/BENCH_micro.json``.  Small
single-table and multi-table corpora are planned and executed end to end
through the provider layer (:mod:`repro.engine.providers`) under

* the PostgreSQL-style histogram baseline,
* every fixed candidate model, and
* the advisor in the loop (:class:`AdvisorProvider`: AutoCE picks the
  model per dataset, the optimizer asks the pick for every sub-plan),

and each method is scored on three axes:

* **plan cost** — the chosen physical plans re-priced under *true*
  cardinalities (:func:`repro.engine.e2e.recost_plan`), in cost-model
  units, so an optimistic misestimate cannot grade its own homework;
* **simulated latency** — plan cost converted to seconds through one
  global calibration constant (measured TrueCard execution wall-clock
  per TrueCard cost unit), so the latency axis is deterministic and the
  headline speedup is a pure plan-quality ratio; the raw measured
  wall-clock (execution + provider inference accounting) is reported
  alongside;
* **plan-choice agreement** — the fraction of queries whose plan
  signature equals the TrueCard plan's.

The advisor is trained on labels derived from the measured loop itself
(score_a = best plan cost / plan cost, score_e from inference latency),
which is exactly the closed loop: the measurement feeds the advisor, the
advisor feeds the planner.  ``knn_k = 1`` so the pick for a corpus member
is that dataset's own best-labeled model — the advisor row must therefore
be at least as good (in true plan cost) as every fixed candidate on the
multi-table corpus, and no worse than the histogram baseline on both.

The whole loop is computed twice and the deterministic fields (plan
costs, plan signatures, picks, agreement) are asserted identical, so the
CI determinism job can run the bench and trust the row bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.ce.base import CEModel, TrainingContext
from repro.ce.bayescard import BayesCard, BayesCardConfig
from repro.ce.lwxgb import LWXGB, LWXGBConfig
from repro.ce.mscn import MSCN, MSCNConfig
from repro.ce.postgres import PostgresEstimator
from repro.ce.template_base import TemplateModel, sub_templates
from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.engine import (AdvisorProvider, ModelProvider, TrueCardProvider,
                          recost_plan, run_e2e)
from repro.testbed.scores import ScoreLabel
from repro.workload.generator import generate_workload

# run_benchmarks.py, which imports this bench, puts tests/ on sys.path.
from loop_regime import LOOP_RANGES

#: Fixed learned candidates: cheap to fit, with genuinely different
#: estimate quality (data-driven BN vs query-driven regression vs learned
#: set-conv).
CANDIDATES = ("BayesCard", "LW-XGB", "MSCN")
#: The advisor's pick pool: the learned candidates plus the histogram
#: default — the advisor keeps PostgreSQL's own estimator for a dataset
#: unless some learned model's plans are genuinely better there.
POOL = ("PostgreSQL",) + CANDIDATES

SEED = 0
NUM_QUERIES = 10
SAMPLE_SIZE = 400
NUM_TRAIN_QUERIES = 60


def _build_candidates() -> dict[str, CEModel]:
    return {
        "BayesCard": BayesCard(BayesCardConfig(seed=SEED)),
        "LW-XGB": LWXGB(LWXGBConfig(seed=SEED)),
        "MSCN": MSCN(MSCNConfig(epochs=8, seed=SEED)),
    }


def _agreement(signatures, oracle_signatures) -> float:
    return float(np.mean([a == b for a, b in
                          zip(signatures, oracle_signatures)]))


class _Bench:
    """One dataset of the loop: fitted models + measured per-method runs."""

    def __init__(self, spec, kind: str):
        self.kind = kind
        self.dataset = generate_dataset(spec)
        self.workload = generate_workload(
            self.dataset, num_train=NUM_TRAIN_QUERIES,
            num_test=NUM_QUERIES, seed=SEED + 5)
        ctx = TrainingContext.build(self.dataset, self.workload, seed=SEED,
                                    sample_size=SAMPLE_SIZE)
        templates = sub_templates(self.dataset, self.workload.test)
        self.models: dict[str, CEModel] = {}
        for name, model in _build_candidates().items():
            model.fit(ctx)
            if isinstance(model, TemplateModel):
                model.prepare_templates(templates)
            self.models[name] = model
        self.histogram = PostgresEstimator()
        self.histogram.fit(ctx)
        self.models["PostgreSQL"] = self.histogram
        self.oracle = TrueCardProvider(self.dataset)
        oracle_run = run_e2e(self.dataset, self.workload.test, self.oracle)
        self.oracle_signatures = oracle_run.plan_signatures
        # Calibration inputs: under TrueCard the optimizer's objective is
        # already the true cost, and the measured execution of those plans
        # anchors cost units to wall-clock seconds.
        self.oracle_exec_s = oracle_run.execution_time
        self.oracle_cost = oracle_run.plan_cost
        # method -> {"plan_cost", "latency_s", "agreement"}
        self.measured: dict[str, dict] = {}
        for name in CANDIDATES:
            self.measured[name] = self._measure(ModelProvider(self.models[name]))
        self.measured["PostgreSQL"] = self._measure(
            ModelProvider(self.histogram))

    def _measure(self, provider) -> dict:
        result = run_e2e(self.dataset, self.workload.test, provider)
        true_cost = sum(recost_plan(p.plan, self.dataset, self.oracle)
                        for p in result.plans)
        return {
            "plan_cost": true_cost,
            "latency_s": result.total_time,
            "agreement": _agreement(result.plan_signatures,
                                    self.oracle_signatures),
            "signatures": result.plan_signatures,
        }

    def label(self) -> ScoreLabel:
        """Closed-loop label: plan quality + inference efficiency."""
        costs = np.array([self.measured[n]["plan_cost"] for n in POOL])
        latencies = np.array([self.measured[n]["latency_s"] for n in POOL])
        sa = costs.min() / np.maximum(costs, 1e-12)
        se = latencies.min() / np.maximum(latencies, 1e-12)
        return ScoreLabel(model_names=POOL, sa=sa, se=se)


def bench_e2e_loop(repeats: int) -> dict:
    single = [_Bench(random_spec(
        5_000_000 + i,
        ranges={"num_tables": (1, 1), "rows": (8_000, 12_000),
                "columns_per_table": (4, 6)}), "single-table")
        for i in range(2)]
    # Multi-table specs live in the correlated/skewed regime where the
    # histogram's independence assumption genuinely misprices join plans,
    # so per-dataset model selection has something to win: on seed
    # 6000002 the histogram's plans are strictly the best of the pool,
    # on 6000004 BayesCard's are — the advisor must route each dataset
    # to its winner.
    multi = [_Bench(random_spec(seed, ranges=LOOP_RANGES), "multi-table")
             for seed in (6_000_002, 6_000_004)]
    benches = single + multi

    def run_loop() -> dict:
        """Fit the advisor on the measured labels, serve it in the loop."""
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=16, embedding_dim=8, knn_k=1, use_incremental=False,
            dml=DMLConfig(epochs=4, batch_size=4), seed=SEED))
        graphs = [advisor.featurize(b.dataset) for b in benches]
        advisor.fit_graphs(graphs, [b.label() for b in benches])
        out = {"picks": {}, "advisor": {}, "signatures": {}}
        for bench, graph in zip(benches, graphs):
            provider = AdvisorProvider(advisor, graph, bench.models,
                                       accuracy_weight=1.0)
            measured = bench._measure(provider)
            name = bench.dataset.name
            out["picks"][name] = provider.picked
            out["advisor"][name] = measured
            out["signatures"][name] = measured["signatures"]
        return out

    first = run_loop()
    second = run_loop()
    # The closed loop is deterministic: picks, plans and plan costs must be
    # bit-for-bit identical across independent refits.
    assert first["picks"] == second["picks"], "advisor picks drifted"
    assert first["signatures"] == second["signatures"], "plans drifted"
    for name in first["advisor"]:
        assert (first["advisor"][name]["plan_cost"]
                == second["advisor"][name]["plan_cost"]), "plan cost drifted"

    def totals(kind: str, method: str) -> dict:
        """Per-kind sums of plan cost / latency and mean agreement."""
        rows = []
        for bench in benches:
            if bench.kind != kind:
                continue
            if method == "advisor":
                rows.append(first["advisor"][bench.dataset.name])
            else:
                rows.append(bench.measured[method])
        return {
            "plan_cost": float(sum(r["plan_cost"] for r in rows)),
            "latency_s": float(sum(r["latency_s"] for r in rows)),
            "agreement": float(np.mean([r["agreement"] for r in rows])),
        }

    methods = ("PostgreSQL",) + CANDIDATES + ("advisor",)
    report = {kind: {m: totals(kind, m) for m in methods}
              for kind in ("single-table", "multi-table")}

    # Acceptance: the advisor's plans are at least as good (true cost) as
    # every fixed candidate on the multi-table corpus, and never worse
    # than the histogram baseline on either corpus.
    multi_report = report["multi-table"]
    for method in CANDIDATES + ("PostgreSQL",):
        assert (multi_report["advisor"]["plan_cost"]
                <= multi_report[method]["plan_cost"] + 1e-9), \
            f"advisor plan cost exceeds {method} on multi-table"
    assert (report["single-table"]["advisor"]["plan_cost"]
            <= report["single-table"]["PostgreSQL"]["plan_cost"] + 1e-9), \
        "advisor plan cost exceeds the histogram baseline on single-table"

    # Simulated latency: one global seconds-per-cost-unit calibration
    # (TrueCard execution wall-clock over TrueCard plan cost), so the
    # before/after ratio is a pure — and deterministic — plan-cost ratio.
    calibration = (sum(b.oracle_exec_s for b in benches)
                   / sum(b.oracle_cost for b in benches))
    simulated = {k: {m: report[k][m]["plan_cost"] * calibration
                     for m in methods} for k in report}
    # "Before" is serving without an advisor: deploy one fixed estimator
    # everywhere, averaged over which one of the pool you happened to pick.
    before = sum(np.mean([simulated[k][m] for m in POOL]) for k in report)
    after = sum(simulated[k]["advisor"] for k in report)
    return {
        "datasets": {"single-table": len(single), "multi-table": len(multi)},
        "queries_per_dataset": NUM_QUERIES,
        "candidates": list(CANDIDATES),
        "advisor_picks": first["picks"],
        "plan_cost": {k: {m: report[k][m]["plan_cost"] for m in methods}
                      for k in report},
        "simulated_latency_s": simulated,
        "measured_latency_s": {
            k: {m: report[k][m]["latency_s"] for m in methods}
            for k in report},
        "truecard_agreement": {
            k: {m: report[k][m]["agreement"] for m in methods}
            for k in report},
        "deterministic_double_run": True,
        "before_s": before, "after_s": after,
        "speedup": before / after,
    }
