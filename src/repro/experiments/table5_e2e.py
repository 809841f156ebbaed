"""Table V: end-to-end latency in the PostgreSQL substitute.

For single-table and multi-table workloads, every estimator's cardinalities
are injected into the optimizer (through the provider layer of
:mod:`repro.engine.providers`) and the chosen plans are executed for real.
Reported per method: total running time + total inference latency, and the
improvement of the *total* over the default PostgreSQL estimator.

Expected shapes (the paper's): TrueCard gives the best running time;
slow-inference models (NeuroCard/UAE) lose on single tables where inference
dominates; fast query-driven models (LW-NN) win single-table but lose
multi-table where plan quality dominates; AutoCE(w_a=0.5) is best
single-table, AutoCE(w_a=1.0) best multi-table.

The AutoCE rows are *recommendations over already-fitted models*: when the
advisor picks a model the sweep has measured, the measured result is reused
(same totals bit-for-bit) instead of re-planning and re-executing the whole
workload — dedupe is by the measured estimator, so two weights that pick the
same model share one run.

Each measured run also records its plans: their signatures and their summed
cost re-priced under true cardinalities (:func:`recost_plan`), so two runs
of the table can be compared plan for plan, and no estimator's plans can
cost less than TrueCard's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..ce.base import CEModel, TrainingContext
from ..ce.postgres import PostgresEstimator
from ..ce.template_base import TemplateModel, sub_templates
from ..datagen.multi_table import generate_dataset
from ..datagen.spec import random_spec
from ..engine.e2e import E2EResult, recost_plan, run_e2e
from ..engine.providers import ModelProvider, TrueCardProvider
from ..utils.cache import DiskCache, stable_hash
from ..workload.generator import generate_workload
from .common import CANDIDATES, ExperimentSuite, format_table, get_suite
from .corpus import DEFAULT_CACHE_DIR

METHODS = ("PostgreSQL", "TrueCard") + CANDIDATES + (
    "AutoCE(w_a=0.5)", "AutoCE(w_a=1.0)")

#: The advisor rows and the accuracy weight each one serves under.
_ADVISOR_WEIGHTS = {"AutoCE(w_a=0.5)": 0.5, "AutoCE(w_a=1.0)": 1.0}


@dataclass
class Table5Result:
    #: totals[kind][method] = (running_s, inference_s)
    totals: dict[str, dict[str, tuple[float, float]]]
    #: improvement[kind][method] vs the PostgreSQL estimator (total time);
    #: NaN when the PostgreSQL total is ~zero (rendered "n/a").
    improvement: dict[str, dict[str, float]]
    text: str
    #: per-kind diagnostics: advisor picks, how many workload runs the
    #: fitted-model dedupe skipped, and ``plans[dataset][source]``, each
    #: measured run's ``(plan signatures, summed true-cardinality cost)``.
    stats: dict[str, dict] = field(default_factory=dict)


def _run_kind(suite: ExperimentSuite, kind: str, specs, num_queries: int):
    """Measure every method on every spec of one workload ``kind``.

    Returns ``(totals, stats)`` where ``totals[method] = (run_s, infer_s)``
    and ``stats`` records, per ``kind``, the advisor's picks, the runs the
    per-estimator dedupe saved, and every measured run's plans.
    """
    testbed = suite.testbed
    totals: dict[str, list[float]] = {m: [0.0, 0.0] for m in METHODS}
    advisor = suite.autoce()
    stats: dict = {"kind": kind, "datasets": len(specs),
                   "advisor_picks": {}, "deduped_runs": 0, "plans": {}}
    for spec in specs:
        dataset = generate_dataset(spec)
        workload = generate_workload(
            dataset, num_train=testbed.num_train_queries,
            num_test=num_queries, seed=suite.seed + 5)
        ctx = TrainingContext.build(dataset, workload, seed=suite.seed,
                                    sample_size=testbed.sample_size)
        candidates = testbed.build_candidates()
        templates = sub_templates(dataset, workload.test)
        fitted: dict[str, CEModel] = {}
        for name in CANDIDATES:
            model = candidates[name]
            model.fit(ctx)
            if isinstance(model, TemplateModel):
                model.prepare_templates(templates)
            fitted[name] = model
        postgres = PostgresEstimator()
        postgres.fit(ctx)
        fitted["PostgreSQL"] = postgres

        graph = advisor.featurize(dataset)
        picks = {row: advisor.recommend(graph, weight).model
                 for row, weight in _ADVISOR_WEIGHTS.items()}
        stats["advisor_picks"][spec.name] = dict(picks)

        # One workload run per estimator: an AutoCE row whose pick the
        # sweep has already measured reuses that result bit-for-bit.
        measured: dict[str, E2EResult] = {}
        # Every run's plans are re-priced by one oracle per dataset.
        oracle = TrueCardProvider(dataset)
        plans = stats["plans"][spec.name] = {}

        def measure(source: str) -> E2EResult:
            if source in measured:
                stats["deduped_runs"] += 1
            else:
                # A fresh provider per run: its sub-plan memo starts empty.
                provider = (TrueCardProvider(dataset) if source == "TrueCard"
                            else ModelProvider(fitted[source]))
                result = run_e2e(dataset, workload.test, provider)
                measured[source] = result
                plans[source] = (result.plan_signatures, sum(
                    recost_plan(p.plan, dataset, oracle)
                    for p in result.plans))
            return measured[source]

        for method in METHODS:
            result = measure(picks.get(method, method))
            totals[method][0] += result.execution_time
            totals[method][1] += result.inference_time
    return {m: (v[0], v[1]) for m, v in totals.items()}, stats


def improvements(totals: dict[str, dict[str, tuple[float, float]]]
                 ) -> dict[str, dict[str, float]]:
    """Per-kind improvement of each method's total over PostgreSQL's.

    A zero (or vanishing) PostgreSQL total — possible on tiny smoke
    workloads — yields ``NaN`` for every method rather than a
    ``ZeroDivisionError``; the table renders it as ``n/a``.
    """
    out: dict[str, dict[str, float]] = {}
    for kind, per_method in totals.items():
        pg_total = sum(per_method["PostgreSQL"])
        out[kind] = {
            method: (float("nan") if pg_total <= 0.0
                     else (pg_total - sum(times)) / pg_total)
            for method, times in per_method.items()
        }
    return out


def _format_improvement(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value:+.1%}"


def run(suite: ExperimentSuite | None = None, num_single: int = 2,
        num_multi: int = 2, num_queries: int = 30,
        use_cache: bool = True) -> Table5Result:
    suite = suite or get_suite()
    cache = DiskCache(suite.cache_dir or DEFAULT_CACHE_DIR)
    # Every testbed knob shapes the fitted models (and therefore the
    # totals), so the whole config folds into the key — a changed
    # num_train_queries/sample_size must miss, not serve stale totals.
    key = "table5_" + stable_hash({
        "version": 5, "num_single": num_single, "num_multi": num_multi,
        "num_queries": num_queries, "corpus": suite.num_train,
        "seed": suite.seed, "testbed": vars(suite.testbed),
    })

    def compute():
        single_specs = [random_spec(
            3_000_000 + i,
            ranges={"num_tables": (1, 1), "rows": (12_000, 20_000),
                    "columns_per_table": (4, 7)})
            for i in range(num_single)]
        multi_specs = [random_spec(
            4_000_000 + i,
            ranges={"num_tables": (3, 5), "rows": (8_000, 15_000)})
            for i in range(num_multi)]
        single = _run_kind(suite, "single-table", single_specs, num_queries)
        multi = _run_kind(suite, "multi-table", multi_specs, num_queries)
        return {
            "totals": {"single-table": single[0], "multi-table": multi[0]},
            "stats": {"single-table": single[1], "multi-table": multi[1]},
        }

    payload = cache.get_or_compute(key, compute) if use_cache else compute()
    totals, stats = payload["totals"], payload["stats"]
    improvement = improvements(totals)

    rows = []
    for method in METHODS:
        s_run, s_inf = totals["single-table"][method]
        m_run, m_inf = totals["multi-table"][method]
        rows.append([
            method,
            f"{s_run:.3f}s + {s_inf:.3f}s",
            f"{m_run:.3f}s + {m_inf:.3f}s",
            _format_improvement(improvement["single-table"][method]),
            _format_improvement(improvement["multi-table"][method]),
        ])
    text = format_table(
        ["method", "single-table (run + infer)", "multi-table (run + infer)",
         "single impr.", "multi impr."],
        rows, title="Table V: end-to-end latency in the PostgreSQL substitute")
    return Table5Result(totals, improvement, text, stats)
