"""Outside-in tracer for the end-to-end benchmark.

The program has no tracing of its own yet, so spans are recorded here,
from outside: :func:`install` wraps the public callables at each layer
boundary of ``repro`` and records one span per call — name, start, end,
parent span and request id — in memory.  Nothing is written until the
run ends (:meth:`Tracer.dump`).

Two wrapping rules keep every call site covered:

* class methods are replaced on the class that defines them, and Python
  looks methods up on the class at call time, so every caller (bound
  before or after installation) goes through the wrapper;
* a module function is replaced under every name any loaded module bound
  it to (``from x import f`` copies the binding), so call sites that
  imported it by name are covered too.

Candidate search is imported from ``repro.core.serving`` only, never from
the ``core/predictor.py`` compatibility shim.

Wrapped calls are recorded only inside a phase of the run — set-up or
measuring — so input generation and output checks stay out of the
numbers.  Per-layer metrics are named ``<module>.<op>.<stat>``;
:data:`PER_LAYER` declares each one with its unit and how it is computed:

* ``busy_s``: inclusive time while measuring (a span nested in a span of
  the same name is not counted twice); ``calls`` counts those spans;
* ``self_s``: time while measuring minus the part covered by child spans;
* ``setup_s``: inclusive time during set-up, per set-up;
* other stats are counters read at the same boundary while measuring.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import defaultdict

#: The seven candidate CE models whose fit/estimate calls are traced.
CE_MODELS = ("BayesCard", "DeepDB", "NeuroCard", "MSCN", "LW-NN", "LW-XGB",
             "UAE")

#: Span names of the two phases and of one request (or query, or batch).
SETUP = "bench.setup"
MEASURE = "bench.measure"
REQUEST = "bench.request"

#: Fields of one span record, in order (also the layout in trace.json).
FIELDS = ("name", "start", "end", "parent", "request")


class Tracer:
    """In-memory span and counter recorder."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent index, request id]`` per span.
        self.spans: list[list] = []
        #: Counters per phase: ``counters[phase][name]``.
        self.counters: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        #: Stamped on every span opened while it is set.
        self.request_id: int | None = None
        #: The current phase; wrapped calls outside a phase are not traced.
        self.phase_name: str | None = None
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list, list[int]]:
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                  self.request_id]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record, stack

    @contextlib.contextmanager
    def span(self, name: str):
        record, stack = self._open(name)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        """A traced stretch of the run: :data:`SETUP` or :data:`MEASURE`."""
        self.phase_name = name
        try:
            with self.span(name):
                yield
        finally:
            self.phase_name = None

    def _call(self, name, fn, args, kwargs, before, after):
        """Run a wrapped call; counters are read inside its span, so the
        span covers all the tracer's work at this boundary."""
        if self.phase_name is None:
            return fn(*args, **kwargs)
        counters = self.counters[self.phase_name]
        if name is None:  # counters only
            token = before(args) if before is not None else None
            result = fn(*args, **kwargs)
            after(counters, token, args, result)
            return result
        record, stack = self._open(name if isinstance(name, str)
                                   else name(args))
        try:
            token = before(args) if before is not None else None
            result = fn(*args, **kwargs)
            if after is not None:
                after(counters, token, args, result)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
        return result

    # ------------------------------------------------------------------
    def wrap_method(self, cls: type, attr: str, name, before=None,
                    after=None) -> None:
        """Trace ``cls.attr`` (a plain method or a classmethod).

        ``name`` is the span name, a function of the call's arguments that
        returns it, or None to only run the counter hooks.
        """
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, before, after)

        setattr(cls, attr,
                classmethod(wrapper) if isinstance(raw, classmethod)
                else wrapper)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def wrap_function(self, module, attr: str, name, before=None,
                      after=None) -> None:
        """Trace ``module.attr`` under every name bound to it."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._call(name, original, args, kwargs, before, after)

        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._undo.append(
                        functools.partial(namespace.__setitem__, key,
                                          original))

    def uninstall(self) -> None:
        """Restore every wrapped callable."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def dump(self, path: str, **header) -> None:
        """Write the spans (times relative to tracer creation) as JSON."""
        origin = self.origin
        spans = [[name, round(start - origin, 9), round(end - origin, 9),
                  parent, request]
                 for name, start, end, parent, request in self.spans]
        with open(path, "w") as handle:
            json.dump({**header, "fields": FIELDS, "spans": spans,
                       "counters": self.counters}, handle)


# ----------------------------------------------------------------------
# Installation: which callables are traced, under which span names.
# ----------------------------------------------------------------------
def _count_rows(counters, token, args, result) -> None:
    counters["core.encoder.embed.rows"] += len(args[1])


def _cache_hits_before(args):
    return args[0].hits


def _count_cache_lookup(counters, hits_before, args, result) -> None:
    if args[0].hits > hits_before:
        counters["utils.cache.embedding.hits"] += 1
    else:
        counters["utils.cache.embedding.misses"] += 1


def _index_fractions(counters, token, args, result) -> None:
    index = args[0].index
    queries = len(args[1])
    if index is not None and hasattr(index, "last_fallback_fraction"):
        counters["core.serving.index.queries"] += queries
        counters["core.serving.index.fallback"] += (
            index.last_fallback_fraction * queries)
        counters["core.serving.index.pool"] += (
            index.last_pool_fraction * queries)


def _provider_before(args):
    stats = args[0].stats
    return stats.memo_hits, stats.fallbacks, stats.elapsed_s


def _provider_after(counters, before, args, result) -> None:
    stats = args[0].stats
    memo_hits, fallbacks, elapsed = before
    counters["engine.providers.estimate.memo_hits"] += (
        stats.memo_hits - memo_hits)
    counters["engine.providers.estimate.fallbacks"] += (
        stats.fallbacks - fallbacks)
    counters["engine.providers.estimate.source_s"] += (
        stats.elapsed_s - elapsed)


def _count_result_rows(counters, token, args, result) -> None:
    counters["engine.execution.execute.rows"] += result.rows


def _model_span(op: str):
    return lambda args: f"ce.{args[0].name}.{op}"


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of ``repro`` with ``tracer``'s spans."""
    # Import everything first, so that every module that binds a traced
    # function by name is loaded when the bindings are replaced.
    import repro.cli  # noqa: F401
    import repro.core.advisor as advisor_mod
    import repro.core.dml as dml
    import repro.core.encoder as encoder
    import repro.core.graph as graph
    import repro.core.incremental as incremental
    import repro.core.online as online
    import repro.core.persistence as persistence
    import repro.core.serving as serving
    import repro.datagen.multi_table as multi_table
    import repro.db.counting as counting
    import repro.db.io as dbio
    import repro.engine as engine
    import repro.experiments.corpus  # noqa: F401
    import repro.testbed.runner as runner
    import repro.utils.cache as cache
    import repro.workload.generator as generator
    from repro.ce.base import TrainingContext
    from repro.ce.bayescard import BayesCard
    from repro.ce.deepdb import DeepDB
    from repro.ce.lwnn import LWNN
    from repro.ce.lwxgb import LWXGB
    from repro.ce.mscn import MSCN
    from repro.ce.neurocard import NeuroCard
    from repro.ce.uae import UAE

    wrap_fn, wrap = tracer.wrap_function, tracer.wrap_method
    # Offline path: labeling, corpus, DML training, persistence.
    wrap_fn(runner, "run_testbed", "testbed.label")
    wrap_fn(generator, "generate_workload", "workload.generate")
    wrap_fn(counting, "count_join", "db.count_join")
    wrap_fn(multi_table, "generate_dataset", "datagen.generate")
    wrap_fn(graph, "build_feature_graph", "core.graph.featurize")
    wrap_fn(incremental, "incremental_learning", "core.incremental")
    wrap_fn(persistence, "save_advisor", "core.persistence.save")
    wrap_fn(dbio, "load_dataset", "db.io.load")
    wrap(TrainingContext, "build", "ce.context")
    wrap(dml.DMLTrainer, "train", "core.dml.train")
    wrap(cache.DiskCache, "put", "utils.cache.disk_put")
    # Candidate models: wrap each method once, on the class defining it;
    # the span is named after the instance, so subclasses stay distinct.
    owners: set[tuple[type, str]] = set()
    for model in (BayesCard, DeepDB, NeuroCard, MSCN, LWNN, LWXGB, UAE):
        for op in ("fit", "estimate"):
            owner = next(klass for klass in model.__mro__
                         if op in klass.__dict__)
            if (owner, op) not in owners:
                owners.add((owner, op))
                wrap(owner, op, _model_span(op))
    # Online path: featurize, embed, cache, drift, search, scoring.
    wrap(graph.FeatureGraph, "fingerprint", "core.graph.fingerprint")
    wrap(encoder.GINEncoder, "embed", "core.encoder.embed",
         after=_count_rows)
    wrap(cache.LRUCache, "get", None, before=_cache_hits_before,
         after=_count_cache_lookup)
    wrap(online.DriftDetector, "is_drifted", "core.online.drift")
    wrap(serving.RecommendationCandidateSet, "__init__",
         "core.serving.rcs_build")
    wrap(serving.RecommendationCandidateSet, "search",
         "core.serving.search", after=_index_fractions)
    wrap(serving.KNNPredictor, "recommend_batch", "core.serving.score")
    for op in ADVISOR_OPS:
        wrap(advisor_mod.AutoCE, op, f"core.advisor.{op}")
    # Optimizer loop: selection, providers, planning, execution.
    wrap(engine.AdvisorProvider, "pick", "core.advisor.select")
    wrap(engine.CardinalityProvider, "estimate",
         "engine.providers.estimate", before=_provider_before,
         after=_provider_after)
    wrap(engine.Optimizer, "plan", "engine.optimizer.plan")
    wrap(engine.Executor, "execute", "engine.execution.execute",
         after=_count_result_rows)


#: Public :class:`AutoCE` serving entry points the workloads call, and with
#: ``fit`` all those traced as ``core.advisor.*``.
SERVING_OPS = ("recommend", "is_drifted", "embed", "embed_many")
ADVISOR_OPS = ("fit",) + SERVING_OPS

#: Span names recorded by the harness itself rather than by a wrapper.
HARNESS_SPANS = (SETUP, MEASURE, REQUEST, "ce.pick.fit")

#: Every span name :func:`install` and the harness can record.
DECLARED_SPANS = tuple(sorted(
    {"testbed.label", "workload.generate", "db.count_join",
     "datagen.generate", "core.graph.featurize", "core.incremental",
     "core.persistence.save", "db.io.load", "ce.context", "core.dml.train",
     "utils.cache.disk_put", "core.graph.fingerprint", "core.encoder.embed",
     "core.online.drift", "core.serving.rcs_build", "core.serving.search",
     "core.serving.score", "core.advisor.select",
     "engine.providers.estimate", "engine.optimizer.plan",
     "engine.execution.execute"}
    | {f"core.advisor.{op}" for op in ADVISOR_OPS}
    | {f"ce.{model}.{op}" for model in CE_MODELS
       for op in ("fit", "estimate")}
    | set(HARNESS_SPANS)))


# ----------------------------------------------------------------------
# Analysis: span tree → per-layer statistics.
# ----------------------------------------------------------------------
class SpanTable:
    """Durations, self times, phases and same-name nesting of spans."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.duration = [end - start for _, start, end, _, _ in spans]
        self.children: list[list[int]] = [[] for _ in spans]
        #: Name of each span's root span: the phase it was recorded in.
        self.phase: list[str] = []
        for index, record in enumerate(spans):
            parent = record[3]
            if parent >= 0:
                self.children[parent].append(index)
                self.phase.append(self.phase[parent])
            else:
                self.phase.append(record[0])
        self.self_time = [
            self.duration[i] - sum(self.duration[c] for c in kids)
            for i, kids in enumerate(self.children)]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for index, record in enumerate(spans):
            self.by_name[record[0]].append(index)

    def outermost(self, names: tuple[str, ...],
                  phase: str = MEASURE) -> list[int]:
        """Spans in ``phase`` with one of ``names`` and no ancestor with
        one of them."""
        chosen = set(names)
        found = []
        for name in names:
            for index in self.by_name.get(name, ()):
                if self.phase[index] != phase:
                    continue
                parent = self.spans[index][3]
                while parent >= 0 and self.spans[parent][0] not in chosen:
                    parent = self.spans[parent][3]
                if parent < 0:
                    found.append(index)
        return found

    def busy(self, *names: str, phase: str = MEASURE) -> float:
        return sum(self.duration[i] for i in self.outermost(names, phase))

    def calls(self, *names: str) -> int:
        return len(self.outermost(names))

    def self_s(self, *names: str) -> float:
        return sum(self.self_time[i] for name in names
                   for i in self.by_name.get(name, ())
                   if self.phase[i] == MEASURE)

    def per_setup(self, *names: str) -> float:
        setups = len(self.by_name.get(SETUP, ()))
        return self.busy(*names, phase=SETUP) / setups if setups else 0.0

    def request_coverage(self) -> float:
        """Share of request time under the requests' child spans."""
        requests = self.by_name.get(REQUEST, ())
        total = sum(self.duration[i] for i in requests)
        uncovered = sum(self.self_time[i] for i in requests)
        return 1.0 - uncovered / total if total else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _busy(*names):
    return lambda t, c: t.busy(*names)


def _calls(*names):
    return lambda t, c: t.calls(*names)


def _self(*names):
    return lambda t, c: t.self_s(*names)


def _setup(*names):
    return lambda t, c: t.per_setup(*names)


def _counter(name):
    return lambda t, c: c.get(name, 0.0)


_HITS = "utils.cache.embedding.hits"
_MISSES = "utils.cache.embedding.misses"
_MEMO = "engine.providers.estimate.memo_hits"
_ESTIMATE = "engine.providers.estimate"
_INDEX_QUERIES = "core.serving.index.queries"

#: (metric name, unit, compute(span table, measuring counters)), grouped
#: by the end-to-end metric each group should move (see README.md).
PER_LAYER: list[tuple[str, str, object]] = [
    # Offline path: moves the offline workload's latency.
    ("testbed.label.busy_s", "s", _busy("testbed.label")),
    ("workload.generate.busy_s", "s", _busy("workload.generate")),
    ("db.count_join.calls", "count", _calls("db.count_join")),
    ("db.count_join.busy_s", "s", _busy("db.count_join")),
    ("ce.context.busy_s", "s", _busy("ce.context")),
    *[(f"ce.{model}.{stat}", unit, compute)
      for model in CE_MODELS
      for stat, unit, compute in (
          ("fit_s", "s", _busy(f"ce.{model}.fit")),
          ("estimate_s", "s", _busy(f"ce.{model}.estimate")),
          ("estimate_calls", "count", _calls(f"ce.{model}.estimate")))],
    ("datagen.generate.busy_s", "s", _busy("datagen.generate")),
    ("core.graph.featurize.calls", "count", _calls("core.graph.featurize")),
    ("core.graph.featurize.busy_s", "s", _busy("core.graph.featurize")),
    ("core.dml.train.busy_s", "s", _busy("core.dml.train")),
    ("core.incremental.busy_s", "s", _busy("core.incremental")),
    ("core.serving.rcs_build.busy_s", "s", _busy("core.serving.rcs_build")),
    ("core.persistence.save.busy_s", "s", _busy("core.persistence.save")),
    ("utils.cache.disk_put.busy_s", "s", _busy("utils.cache.disk_put")),
    # Set-up of the other workloads: moves their setup_s.
    ("core.advisor.fit.setup_s", "s", _setup("core.advisor.fit")),
    ("core.graph.featurize.setup_s", "s", _setup("core.graph.featurize")),
    ("core.dml.train.setup_s", "s", _setup("core.dml.train")),
    ("core.incremental.setup_s", "s", _setup("core.incremental")),
    ("core.encoder.embed.setup_s", "s", _setup("core.encoder.embed")),
    ("core.serving.rcs_build.setup_s", "s",
     _setup("core.serving.rcs_build")),
    ("core.advisor.select.setup_s", "s", _setup("core.advisor.select")),
    ("ce.pick.fit.setup_s", "s", _setup("ce.pick.fit")),
    # Online path: moves the serve workloads' latency and throughput.
    ("db.io.load.busy_s", "s", _busy("db.io.load")),
    ("core.graph.fingerprint.busy_s", "s", _busy("core.graph.fingerprint")),
    ("core.encoder.embed.calls", "count", _calls("core.encoder.embed")),
    ("core.encoder.embed.rows", "count",
     _counter("core.encoder.embed.rows")),
    ("core.encoder.embed.busy_s", "s", _busy("core.encoder.embed")),
    ("utils.cache.embedding.hits", "count", _counter(_HITS)),
    ("utils.cache.embedding.misses", "count", _counter(_MISSES)),
    ("utils.cache.embedding.hit_ratio", "ratio",
     lambda t, c: _ratio(c.get(_HITS, 0.0),
                         c.get(_HITS, 0.0) + c.get(_MISSES, 0.0))),
    ("core.online.drift.self_s", "s", _self("core.online.drift")),
    ("core.serving.search.calls", "count", _calls("core.serving.search")),
    ("core.serving.search.busy_s", "s", _busy("core.serving.search")),
    ("core.serving.score.self_s", "s", _self("core.serving.score")),
    ("core.serving.index.fallback_fraction", "ratio",
     lambda t, c: _ratio(c.get("core.serving.index.fallback", 0.0),
                         c.get(_INDEX_QUERIES, 0.0))),
    ("core.serving.index.pool_fraction", "ratio",
     lambda t, c: _ratio(c.get("core.serving.index.pool", 0.0),
                         c.get(_INDEX_QUERIES, 0.0))),
    ("core.advisor.self_s", "s",
     _self(*(f"core.advisor.{op}" for op in SERVING_OPS))),
    # Optimizer loop: moves the optimizer-loop query latency.
    ("core.advisor.select.busy_s", "s", _busy("core.advisor.select")),
    ("engine.providers.estimate.calls", "count", _calls(_ESTIMATE)),
    ("engine.providers.estimate.memo_hits", "count", _counter(_MEMO)),
    ("engine.providers.estimate.memo_hit_ratio", "ratio",
     lambda t, c: _ratio(c.get(_MEMO, 0.0), t.calls(_ESTIMATE))),
    ("engine.providers.estimate.fallbacks", "count",
     _counter("engine.providers.estimate.fallbacks")),
    ("engine.providers.estimate.source_s", "s",
     _counter("engine.providers.estimate.source_s")),
    ("engine.optimizer.plan.self_s", "s", _self("engine.optimizer.plan")),
    ("engine.execution.execute.busy_s", "s",
     _busy("engine.execution.execute")),
    ("engine.execution.execute.rows", "count",
     _counter("engine.execution.execute.rows")),
    # The harness: where the workload's wall time went.
    ("bench.setup.busy_s", "s", lambda t, c: t.busy(SETUP, phase=SETUP)),
    ("bench.measure.busy_s", "s", _busy(MEASURE)),
    ("bench.request.calls", "count", _calls(REQUEST)),
    ("bench.request.busy_s", "s", _busy(REQUEST)),
    ("bench.request.coverage", "ratio",
     lambda t, c: t.request_coverage()),
]


def per_layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every declared per-layer metric, computed from ``tracer``."""
    table = SpanTable(tracer.spans)
    counters = tracer.counters[MEASURE]
    return {name: {"value": float(compute(table, counters)), "unit": unit}
            for name, unit, compute in PER_LAYER}


def span_summary(tracer: Tracer, wall_s: float) -> list[tuple]:
    """(name, calls, busy s, self s, share of wall) per span name, over
    both phases."""
    table = SpanTable(tracer.spans)
    rows = []
    for name, indices in table.by_name.items():
        busy = sum(table.busy(name, phase=phase) for phase in (SETUP, MEASURE))
        self_s = sum(table.self_time[i] for i in indices)
        rows.append((name, len(indices), busy, self_s,
                     self_s / wall_s if wall_s else 0.0))
    rows.sort(key=lambda row: -row[3])
    return rows
