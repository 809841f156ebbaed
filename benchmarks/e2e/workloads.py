"""The four workloads of the end-to-end benchmark, one per process.

``run.py`` starts this file once per workload, in a fresh interpreter, and
reads the result it writes to ``--result``.  A run is: make the inputs
from the seed (untimed), set the system up ``Sizes.setups`` times (timed,
the median is ``setup_s``), warm up, then serve the same items (request
files, batches, queries, ``train`` calls) in passes for ``--seconds``, and
check the outputs.  Only public functions of ``repro`` are called.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is in README.md.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import trace as tracing  # noqa: E402  (benchmarks/e2e/trace.py)
from repro import cli  # noqa: E402
from repro.ce.base import TrainingContext  # noqa: E402
from repro.ce.registry import CANDIDATE_MODELS  # noqa: E402
from repro.ce.template_base import TemplateModel  # noqa: E402
from repro.core.advisor import AutoCE, AutoCEConfig  # noqa: E402
from repro.core.graph import FeatureGraph, build_feature_graph  # noqa: E402
from repro.core.persistence import load_advisor, save_advisor  # noqa: E402
from repro.core.serving import RecommendationCandidateSet  # noqa: E402
from repro.datagen.multi_table import generate_dataset  # noqa: E402
from repro.datagen.spec import random_spec  # noqa: E402
from repro.db.io import load_dataset, save_dataset  # noqa: E402
from repro.engine import (AdvisorProvider, Executor, Optimizer,  # noqa: E402
                          TrueCardProvider, recost_plan)
from repro.experiments.corpus import CorpusConfig  # noqa: E402
from repro.testbed.runner import run_testbed  # noqa: E402
from repro.testbed.scores import WEIGHT_GRID, DatasetLabel  # noqa: E402
from repro.utils.cache import DiskCache  # noqa: E402
from repro.workload.generator import generate_workload  # noqa: E402

IMPORT_S = time.perf_counter() - START

#: Generated files (request library, per-run scratch, traces) live here.
WORK = ROOT / ".bench_build" / "e2e"
DATA = HERE / "data"
FROZEN_SEEDS = (0, 1, 2)
#: The accuracy weight every serving request asks for.
WEIGHT = 0.9
#: bench_e2e_loop's correlated/skewed multi-table regime, where the
#: histogram's independence assumption misprices joins.
LOOP_RANGES = {"num_tables": (3, 4), "rows": (3_000, 6_000),
               "skew": (0.7, 0.95), "max_correlation": (0.8, 0.95),
               "interaction": (0.7, 0.95), "fanout_skew": (0.8, 1.0),
               "domain": (8, 40)}
# Disjoint spec-seed ranges, so no workload serves a dataset it trained on.
REQUEST_SEED = 30_000_000
LOOP_SEED = 40_000_000


@dataclass(frozen=True)
class Sizes:
    #: The offline workload's items: one ``repro train`` call per frozen
    #: corpus, each labelling that many datasets; at least that many passes.
    offline_seeds: tuple[int, ...] = FROZEN_SEEDS
    offline_corpus: int = 8
    offline_passes: int = 2
    #: Frozen corpora, train and held-out datasets per corpus, for quality.
    quality_seeds: tuple[int, ...] = FROZEN_SEEDS
    quality_train: int = 64
    quality_heldout: int = 16
    #: Frozen-label datasets the serve advisor fits (all of them).
    serve_bases: int = 240
    #: RCS members in serve-cold (the paper's corpus size) and serve-hot.
    cold_rcs: int = 1200
    hot_rcs: int = 8192
    #: Request files served by serve-cold in each pass.
    cold_requests: int = 100
    warmup_requests: int = 16
    #: serve-cold requests whose picks are re-checked after measuring.
    checked_requests: int = 64
    hot_working_set: int = 256
    hot_batch: int = 16
    #: Batches of serve-hot's request stream, served in each pass.
    hot_batches: int = 256
    hot_zipf: float = 1.1
    loop_datasets: int = 16
    loop_queries: int = 256
    #: Setups per run; setup_s reports their median.
    setups: int = 3


FULL = Sizes()
#: Seconds-scale sizes for the self-test (test_bench.py).
SMOKE = Sizes(offline_seeds=(0,), offline_corpus=2, offline_passes=1,
              quality_seeds=(0,), quality_train=16, quality_heldout=3,
              serve_bases=24, cold_rcs=48, hot_rcs=1200,
              cold_requests=12, warmup_requests=2, checked_requests=6,
              hot_working_set=16, hot_batches=8, loop_datasets=2,
              loop_queries=12, setups=1)


class NullTracer:
    """Stands in for :class:`trace.Tracer` in untraced runs."""

    request_id = None

    def span(self, name):
        return contextlib.nullcontext()

    phase = span


#: Times are reported at the machine speed at which :func:`calibrate`
#: takes this long (see :func:`end_to_end`).
REFERENCE_S = 0.001


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work, about
    1 ms on an unloaded 2 GHz Xeon core."""
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    matrix = np.full((48, 48), 1.0)
    for _ in range(20):
        matrix = matrix @ matrix * 1e-3 + 1.0
    return time.perf_counter() - start


class SpeedSampler:
    """Calibrates the machine's speed all through a run.

    A SIGALRM timer runs :func:`calibrate` in the main thread every
    ``interval_s`` of wall time, between two Python bytecodes of whatever
    the program is doing, and records how long it took.  The time spent
    calibrating is taken out of every measurement.
    """

    def __init__(self, interval_s: float = 0.025) -> None:
        self.interval_s = interval_s
        self.samples_s: list[float] = [calibrate()]
        self.paused_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples_s.append(calibrate())
        self.paused_s += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def mark(self) -> tuple[float, float, int]:
        """(now, calibrating time so far, calibrations so far), read with
        no calibration in between."""
        while True:
            paused_s, count = self.paused_s, len(self.samples_s)
            now = time.perf_counter()
            if self.paused_s == paused_s:
                return now, paused_s, count

    def since(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """(seconds of program time since ``mark``, the same at reference
        speed), scaled by the calibrations made during it and the one
        just before it."""
        start, paused_s, first = mark
        end, paused_end_s, _ = self.mark()
        seconds = end - start - (paused_end_s - paused_s)
        speed = statistics.fmean(self.samples_s[first - 1:])
        return seconds, seconds * REFERENCE_S / speed


@dataclass
class Run:
    """Everything one workload run needs and reports."""

    seed: int
    seconds: float
    sizes: Sizes
    tracer: object
    scratch: Path
    sampler: SpeedSampler
    #: Per set-up and per successful timed call: seconds as measured, and
    #: at reference speed.
    setup_s: list[float] = field(default_factory=list)
    setup_ref_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    latencies_ref_s: list[float] = field(default_factory=list)
    #: Operations completed: datasets labelled, requests served, queries run.
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    #: Passes made even when ``seconds`` runs out sooner.
    min_passes: int = 1
    #: Percentile reported as ``latency_tail_ms``: the highest with at
    #: least ten samples beyond it in a default-length run.
    tail_percentile: float = 99.0
    peak_rss_mb: float = 0.0
    answer_quality: float = 0.0

    def __post_init__(self) -> None:
        self.checks: list[tuple[str, bool]] = []
        self.info: dict[str, object] = {}

    def check(self, description: str, passed: bool) -> None:
        self.checks.append((description, bool(passed)))

    def setup(self, build):
        """Run ``build`` ``sizes.setups`` times; keep the last result."""
        result = None
        for _ in range(self.sizes.setups):
            result = None  # let the previous state go before rebuilding
            mark = self.sampler.mark()
            with self.tracer.phase(tracing.SETUP):
                result = build()
            seconds, ref_s = self.sampler.since(mark)
            self.setup_s.append(seconds)
            self.setup_ref_s.append(ref_s)
        return result

    def request(self, op, units: int = 1):
        """Time one program call and return its result.

        An exception is counted as a failed request and returns None.
        """
        request_id = self.attempted
        self.attempted += 1
        self.tracer.request_id = request_id
        mark = self.sampler.mark()
        try:
            with self.tracer.span(tracing.REQUEST):
                result = op()
        except Exception as error:  # noqa: BLE001 - counted as a failure
            self.failed += 1
            print(f"request {request_id} failed: {error!r}", file=sys.stderr)
            return None
        finally:
            self.tracer.request_id = None
        seconds, ref_s = self.sampler.since(mark)
        self.latencies_s.append(seconds)
        self.latencies_ref_s.append(ref_s)
        self.completed += units
        return result

    def measure(self, one_pass) -> None:
        """Call ``one_pass()`` until ``seconds`` have passed; every pass
        serves the same items in the same order, so the mix of cheap and
        costly calls does not depend on how many passes fit."""
        started = time.perf_counter()
        with self.tracer.phase(tracing.MEASURE):
            while (time.perf_counter() - started < self.seconds
                   or self.passes < self.min_passes):
                one_pass()
                self.passes += 1
        self.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0)


# ----------------------------------------------------------------------
# Frozen labels
# ----------------------------------------------------------------------
def train_spec_seed(seed: int, index: int) -> int:
    """Spec seed of ``repro train --seed seed``'s ``index``-th dataset."""
    return seed * 1_000_003 + index


def heldout_spec_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + 500_000 + index


def load_frozen(seed: int) -> dict:
    with open(DATA / f"labels_seed{seed}.json") as handle:
        return json.load(handle)


def frozen_label(entry: dict) -> DatasetLabel:
    return DatasetLabel(tuple(CANDIDATE_MODELS), entry["qerror_means"],
                        entry["latency_means"])


def regen_labels() -> None:
    """Label the frozen corpora with the fast testbed and rewrite them."""
    for seed in FROZEN_SEEDS:
        config = cli.fast_testbed_config(seed)
        frozen = {"seed": seed, "testbed": f"fast_testbed_config({seed})",
                  "models": list(CANDIDATE_MODELS)}
        for part, count, spec_seed in (
                ("train", FULL.quality_train, train_spec_seed),
                ("heldout", FULL.quality_heldout, heldout_spec_seed)):
            entries = []
            for index in range(count):
                spec = random_spec(spec_seed(seed, index))
                label = run_testbed(generate_dataset(spec), config=config)
                entries.append({
                    "spec_seed": spec.seed, "name": spec.name,
                    "qerror_means": label.qerror_means.tolist(),
                    "latency_means": label.latency_means.tolist()})
                print(f"seed {seed} {part} {index + 1}/{count}", flush=True)
            frozen[part] = entries
        with open(DATA / f"labels_seed{seed}.json", "w") as handle:
            json.dump(frozen, handle, indent=1)
            handle.write("\n")


def heldout_quality(sizes: Sizes) -> tuple[float, float]:
    """(mean clipped D-error, mean score share) on the frozen held-out sets.

    For each frozen corpus an advisor is fitted on its frozen train labels
    and asked for every held-out dataset at every weight of the grid.  The
    score share of a pick is S_pick / S_opt (Eq. 2); 1 means optimal.
    """
    errors: list[float] = []
    shares: list[float] = []
    for seed in sizes.quality_seeds:
        frozen = load_frozen(seed)
        train = frozen["train"][:sizes.quality_train]
        advisor = AutoCE(AutoCEConfig(seed=seed)).fit(
            [generate_dataset(random_spec(e["spec_seed"])) for e in train],
            [frozen_label(e) for e in train])
        for entry in frozen["heldout"][:sizes.quality_heldout]:
            graph = advisor.featurize(
                generate_dataset(random_spec(entry["spec_seed"])))
            label = frozen_label(entry)
            for weight in WEIGHT_GRID:
                pick = advisor.recommend(graph, accuracy_weight=weight).model
                scores = label.score_vector(weight)
                errors.append(label.d_error(pick, weight))
                shares.append(scores[label.index_of(pick)] / scores.max())
    return float(np.mean(errors)), float(np.mean(shares))


# ----------------------------------------------------------------------
# offline: repro train, labeling included
# ----------------------------------------------------------------------
def run_offline(run: Run) -> None:
    """``repro train --fast`` on the frozen corpora, one call per corpus.

    Each call labels its corpus from an empty cache.  The corpora do not
    follow ``--seed``: labeling time depends on which datasets are drawn
    (24-dataset corpora of six seeds took 7.6 to 12.2 s), more than the
    metric's bound allows.
    """
    sizes = run.sizes
    corpus = sizes.offline_corpus
    run.min_passes = sizes.offline_passes
    exit_codes: dict[int, list] = {seed: [] for seed in sizes.offline_seeds}
    # The label cache of each corpus's latest call.
    caches: dict[int, Path] = {}

    def one_pass() -> None:
        for seed in sizes.offline_seeds:
            caches[seed] = run.scratch / f"label-cache-{run.attempted}"
            argv = ["train", "--corpus", str(corpus), "--fast", "--cache",
                    str(caches[seed]), "--out",
                    str(run.scratch / f"advisor-{seed}.npz"),
                    "--seed", str(seed)]
            exit_codes[seed].append(run.request(lambda: cli.main(argv),
                                                units=corpus))

    run.measure(one_pass)
    run.check("every repro train call exits 0",
              all(code == 0 for codes in exit_codes.values()
                  for code in codes))
    for seed in sizes.offline_seeds:
        if exit_codes[seed][-1] != 0:
            continue
        advisor = load_advisor(str(run.scratch / f"advisor-{seed}.npz"))
        run.check(f"seed {seed}: the saved advisor loads with every corpus "
                  "member", len(advisor.rcs) == corpus)
        config = CorpusConfig(num_datasets=corpus, base_seed=seed,
                              testbed=cli.fast_testbed_config(seed))
        entries = DiskCache(caches[seed]).get(config.cache_key())
        frozen = load_frozen(seed)["train"][:corpus]
        run.check(f"seed {seed}: live Q-error means equal the frozen labels "
                  "(rtol 1e-9)",
                  entries is not None and len(entries) == corpus and all(
                      np.allclose(e.label.qerror_means, f["qerror_means"],
                                  rtol=1e-9, atol=0.0)
                      for e, f in zip(entries, frozen)))
    derror, share = heldout_quality(run.sizes)
    run.answer_quality = share
    run.info["heldout_derror"] = derror


# ----------------------------------------------------------------------
# serve-cold / serve-hot: one advisor, two request paths
# ----------------------------------------------------------------------
@dataclass
class ServeInputs:
    bases: list
    labels: list[DatasetLabel]
    members: list[FeatureGraph]
    member_labels: list[DatasetLabel]


def perturbed(graph: FeatureGraph, rng: np.random.Generator,
              name: str) -> FeatureGraph:
    noise = rng.normal(0.0, 0.05, size=graph.vertices.shape)
    return FeatureGraph(name, graph.vertices + noise, graph.edges)


def serve_inputs(sizes: Sizes, rcs_size: int) -> ServeInputs:
    """The frozen-label datasets as bases, plus RCS members.

    The serve advisor is trained on every frozen corpus (train and
    held-out), the testbed labels a deployed advisor would have; random
    synthetic labels collapse the encoder's embeddings to zero.  The RCS
    holds the bases plus perturbed copies of them (vertex noise 0.05,
    labels copied), which grows it to ``rcs_size``.

    None of this follows ``--seed``: like a deployed advisor, the served
    system is fixed and the seed varies the traffic.  Search work per
    request depends on the RCS layout around it, so a seed that moved the
    members would move the latency by more than its bound.
    """
    rng = np.random.default_rng(0)
    count = sizes.serve_bases
    entries = [entry for seed in FROZEN_SEEDS
               for part in ("train", "heldout")
               for entry in load_frozen(seed)[part]][:count]
    bases = [generate_dataset(random_spec(entry["spec_seed"]))
             for entry in entries]
    labels = [frozen_label(entry) for entry in entries]
    graphs = [build_feature_graph(dataset) for dataset in bases]
    members = list(graphs)
    member_labels = list(labels)
    for i in range(rcs_size - count):
        members.append(perturbed(graphs[i % count], rng, f"copy{i}"))
        member_labels.append(labels[i % count])
    return ServeInputs(bases, labels, members, member_labels)


def build_serving(inputs: ServeInputs):
    """Fit the advisor and build the RCS over the grown member set.

    The advisor's own seed is fixed, as a deployed advisor is: a seed that
    changed the embeddings would change how much work candidate search
    does per query, which the seed-to-seed spread must not reflect.
    """
    advisor = AutoCE(AutoCEConfig(seed=0)).fit(inputs.bases, inputs.labels)
    rcs = RecommendationCandidateSet(
        advisor.encoder.embed(inputs.members), inputs.member_labels,
        ann=advisor.config.ann, quantization=advisor.config.quantization)
    return advisor, rcs


def request_library(count: int) -> list[Path]:
    """``count`` dataset files, written once per checkout.

    The library does not follow ``--seed``: a request's cost (load +
    featurize) depends on the dataset drawn, so a fixed library keeps the
    metric steady across seeds.
    """
    directory = WORK / f"requests-{count}"
    if not (directory / "complete").exists():
        staging = WORK / f"requests-{count}.{os.getpid()}.tmp"
        staging.mkdir(parents=True, exist_ok=True)
        for i in range(count):
            save_dataset(generate_dataset(random_spec(REQUEST_SEED + i)),
                         str(staging / f"{i:05d}.npz"))
        (staging / "complete").touch()
        try:
            staging.rename(directory)
        except OSError:  # another run published the library first
            shutil.rmtree(staging)
    return sorted(directory.glob("*.npz"))


def serve_cold_request(advisor: AutoCE, path: Path) -> str:
    """The per-dataset work of ``repro recommend``."""
    dataset = load_dataset(str(path))
    advisor.is_drifted(dataset)
    return advisor.recommend(dataset, accuracy_weight=WEIGHT).model


def run_serve_cold(run: Run) -> None:
    """Each pass requests every library file once, in the seed's order.

    The embedding cache is cleared before each pass, so every request
    misses it once (``is_drifted`` embeds and stores the graph) and hits
    it once (``recommend`` featurizes again and finds the entry).
    """
    sizes = run.sizes
    run.tail_percentile = 95.0  # ~350 requests in a 10 s run
    inputs = serve_inputs(sizes, sizes.cold_rcs)
    library = request_library(sizes.warmup_requests + sizes.cold_requests)
    warmup = library[:sizes.warmup_requests]
    timed = [library[sizes.warmup_requests + i] for i in
             np.random.default_rng(run.seed).permutation(sizes.cold_requests)]

    def build():
        advisor, rcs = build_serving(inputs)
        fitted_rcs, advisor.rcs = advisor.rcs, rcs
        return advisor, fitted_rcs

    advisor, fitted_rcs = run.setup(build)
    for path in warmup:
        serve_cold_request(advisor, path)
    picks: dict[Path, str] = {}

    def one_pass() -> None:
        advisor.embedding_cache.clear()
        for path in timed:
            pick = run.request(lambda: serve_cold_request(advisor, path))
            if pick is not None:
                picks[path] = pick

    run.measure(one_pass)

    checked = [path for path in timed if path in picks]
    checked = checked[:sizes.checked_requests]
    served = [picks[path] for path in checked]
    batch: list[str] = []
    for i in range(0, len(checked), 16):
        datasets = [load_dataset(str(path)) for path in checked[i:i + 16]]
        batch += [rec.model for rec in advisor.recommend_batch(
            datasets, accuracy_weight=WEIGHT)]
    run.check(f"Q=1 picks equal recommend_batch picks ({len(checked)} "
              "requests)", served == batch)
    # save_advisor persists the fitted advisor; the grown RCS is rebuilt
    # from the reloaded encoder, as it was built in setup.
    grown_rcs, advisor.rcs = advisor.rcs, fitted_rcs
    save_advisor(advisor, str(run.scratch / "advisor.npz"))
    advisor.rcs = grown_rcs
    reloaded = load_advisor(str(run.scratch / "advisor.npz"))
    reloaded.rcs = RecommendationCandidateSet(
        reloaded.encoder.embed(inputs.members), inputs.member_labels,
        ann=reloaded.config.ann, quantization=reloaded.config.quantization)
    run.check("save_advisor -> load_advisor picks equal the served picks",
              served == [serve_cold_request(reloaded, p) for p in checked])
    if served:
        run.answer_quality = float(np.mean([a == b for a, b
                                            in zip(served, batch)]))


def run_serve_hot(run: Run) -> None:
    """Each pass serves the same batches, in the seed's order.

    An untimed pass first puts every requested graph in the embedding
    cache, so every timed lookup hits it.
    """
    sizes = run.sizes
    inputs = serve_inputs(sizes, sizes.hot_rcs)
    # Request r perturbs base r (mod the base count) and has popularity
    # rank r.  The batches are drawn once, and the seed orders them: with
    # the seed drawing the batches, one seed's p50 read 25-30% below the
    # others' in two series of ten seeds.
    rng = np.random.default_rng(1)
    working = [perturbed(inputs.members[r % len(inputs.bases)], rng,
                         f"request{r}")
               for r in range(sizes.hot_working_set)]
    ranks = np.arange(1, len(working) + 1, dtype=np.float64)
    popularity = ranks ** -sizes.hot_zipf
    batches = rng.choice(len(working),
                         size=(sizes.hot_batches, sizes.hot_batch),
                         p=popularity / popularity.sum())
    batches = batches[np.random.default_rng(run.seed).permutation(
        sizes.hot_batches)]

    advisor, rcs = run.setup(lambda: build_serving(inputs))
    served: list[tuple[int, str]] = []

    def serve(ids) -> list[str]:
        embeddings = advisor.embed_many([working[int(i)] for i in ids])
        return [rec.model for rec in advisor.predictor.recommend_batch(
            embeddings, rcs, WEIGHT)]

    for ids in batches:  # untimed warm-up pass: fills the embedding cache
        serve(ids)

    def one_pass() -> None:
        for ids in batches:
            picks = run.request(lambda: serve(ids), units=sizes.hot_batch)
            if picks is not None:
                served.extend(zip(ids.tolist(), picks))

    run.measure(one_pass)

    fresh = advisor.encoder.embed(working)
    lsh = [rec.model for rec in advisor.predictor.recommend_batch(
        fresh, rcs, WEIGHT)]
    run.check("cache-hit picks equal picks from fresh embeddings",
              all(lsh[i] == pick for i, pick in served))
    exact_rcs = RecommendationCandidateSet(rcs.embeddings, rcs.labels)
    exact = [rec.model for rec in advisor.predictor.recommend_batch(
        fresh, exact_rcs, WEIGHT)]
    run.answer_quality = float(np.mean([exact[i] == lsh[i]
                                        for i in batches.ravel()]))
    run.info["index"] = type(rcs.index).__name__ if rcs.index else "none"


# ----------------------------------------------------------------------
# optimizer-loop: the advisor picks, the optimizer plans and executes
# ----------------------------------------------------------------------
@dataclass
class Session:
    """One loop dataset: its queries, picked model, optimizer, executor."""

    dataset: object
    queries: list
    pick: str
    model: object
    optimizer: Optimizer
    executor: Executor


def sub_templates(dataset, queries) -> list[tuple[str, ...]]:
    """Every connected sub-plan of the queries (bench_e2e_loop's rule)."""
    templates = set()
    for query in queries:
        tables = set(query.template)
        for candidate in dataset.connected_subsets():
            if set(candidate) <= tables:
                templates.add(candidate)
    return sorted(templates)


def run_optimizer_loop(run: Run) -> None:
    """Advisor on the frozen seed-0 corpus, picks for fixed datasets.

    The loop datasets and the advisor do not follow ``--seed``: per-query
    latency depends on which model is picked (0.1-1.5 ms), so a seed that
    changed the picks would move the metric more than its bound.  The seed
    draws the queries and seeds the picked models' training.
    """
    sizes = run.sizes
    frozen = load_frozen(0)["train"][:sizes.quality_train]
    corpus = [generate_dataset(random_spec(e["spec_seed"])) for e in frozen]
    corpus_labels = [frozen_label(e) for e in frozen]
    datasets = [generate_dataset(random_spec(LOOP_SEED + j,
                                             ranges=LOOP_RANGES))
                for j in range(sizes.loop_datasets)]
    testbed = cli.fast_testbed_config(run.seed)
    # Queries cover every join template of their dataset, so the mix of
    # cheap single-table and expensive join queries does not follow the
    # seed (by default a seed draws six templates).
    workloads = [generate_workload(
        dataset, num_train=testbed.num_train_queries,
        num_test=sizes.loop_queries, seed=run.seed * 1_000 + j,
        max_templates=len(dataset.connected_subsets()))
        for j, dataset in enumerate(datasets)]

    def build():
        advisor = AutoCE(AutoCEConfig(seed=0)).fit(corpus, corpus_labels)
        sessions = []
        for dataset, workload in zip(datasets, workloads):
            provider = AdvisorProvider(advisor, dataset,
                                       testbed.build_candidates(),
                                       accuracy_weight=WEIGHT)
            pick = provider.pick()
            model = provider.models[pick]
            with run.tracer.span("ce.pick.fit"):
                model.fit(TrainingContext.build(
                    dataset, workload, seed=run.seed,
                    sample_size=testbed.sample_size))
                if isinstance(model, TemplateModel):
                    model.prepare_templates(
                        sub_templates(dataset, workload.test))
            sessions.append(Session(dataset, workload.test, pick, model,
                                    Optimizer(dataset), Executor(dataset)))
        return advisor, sessions

    advisor, sessions = run.setup(build)

    plans: list[list] = [[] for _ in sessions]
    wrong_rows = 0

    def one_pass(timed: bool = True) -> None:
        """Plan and execute every query; the untimed pass keeps the plans."""
        nonlocal wrong_rows
        for session, session_plans in zip(sessions, plans):
            # A fresh provider per pass: its sub-plan memo starts empty.
            provider = AdvisorProvider(advisor, session.dataset,
                                       {session.pick: session.model},
                                       accuracy_weight=WEIGHT)
            provider.pick()
            for query in session.queries:
                def op(query=query, session=session, provider=provider):
                    planned = session.optimizer.plan(query, provider)
                    return planned.plan, session.executor.execute(
                        planned.plan).rows

                outcome = run.request(op) if timed else op()
                if outcome is not None:
                    wrong_rows += outcome[1] != query.true_cardinality
                    if not timed:
                        session_plans.append(outcome[0])

    one_pass(timed=False)  # also warms lazy sorted indexes and template fits
    run.measure(one_pass)

    run.check("every executed plan returns the true cardinality",
              wrong_rows == 0)
    optimal = chosen = 0.0
    cheapest = True
    for session, session_plans in zip(sessions, plans):
        oracle = TrueCardProvider(session.dataset)
        for query, plan in zip(session.queries, session_plans):
            best = session.optimizer.plan(query, oracle).cost
            cost = recost_plan(plan, session.dataset, oracle)
            cheapest &= cost >= best * (1.0 - 1e-9)
            optimal += best
            chosen += cost
    run.check("no advisor plan is cheaper than the TrueCard plan", cheapest)
    run.answer_quality = optimal / chosen
    run.info["plan_cost_ratio"] = chosen / optimal
    run.info["picks"] = ",".join(session.pick for session in sessions)


RUNNERS = {"offline": run_offline, "serve-cold": run_serve_cold,
           "serve-hot": run_serve_hot, "optimizer-loop": run_optimizer_loop}


# ----------------------------------------------------------------------
def timings(setup_s: float, latencies_s: list[float], completed: int,
            percentile: float) -> tuple[float, float, float, float]:
    """(setup s, p50 ms, tail ms, operations per second of call time);
    0 for the call metrics when no call succeeded."""
    if not latencies_s:
        return setup_s, 0.0, 0.0, 0.0
    latencies_ms = np.asarray(latencies_s) * 1000.0
    return (setup_s, float(np.median(latencies_ms)),
            float(np.percentile(latencies_ms, percentile)),
            completed / float(np.sum(latencies_s)))


def end_to_end(run: Run, import_ref_s: float) -> dict[str, dict]:
    """The end-to-end metrics, with times at reference speed.

    The machine's speed swings by up to 1.6x within a second and between
    minutes, with other tenants' load, so a time as measured says as much
    about that load as about the program.  Each set-up and timed call is
    therefore scaled by the calibrations made during it and just before it
    (:class:`SpeedSampler`): a call reported as 1 ms took as long as the
    calibration kernel would at :data:`REFERENCE_S`.  Slowdowns from load
    stretch the call and the calibration alike and cancel; a change to the
    program stretches only the call.  The same metrics as measured, less
    the calibrations' own time, are kept in ``info``.
    """
    setup_s = statistics.median(run.setup_s) if run.setup_s else 0.0
    setup_ref_s = (statistics.median(run.setup_ref_s) if run.setup_ref_s
                   else 0.0)
    raw = timings(IMPORT_S + setup_s, run.latencies_s, run.completed,
                  run.tail_percentile)
    ref = timings(import_ref_s + setup_ref_s, run.latencies_ref_s,
                  run.completed, run.tail_percentile)
    names = ("setup_s", "latency_p50_ms", "latency_tail_ms", "throughput")
    units = ("s", "ms", "ms", "1/s")
    run.info.update({f"measured_{name}": value
                     for name, value in zip(names, raw)})
    calibrations_ms = np.asarray(run.sampler.samples_s) * 1000.0
    run.info.update(passes=run.passes, calibrations=len(calibrations_ms),
                    calibration_ms=[float(q) for q in np.percentile(
                        calibrations_ms, (0, 50, 100))])
    return {
        **{name: {"value": value, "unit": unit}
           for name, value, unit in zip(names, ref, units)},
        "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB"},
        "answer_quality": {"value": run.answer_quality, "unit": "ratio"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=RUNNERS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--result", help="where to write the result JSON")
    parser.add_argument("--trace-out", help="where to write trace.json")
    parser.add_argument("--regen-labels", action="store_true")
    args = parser.parse_args(argv)
    if args.regen_labels:
        regen_labels()
        return 0

    # The imports ran before any calibration: scale them by the nearest.
    import_ref_s = IMPORT_S * REFERENCE_S / statistics.median(
        calibrate() for _ in range(5))
    tracer = tracing.Tracer() if args.trace else NullTracer()
    if args.trace:
        tracing.install(tracer)
    run = Run(seed=args.seed, seconds=args.seconds,
              sizes=SMOKE if args.smoke else FULL, tracer=tracer,
              scratch=WORK / f"run-{args.workload}-{os.getpid()}",
              sampler=SpeedSampler())
    run.scratch.mkdir(parents=True, exist_ok=True)
    run.sampler.start()
    try:
        RUNNERS[args.workload](run)
    finally:
        run.sampler.stop()
        if args.trace:
            tracer.uninstall()
        shutil.rmtree(run.scratch, ignore_errors=True)
    run.check("every timed call succeeded",
              run.failed == 0 and run.attempted > 0)
    wall_s = time.perf_counter() - START
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": all(passed for _, passed in run.checks),
        "attempted": run.attempted, "failed": run.failed,
        "checks": run.checks, "end_to_end": end_to_end(run, import_ref_s),
        "info": {**run.info, "samples": len(run.latencies_s),
                 "tail_percentile": run.tail_percentile,
                 "setups": run.setup_s, "import_s": IMPORT_S,
                 "wall_s": wall_s},
    }
    if args.trace:
        result["per_layer"] = tracing.per_layer_metrics(tracer)
        result["span_summary"] = tracing.span_summary(tracer, wall_s)
        if args.trace_out:
            tracer.dump(args.trace_out, workload=args.workload,
                        seed=args.seed, wall_s=wall_s)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
