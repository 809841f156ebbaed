"""Labeled corpus construction with disk caching (Stage 1 at scale).

The paper labels 1 200 synthetic datasets.  Here a corpus is a list of
:class:`LabeledEntry` — dataset spec + feature graph + testbed label — built
deterministically from a :class:`CorpusConfig` and cached on disk so that
every benchmark and experiment shares a single labeling pass.

The corpus size defaults (200 training / 40 held-out) keep a full labeling
pass under ~15 CPU-minutes; set the environment variables ``REPRO_CORPUS``
and ``REPRO_TEST`` to scale the experiments up towards the paper's setup
(1 000 / 200).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..core.graph import DEFAULT_MAX_COLUMNS, FeatureGraph, build_feature_graph
from ..datagen.multi_table import generate_dataset
from ..datagen.spec import DEFAULT_RANGES, DatasetSpec, random_spec
from ..db.schema import Dataset
from ..testbed.runner import TestbedConfig, run_testbed
from ..testbed.scores import DatasetLabel
from ..utils.cache import DiskCache, stable_hash

#: Bump when labeling semantics change, to invalidate stale caches.
_CACHE_VERSION = 4

DEFAULT_CACHE_DIR = os.environ.get(
    "REPRO_CACHE_DIR", os.path.join(os.path.dirname(__file__), "..", "..", "..",
                                    ".repro_cache"))


def env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


@dataclass
class CorpusConfig:
    """Deterministic description of a labeled corpus."""

    num_datasets: int = 60
    base_seed: int = 0
    ranges: dict | None = None
    testbed: TestbedConfig = field(default_factory=TestbedConfig)
    max_columns: int = DEFAULT_MAX_COLUMNS

    def cache_key(self) -> str:
        payload = {
            "version": _CACHE_VERSION,
            "num_datasets": self.num_datasets,
            "base_seed": self.base_seed,
            # Resolve the default ranges into the key so editing
            # DEFAULT_RANGES can never collide with a stale cache entry.
            "ranges": self.ranges or DEFAULT_RANGES,
            "testbed": vars(self.testbed),
            "max_columns": self.max_columns,
        }
        return "corpus_" + stable_hash(payload)


@dataclass
class LabeledEntry:
    """One labeled dataset: regenerable spec + feature graph + label."""

    spec: DatasetSpec
    graph: FeatureGraph
    label: DatasetLabel

    @property
    def name(self) -> str:
        return self.spec.name

    def dataset(self) -> Dataset:
        """Regenerate the full dataset (kept out of the cache for size)."""
        return generate_dataset(self.spec)


def label_one(spec: DatasetSpec, testbed: TestbedConfig,
              max_columns: int = DEFAULT_MAX_COLUMNS) -> LabeledEntry:
    dataset = generate_dataset(spec)
    graph = build_feature_graph(dataset, max_columns=max_columns)
    label = run_testbed(dataset, config=testbed)
    return LabeledEntry(spec=spec, graph=graph, label=label)


def build_corpus(config: CorpusConfig | None = None,
                 cache_dir: str | None = None,
                 progress: bool = False) -> list[LabeledEntry]:
    """Build (or load from cache) a labeled corpus."""
    config = config or CorpusConfig()
    cache = DiskCache(cache_dir or DEFAULT_CACHE_DIR)
    key = config.cache_key()

    def compute() -> list[LabeledEntry]:
        entries = []
        for i in range(config.num_datasets):
            spec = random_spec(config.base_seed * 1_000_003 + i,
                               ranges=config.ranges)
            entries.append(label_one(spec, config.testbed, config.max_columns))
            if progress:
                print(f"  labeled {i + 1}/{config.num_datasets}: {spec.name}",
                      flush=True)
        return entries

    return cache.get_or_compute(key, compute)


def label_datasets(datasets: list[Dataset], testbed: TestbedConfig | None = None,
                   max_columns: int = DEFAULT_MAX_COLUMNS,
                   cache_dir: str | None = None,
                   cache_tag: str | None = None):
    """Label concrete datasets (used for IMDB-20 / STATS-20 style suites).

    Returns parallel lists (graphs, labels).  When ``cache_tag`` is given,
    results are cached under that tag + testbed configuration.
    """
    testbed = testbed or TestbedConfig()

    def compute():
        graphs, labels = [], []
        for dataset in datasets:
            graphs.append(build_feature_graph(dataset, max_columns=max_columns))
            labels.append(run_testbed(dataset, config=testbed))
        return graphs, labels

    if cache_tag is None:
        return compute()
    cache = DiskCache(cache_dir or DEFAULT_CACHE_DIR)
    key = "labeled_" + stable_hash({
        "version": _CACHE_VERSION,
        "tag": cache_tag,
        "names": [d.name for d in datasets],
        "testbed": vars(testbed),
        "max_columns": max_columns,
    })
    return cache.get_or_compute(key, compute)
