"""Shared resources and helpers for the evaluation-section experiments.

An :class:`ExperimentSuite` lazily builds (and memoizes) the expensive
shared artifacts — the labeled training corpus, the held-out test corpus
(labeled with the Fig. 9 comparison baselines included), the trained AutoCE
advisor and the trained selection baselines — so each benchmark pays only
for what it uses, and the labeling pass is shared via the disk cache.

Scale knobs (environment variables):
  ``REPRO_CORPUS``  training datasets (default 200; the paper uses 1 000)
  ``REPRO_TEST``    held-out test datasets (default 40; the paper uses 200)
"""

from __future__ import annotations

from ..core.advisor import AutoCE, AutoCEConfig
from ..core.selection_baselines import (MLPSelector, RawFeatureKnnSelector,
                                        RegressionSelector, RuleSelector)
from ..datagen.presets import (derive_subschemas, imdb_light_like,
                               stats_light_like)
from ..testbed.runner import TestbedConfig
from .corpus import (CorpusConfig, LabeledEntry, build_corpus, env_int,
                     label_datasets)

#: Model-name order used everywhere (candidates first, then baselines).
CANDIDATES = ("BayesCard", "DeepDB", "NeuroCard", "MSCN", "LW-NN", "LW-XGB", "UAE")


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Render a fixed-width text table (the harness' 'figure output')."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([f"{v:.4g}" if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(c.ljust(w) for c, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


class ExperimentSuite:
    """Lazily-built shared artifacts for all experiments."""

    def __init__(self, num_train: int | None = None, num_test: int | None = None,
                 cache_dir: str | None = None, seed: int = 0):
        self.num_train = num_train or env_int("REPRO_CORPUS", 200)
        self.num_test = num_test or env_int("REPRO_TEST", 40)
        self.cache_dir = cache_dir
        self.seed = seed
        self.testbed = TestbedConfig(seed=seed)
        self._memo: dict[str, object] = {}

    # ------------------------------------------------------------------
    def _cached(self, key: str, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # ------------------------------------------------------------------
    # Corpora
    # ------------------------------------------------------------------
    def train_corpus(self) -> list[LabeledEntry]:
        return self._cached("train_corpus", lambda: build_corpus(
            CorpusConfig(num_datasets=self.num_train, base_seed=self.seed,
                         testbed=self.testbed),
            cache_dir=self.cache_dir))

    def test_corpus(self) -> list[LabeledEntry]:
        """Held-out datasets labeled with Postgres + Ensemble included."""
        testbed = TestbedConfig(seed=self.seed, include_baselines=True)
        return self._cached("test_corpus", lambda: build_corpus(
            CorpusConfig(num_datasets=self.num_test, base_seed=self.seed + 77,
                         testbed=testbed),
            cache_dir=self.cache_dir))

    def test_graphs_and_labels(self):
        """Test graphs plus 7-candidate labels (renormalized)."""
        entries = self.test_corpus()
        graphs = [e.graph for e in entries]
        labels = [e.label.subset(list(CANDIDATES)) for e in entries]
        return graphs, labels

    # ------------------------------------------------------------------
    # Real-world suites (IMDB-20 / STATS-20 protocol)
    # ------------------------------------------------------------------
    def imdb20(self):
        def build():
            datasets = derive_subschemas(imdb_light_like(), count=20, seed=11)
            return datasets, *label_datasets(
                datasets, self.testbed, cache_dir=self.cache_dir,
                cache_tag="imdb20")
        return self._cached("imdb20", build)

    def stats20(self):
        def build():
            datasets = derive_subschemas(stats_light_like(), count=20, seed=22)
            return datasets, *label_datasets(
                datasets, self.testbed, cache_dir=self.cache_dir,
                cache_tag="stats20")
        return self._cached("stats20", build)

    # ------------------------------------------------------------------
    # Advisors
    # ------------------------------------------------------------------
    def autoce(self) -> AutoCE:
        """The default advisor, trained on the whole training corpus."""
        return self.autoce_variant("default", AutoCEConfig(seed=self.seed))

    def autoce_variant(self, key: str, config: AutoCEConfig,
                       fraction: float = 1.0) -> AutoCE:
        """A variant advisor (ablations); trained on a data fraction."""
        def build():
            entries = self.train_corpus()
            count = max(2, int(round(fraction * len(entries))))
            advisor = AutoCE(config)
            advisor.fit([e.graph for e in entries[:count]],
                        [e.label for e in entries[:count]])
            return advisor
        return self._cached(f"autoce_{key}", build)

    def baseline(self, name: str):
        """A fitted selection baseline: 'MLP', 'Rule', 'Knn', 'Without-DML'."""
        def build():
            entries = self.train_corpus()
            graphs = [e.graph for e in entries]
            labels = [e.label for e in entries]
            selector = {
                "MLP": lambda: MLPSelector(seed=self.seed),
                "Rule": lambda: RuleSelector(seed=self.seed),
                "Knn": lambda: RawFeatureKnnSelector(),
                "Without-DML": lambda: RegressionSelector(seed=self.seed),
            }[name]()
            selector.fit(graphs, labels)
            return selector
        return self._cached(f"baseline_{name}", build)


_DEFAULT_SUITE: ExperimentSuite | None = None


def get_suite() -> ExperimentSuite:
    """Process-wide default suite (shared across benchmarks)."""
    global _DEFAULT_SUITE
    if _DEFAULT_SUITE is None:
        _DEFAULT_SUITE = ExperimentSuite()
    return _DEFAULT_SUITE
