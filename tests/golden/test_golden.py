"""Golden-file regression: frozen corpus, frozen top-3 recommendations.

``corpus.npz`` freezes a small labeled corpus and a query set; the JSON
golden file freezes the top-3 recommendation ranking per query for each
serving tier (the exact scan and the int8 candidate tier).  Any kernel
change that silently moves a ranking — featurization, the GIN forward,
the DML loss, a distance kernel, the int8 calibration — fails the diff
here even when every behavioral test still passes.

After an *intentional* ranking change, regenerate with::

    PYTHONPATH=src python -m pytest tests/golden --regen-golden

and review the golden diff like any other code change.  The corpus file is
only written when missing (``.npz`` bytes are not reproducible; the
expectations are), so the inputs stay frozen while the expectations regen.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.core.graph import FeatureGraph
from repro.core.serving import ANNConfig, QuantizationConfig
from repro.testbed.scores import DatasetLabel

GOLDEN_DIR = Path(__file__).resolve().parent
CORPUS_FILE = GOLDEN_DIR / "corpus.npz"
EXPECTED_FILE = GOLDEN_DIR / "expected_top3.json"

MODELS = ("MSCN", "DeepDB", "BayesCard", "NeuroCard")
NUM_MEMBERS = 48
NUM_QUERIES = 12
TOP = 3
WEIGHT = 0.9


def _random_graph(rng: np.random.Generator, name: str, kind: int,
                  dim: int = 12) -> FeatureGraph:
    tables = int(rng.integers(1, 4))
    vertices = rng.normal(size=(tables, dim)) * 0.3
    vertices[:, 0] += {0: 2.0, 1: -2.0, 2: 0.0, 3: 4.0}[kind]
    vertices[:, 1] += {0: 0.0, 1: 1.5, 2: -1.5, 3: 1.0}[kind]
    edges = np.zeros((tables, tables))
    for t in range(1, tables):
        edges[t - 1, t] = float(rng.uniform(0.2, 0.9))
    return FeatureGraph(name, vertices, edges)


def build_frozen_corpus() -> dict[str, np.ndarray]:
    """The deterministic generator behind ``corpus.npz`` (seed-pinned)."""
    rng = np.random.default_rng(20260727)
    arrays: dict[str, np.ndarray] = {}
    qerror = np.empty((NUM_MEMBERS, len(MODELS)))
    latency = np.empty((NUM_MEMBERS, len(MODELS)))
    base_qerror = {0: [1.1, 3.0, 6.0, 9.0], 1: [9.0, 1.1, 3.0, 6.0],
                   2: [6.0, 9.0, 1.1, 3.0], 3: [3.0, 6.0, 9.0, 1.1]}
    for i in range(NUM_MEMBERS):
        kind = i % 4
        graph = _random_graph(rng, f"member{i}", kind)
        arrays[f"graph_{i}_vertices"] = graph.vertices
        arrays[f"graph_{i}_edges"] = graph.edges
        qerror[i] = (np.asarray(base_qerror[kind])
                     * rng.uniform(0.95, 1.05, len(MODELS)))
        latency[i] = rng.uniform(0.001, 0.01, len(MODELS))
    arrays["qerror"] = qerror
    arrays["latency"] = latency
    for j in range(NUM_QUERIES):
        graph = _random_graph(rng, f"query{j}", j % 4)
        arrays[f"query_{j}_vertices"] = graph.vertices
        arrays[f"query_{j}_edges"] = graph.edges
    return arrays


def load_corpus() -> tuple[list[FeatureGraph], list[DatasetLabel],
                           list[FeatureGraph]]:
    with np.load(CORPUS_FILE) as data:
        graphs = [FeatureGraph(f"member{i}", data[f"graph_{i}_vertices"],
                               data[f"graph_{i}_edges"])
                  for i in range(NUM_MEMBERS)]
        labels = [DatasetLabel(MODELS, data["qerror"][i], data["latency"][i])
                  for i in range(NUM_MEMBERS)]
        queries = [FeatureGraph(f"query{j}", data[f"query_{j}_vertices"],
                                data[f"query_{j}_edges"])
                   for j in range(NUM_QUERIES)]
    return graphs, labels, queries


def path_config(path: str) -> AutoCEConfig:
    config = AutoCEConfig(hidden_dim=16, embedding_dim=8, knn_k=3,
                          use_incremental=False,
                          dml=DMLConfig(epochs=4, batch_size=12), seed=0)
    if path == "exact":
        config.ann = ANNConfig(threshold=0)
    elif path == "quantized":
        config.ann = ANNConfig(threshold=8)
        config.quantization = QuantizationConfig(overfetch=4)
    else:
        raise ValueError(path)
    return config


PATHS = ("exact", "quantized")


def compute_top3(path: str) -> list[list[str]]:
    graphs, labels, queries = load_corpus()
    advisor = AutoCE(path_config(path))
    advisor.fit(graphs, labels)
    recs = advisor.recommend_batch(queries, WEIGHT)
    return [[name for name, _ in rec.ranking()[:TOP]] for rec in recs]


@pytest.fixture(scope="module", autouse=True)
def frozen_corpus_file(request):
    """The corpus file is frozen; materialize it only if it is missing."""
    if not CORPUS_FILE.exists():
        if not request.config.getoption("--regen-golden"):
            pytest.fail(f"{CORPUS_FILE} is missing; regenerate it with "
                        "--regen-golden and commit it")
        np.savez_compressed(CORPUS_FILE, **build_frozen_corpus())


class TestGoldenRecommendations:
    def test_corpus_file_matches_its_generator(self):
        """The committed corpus must be the generator's output — a drifted
        generator would make --regen-golden silently rebuild different
        inputs next time the file is recreated."""
        regenerated = build_frozen_corpus()
        with np.load(CORPUS_FILE) as data:
            assert sorted(data.files) == sorted(regenerated)
            for key, value in regenerated.items():
                np.testing.assert_array_equal(data[key], value)

    @pytest.mark.parametrize("path", PATHS)
    def test_top3_recommendations_match_golden(self, path, regen_golden):
        actual = compute_top3(path)
        if regen_golden:
            expected = (json.loads(EXPECTED_FILE.read_text())
                        if EXPECTED_FILE.exists() else {"paths": {}})
            expected.setdefault("paths", {})[path] = actual
            expected["k"] = TOP
            expected["accuracy_weight"] = WEIGHT
            expected["paths"] = {p: expected["paths"][p]
                                 for p in sorted(expected["paths"])}
            EXPECTED_FILE.write_text(json.dumps(expected, indent=2,
                                                sort_keys=True) + "\n")
            pytest.skip(f"regenerated golden top-3 for {path!r}")
        assert EXPECTED_FILE.exists(), \
            "golden file missing; run with --regen-golden and commit it"
        expected = json.loads(EXPECTED_FILE.read_text())
        assert expected["paths"][path] == actual, (
            f"top-3 recommendations drifted on the {path!r} serving path; "
            "if the ranking change is intentional, regenerate with "
            "--regen-golden and review the diff")
