"""Round-trip tests for advisor persistence (save_advisor / load_advisor)."""

from __future__ import annotations

import copy
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.core.graph import FeatureGraph
from repro.core.persistence import (FORMAT_VERSION, AdvisorLoadError,
                                    _config_from_dict, _config_to_dict,
                                    _label_from_dict, _label_to_dict,
                                    load_advisor, save_advisor)
from repro.core.serving import (ANNConfig, QuantizationConfig,
                                QuantizedStore, RecommendationCandidateSet,
                                serves_int8)
from repro.testbed.faults import FaultPlan
from repro.testbed.scores import WEIGHT_GRID, DatasetLabel, ScoreLabel

MODELS = ("A", "B", "C")
DATA = Path(__file__).resolve().parent / "data"


def legacy_metadata() -> dict:
    """The metadata block of the committed parent-build advisor save."""
    with np.load(DATA / "advisor_v2_ivf_pq.npz") as data:
        return json.loads(bytes(data["metadata"]).decode("utf-8"))


#: Every serving-config field the parent build wrote, with its value.
LEGACY_FIELDS = [
    (block, name, value)
    for block in ("ann", "quantization")
    for name, value in legacy_metadata()["config"][block].items()
]


def tiny_corpus(n=12, dim=10, seed=3):
    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for i in range(n):
        kind = i % 3
        tables = int(rng.integers(1, 4))
        vertices = rng.normal(size=(tables, dim)) * 0.3
        vertices[:, 0] += {0: 2.0, 1: -2.0, 2: 0.0}[kind]
        edges = np.zeros((tables, tables))
        for t in range(1, tables):
            edges[t - 1, t] = 0.4
        graphs.append(FeatureGraph(f"g{i}", vertices, edges))
        qerr = {0: [1.1, 3.0, 6.0], 1: [6.0, 1.1, 3.0], 2: [3.0, 6.0, 1.1]}[kind]
        labels.append(DatasetLabel(MODELS, qerr, [0.001, 0.002, 0.003],
                                   qerror_medians=[1.0, 2.0, 3.0],
                                   qerror_p95=[2.0, 5.0, 9.0],
                                   qerror_p99=[3.0, 8.0, 12.0]))
    return graphs, labels


@pytest.fixture(scope="module")
def fitted():
    graphs, labels = tiny_corpus()
    config = AutoCEConfig(hidden_dim=16, embedding_dim=8,
                          dml=DMLConfig(epochs=8, batch_size=6, seed=0),
                          use_incremental=False, seed=0)
    advisor = AutoCE(config)
    advisor.fit_graphs(graphs, labels)
    return advisor, graphs, labels


class TestRoundTrip:
    def test_recommendations_identical(self, fitted, tmp_path):
        advisor, graphs, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        for graph in graphs:
            for w in (1.0, 0.7, 0.3):
                a = advisor.recommend(graph, w)
                b = reloaded.recommend(graph, w)
                assert a.model == b.model
                np.testing.assert_allclose(a.score_vector, b.score_vector)

    def test_embeddings_identical(self, fitted, tmp_path):
        advisor, graphs, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        np.testing.assert_allclose(reloaded.embed(graphs[0]),
                                   advisor.embed(graphs[0]), rtol=1e-12)
        np.testing.assert_allclose(reloaded.rcs.embeddings,
                                   advisor.rcs.embeddings, rtol=1e-12)

    def test_config_round_trips(self, fitted, tmp_path):
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        assert reloaded.config == advisor.config

    def test_labels_keep_raw_statistics(self, fitted, tmp_path):
        advisor, _, labels = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        original, restored = labels[0], reloaded._labels[0]
        assert isinstance(restored, DatasetLabel)
        np.testing.assert_allclose(restored.qerror_means, original.qerror_means)
        np.testing.assert_allclose(restored.qerror_p99, original.qerror_p99)
        # D-error and percentile re-normalization still work post-reload.
        assert restored.d_error("A", 1.0) == original.d_error("A", 1.0)
        assert (restored.with_accuracy_metric("p95").best_model(1.0)
                == original.with_accuracy_metric("p95").best_model(1.0))

    def test_drift_detection_survives_reload(self, fitted, tmp_path):
        advisor, graphs, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        far = FeatureGraph("far", np.full((2, graphs[0].vertex_dim), 50.0),
                           np.zeros((2, 2)))
        assert advisor.is_drifted(far) == reloaded.is_drifted(far)

    def test_reloaded_advisor_can_adapt_online(self, fitted, tmp_path):
        advisor, graphs, labels = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        size_before = len(reloaded.rcs)
        reloaded.adapt_online(graphs[0], labels[0], update_epochs=1)
        assert len(reloaded.rcs) == size_before + 1


class TestErrors:
    def test_unfitted_advisor_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_advisor(AutoCE(), str(tmp_path / "nope.npz"))

    @pytest.mark.parametrize("members", [15, 12])
    def test_an_rcs_not_built_on_the_training_labels_is_refused_unwritten(
            self, fitted, tmp_path, members):
        """A save pairs the RCS rows with the training labels. An RCS grown
        past the training set, as benchmarks/e2e serves one, would save a
        file that load_advisor refuses; one of the same size over other
        labels would load and serve other picks."""
        advisor, graphs, labels = fitted
        order = [(i * 5) % len(graphs) for i in range(members)]
        served = copy.copy(advisor)
        served.rcs = RecommendationCandidateSet(
            advisor.encoder.embed([graphs[i] for i in order]),
            [labels[i] for i in order])
        path = tmp_path / "served.npz"
        with pytest.raises(ValueError,
                           match=f"RCS \\({members} members\\) is not built "
                                 "on its 12 training labels"):
            save_advisor(served, str(path))
        assert not path.exists()

    def test_version_mismatch_rejected(self, fitted, tmp_path):
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        metadata = json.loads(bytes(arrays["metadata"]).decode("utf-8"))
        metadata["format_version"] = FORMAT_VERSION + 999
        arrays["metadata"] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="format version"):
            load_advisor(path)

    def test_rows_and_labels_that_disagree_raise_typed(self, fitted,
                                                       tmp_path):
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["rcs_embeddings"] = arrays["rcs_embeddings"][:-1]
        np.savez(path, **arrays)
        with pytest.raises(AdvisorLoadError, match="align"):
            load_advisor(path)

    def test_previous_format_version_still_accepted(self, fitted, tmp_path):
        """v1 saves (pre-IVF, per-label JSON, no quantizer block) must keep
        loading: the version gate is a whitelist, not an equality check."""
        advisor, graphs, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        metadata = json.loads(bytes(arrays["metadata"]).decode("utf-8"))
        metadata["format_version"] = 1
        arrays["metadata"] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        reloaded = load_advisor(path)
        a = advisor.recommend(graphs[0], 0.9)
        b = reloaded.recommend(graphs[0], 0.9)
        assert a.model == b.model


class TestLabelPayloads:
    def test_score_label_round_trip(self):
        label = ScoreLabel(MODELS, sa=[1.0, 0.5, 0.0], se=[0.0, 0.5, 1.0])
        restored = _label_from_dict(_label_to_dict(label))
        assert not isinstance(restored, DatasetLabel)
        np.testing.assert_allclose(restored.sa, label.sa)
        np.testing.assert_allclose(restored.se, label.se)

    def test_dataset_label_with_missing_optionals(self):
        label = DatasetLabel(MODELS, [1, 2, 3], [0.1, 0.2, 0.3])
        restored = _label_from_dict(_label_to_dict(label))
        assert isinstance(restored, DatasetLabel)
        assert restored.qerror_p95 is None
        np.testing.assert_allclose(restored.qerror_means, [1, 2, 3])

    def test_reloaded_arrays_are_float64_ndarrays(self):
        label = DatasetLabel(MODELS, [1.5, 2.0, 3.0], [0.1, 0.2, 0.3],
                             qerror_medians=[1.0, 2.0, 3.0],
                             qerror_p95=[2.0, 5.0, 9.0],
                             qerror_p99=[3.0, 8.0, 12.0],
                             fit_times=[0.5, 0.6, 0.7])
        restored = _label_from_dict(_label_to_dict(label))
        for name in ("qerror_means", "latency_means", "qerror_medians",
                     "fit_times", "qerror_p95", "qerror_p99", "sa", "se"):
            value = getattr(restored, name)
            assert isinstance(value, np.ndarray), name
            assert value.dtype == np.float64, name

    def test_reloaded_label_behaves_identically(self):
        """Save → load → re-normalize: every derived quantity must match."""
        label = DatasetLabel(MODELS, [1.5, 2.0, 3.0], [0.1, 0.2, 0.3],
                             qerror_medians=[1.0, 2.0, 3.0],
                             qerror_p95=[2.0, 5.0, 9.0],
                             qerror_p99=[3.0, 8.0, 12.0])
        restored = _label_from_dict(_label_to_dict(label))
        for w in (1.0, 0.6, 0.0):
            np.testing.assert_array_equal(restored.score_vector(w),
                                          label.score_vector(w))
            assert restored.best_model(w) == label.best_model(w)
            for model in MODELS:
                assert restored.d_error(model, w) == label.d_error(model, w)
        for metric in ("median", "p95", "p99"):
            a = restored.with_accuracy_metric(metric)
            b = label.with_accuracy_metric(metric)
            np.testing.assert_array_equal(a.sa, b.sa)
            np.testing.assert_array_equal(a.se, b.se)
        # Array-indexed operations (fancy indexing would reject raw Python
        # lists if the load path ever stopped coercing) survive a reload.
        sub = restored.subset(["C", "A"])
        np.testing.assert_array_equal(sub.qerror_means, [3.0, 1.5])
        for weight in WEIGHT_GRID:
            np.testing.assert_array_equal(restored.score_vector(weight),
                                          label.score_vector(weight))


class TestCrashSafety:
    """Torn and corrupted advisor files (via the fault harness) either load
    fully or raise AdvisorLoadError — never a half-restored advisor."""

    def saved(self, fitted, tmp_path):
        advisor, graphs, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        return advisor, graphs, path

    def test_missing_file_raises_a_typed_error(self, tmp_path):
        with pytest.raises(AdvisorLoadError, match="cannot load advisor"):
            load_advisor(str(tmp_path / "never-written.npz"))

    def test_typed_error_is_a_value_error(self):
        assert issubclass(AdvisorLoadError, ValueError)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.7, 0.95])
    def test_torn_write_raises_instead_of_half_loading(self, fitted,
                                                       tmp_path, fraction):
        _, _, path = self.saved(fitted, tmp_path)
        FaultPlan(tear_fraction=fraction).tear_file(path)
        with pytest.raises(AdvisorLoadError):
            load_advisor(path)

    def test_corrupt_bytes_load_fully_or_raise_typed(self, fitted, tmp_path):
        advisor, graphs, path = self.saved(fitted, tmp_path)
        for seed in range(5):
            clean = str(tmp_path / f"clean{seed}.npz")
            save_advisor(advisor, clean)
            FaultPlan(seed=seed, corrupt_bytes=4).corrupt_file(clean)
            try:
                reloaded = load_advisor(clean)
            except AdvisorLoadError:
                continue
            # The flips happened to miss anything load-bearing: the advisor
            # must be *fully* restored, i.e. able to serve every graph.
            for graph in graphs[:3]:
                rec = reloaded.recommend(graph, 0.7)
                assert rec.model in MODELS

    @pytest.mark.parametrize("offset, mask, message", [
        (6, 0xFF, "zip file version"),
        (8, 0xFF, "flag bit 5"),
        (8, 0x01, "encrypted"),
        (10, 0xFF, "compression method"),
    ], ids=["version-needed", "flags", "encrypted-flag", "compression"])
    def test_flipped_zip_directory_field_raises_typed(
            self, fitted, tmp_path, offset, mask, message):
        """zipfile refuses these header values with NotImplementedError or
        RuntimeError rather than BadZipFile; the loader still answers with
        AdvisorLoadError, so `repro serve` exits 2 with one line."""
        _, _, path = self.saved(fitted, tmp_path)
        payload = bytearray(Path(path).read_bytes())
        entry = payload.find(b"PK\x01\x02")   # first central-directory entry
        assert entry > 0
        payload[entry + offset] ^= mask
        Path(path).write_bytes(bytes(payload))
        with pytest.raises(AdvisorLoadError, match=message) as info:
            load_advisor(path)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_dangling_array_member_raises_typed(self, fitted, tmp_path):
        # A "format-valid" zip missing a required member (e.g. a partial
        # copy) must not produce an advisor with half its weights.
        advisor, _, path = self.saved(fitted, tmp_path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "param_0"}
        np.savez_compressed(path, **arrays)
        with pytest.raises(AdvisorLoadError):
            load_advisor(path)


def rewrite_metadata(path: str, edit) -> None:
    """Re-save the advisor at ``path`` with ``edit`` applied to its
    metadata block."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    metadata = json.loads(bytes(arrays["metadata"]).decode("utf-8"))
    edit(metadata)
    arrays["metadata"] = np.frombuffer(
        json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def rewrite_config(path: str, edit) -> None:
    """Re-save the advisor at ``path`` with ``edit`` applied to its config."""
    rewrite_metadata(path, lambda metadata: edit(metadata["config"]))


class TestRemovedTierFields:
    """Saves from builds with the LSH / PQ / IVF tiers, the disk cache
    tier, the mixed-tier mode or the featurizer sketch carry their config
    fields; loading drops exactly those and nothing else."""

    def test_removed_fields_are_dropped(self, fitted, tmp_path):
        advisor, graphs, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)

        def add_removed(config):
            config.update(embedding_cache_dir="emb-cache",
                          serving_dtype="float64", featurize_sample_rows=256,
                          featurize_workers=4)
            config["dml"].update(use_tensor_cache=False)
            config["ann"].update(family="sign", num_tables=8, seed=0,
                                 e2lsh={"num_tables": 10, "radius": 0.0})
            config["quantization"].update(enabled=True, mode="pq",
                                          min_size=64, ivf=True, nprobe=8)

        rewrite_config(path, add_removed)
        node = load_advisor(path)
        assert node.config == advisor.config
        assert node.config.ann == advisor.config.ann
        assert node.config.quantization == advisor.config.quantization
        assert (node.recommend(graphs[0], 0.9).model
                == advisor.recommend(graphs[0], 0.9).model)

    @pytest.mark.parametrize("block, name", [
        ("config", "not_a_field"),
        ("ann", "not_a_field"),
        ("quantization", "not_a_field"),
        ("dml", "not_a_field"),
        # The drop list matches whole names: a prefix, a case variant or
        # a compound of removed names is still an unknown field.
        ("config", "embedding_cache"),
        ("config", "Serving_dtype"),
        ("ann", "e2lsh_radius"),
        ("ann", "Family"),
        ("quantization", "ivf_nprobe"),
        ("quantization", "pq_mode"),
        # Each block drops only its own removed names.
        ("ann", "serving_dtype"),
        ("config", "num_tables"),
        ("config", "use_tensor_cache"),
        ("dml", "featurize_workers"),
    ])
    def test_other_unknown_fields_still_fail(self, fitted, tmp_path, block,
                                             name):
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        rewrite_config(path, lambda config: (
            config if block == "config" else config[block]).update({name: 1}))
        with pytest.raises(AdvisorLoadError, match=name):
            load_advisor(path)

    @staticmethod
    def current_payload() -> dict:
        """A JSON-round-tripped config of this build, both blocks set."""
        config = AutoCEConfig(ann=ANNConfig(threshold=8),
                              quantization=QuantizationConfig(overfetch=4))
        return json.loads(json.dumps(_config_to_dict(config)))

    @pytest.mark.parametrize(
        "block, name, value", LEGACY_FIELDS,
        ids=[f"{block}-{name}" for block, name, _ in LEGACY_FIELDS])
    def test_every_legacy_field_loads_alone(self, block, name, value):
        """Each field a parent-build save carries loads on its own: a
        field this build still has takes the saved value, a removed one
        is dropped and leaves the block at this build's values."""
        payload = self.current_payload()
        expected = _config_from_dict(copy.deepcopy(payload))
        payload[block][name] = value
        config = _config_from_dict(payload)
        loaded = getattr(config, block)
        kept = {f.name for f in fields(loaded)}
        if name in kept:
            assert getattr(loaded, name) == value
        else:
            assert loaded == getattr(expected, block)


@pytest.mark.parametrize("fixture", [
    "advisor_v2_ivf_pq", "advisor_v2_mixed_tier", "advisor_v2_warm_int8"])
def test_committed_saves_drop_featurize_workers_and_use_tensor_cache(fixture):
    """Every committed save was written with ``featurize_workers`` and
    ``dml.use_tensor_cache``; both are dropped on load (each fixture's
    own test checks its picks)."""
    path = DATA / f"{fixture}.npz"
    with np.load(path) as data:
        saved = json.loads(bytes(data["metadata"]).decode("utf-8"))["config"]
    assert "featurize_workers" in saved
    assert "use_tensor_cache" in saved["dml"]
    config = load_advisor(path).config
    assert not hasattr(config, "featurize_workers")
    assert not hasattr(config.dml, "use_tensor_cache")
    assert {f.name for f in fields(config.dml)} == (
        set(saved["dml"]) - {"use_tensor_cache"})


def legacy_graph(rng, name, kind):
    tables = int(rng.integers(1, 4))
    vertices = rng.normal(size=(tables, 12)) * 0.3
    vertices[:, 0] += (2.0, -2.0, 0.0)[kind]
    vertices[:, 1] += (0.0, 1.5, -1.5)[kind]
    edges = np.zeros((tables, tables))
    for t in range(1, tables):
        edges[t - 1, t] = 0.5
    return FeatureGraph(name, vertices, edges)


def legacy_queries():
    """The query graphs the legacy fixture's picks were recorded on.

    The fixture advisor was fitted on the 48 member graphs drawn first
    from the same generator (3 families, labels favouring one model per
    family), with the exact index pinned at ``threshold=8`` and an IVF-PQ
    quantizer (4 subspaces × 16 centroids, 4 cells, nprobe 2) attached.
    """
    rng = np.random.default_rng(20261017)
    for i in range(48):
        legacy_graph(rng, f"member{i}", i % 3)
        rng.uniform(0.95, 1.05, 3)
        rng.uniform(0.001, 0.01, 3)
    return [legacy_graph(rng, f"query{j}", j % 3) for j in range(6)]


class TestLegacyQuantizerBlocks:
    def test_ivf_pq_save_loads_and_serves_its_picks(self):
        """A format-2 save with an IVF-PQ quantizer block, written by the
        last build that had that tier: the block is ignored, the int8
        store is rebuilt from the saved rows, and the picks recorded at
        save time still come back."""
        path = DATA / "advisor_v2_ivf_pq.npz"
        expected = json.loads(path.with_suffix(".json").read_text())
        with np.load(path) as data:
            metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
        assert metadata["format_version"] == FORMAT_VERSION == 2
        assert metadata["quantizer"]["kind"] == "ivf-pq"
        node = load_advisor(str(path))
        store = node.rcs.index
        assert isinstance(store, QuantizedStore)
        np.testing.assert_array_equal(
            store.codes, QuantizedStore(node.rcs.embeddings).codes)
        picks = node.recommend_batch(legacy_queries(),
                                     expected["accuracy_weight"])
        assert [rec.model for rec in picks] == expected["picks"]

    def test_legacy_config_keeps_its_serving_values(self):
        """The fields both builds share load with the saved values: the
        pinned threshold still attaches the int8 tier to the 48 rows."""
        saved = legacy_metadata()["config"]
        node = load_advisor(str(DATA / "advisor_v2_ivf_pq.npz"))
        assert node.config.ann == ANNConfig(
            threshold=saved["ann"]["threshold"])
        assert node.config.quantization == QuantizationConfig(
            overfetch=saved["quantization"]["overfetch"])
        assert len(node.rcs) == 48
        assert serves_int8(len(node.rcs), node.config.ann)

    def test_resaving_a_legacy_advisor_drops_its_quantizer_block(
            self, tmp_path):
        node = load_advisor(str(DATA / "advisor_v2_ivf_pq.npz"))
        path = tmp_path / "resaved.npz"
        save_advisor(node, str(path))
        with np.load(path) as data:
            metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
            assert not [name for name in data.files
                        if name.startswith("quant_")]
        assert "quantizer" not in metadata
        assert "e2lsh" not in metadata["config"]["ann"]
        assert "mode" not in metadata["config"]["quantization"]
        assert "drift_clip_fraction" not in metadata["config"]["quantization"]
        again = load_advisor(str(path))
        np.testing.assert_array_equal(again.rcs.index.codes,
                                      node.rcs.index.codes)
        queries = legacy_queries()
        assert ([r.model for r in again.recommend_batch(queries, 0.9)]
                == [r.model for r in node.recommend_batch(queries, 0.9)])


def mixed_tier_queries():
    """The query graphs the mixed-tier fixture's picks were recorded on.

    The fixture advisor was written by the last build with the mixed-tier
    serving mode.  It was fitted at float64 on the 36 member graphs drawn
    first from the same generator, family ``i % 3`` labelled with Q-errors
    ``(1.1, 3.0, 6.0)`` rotated by the family, with
    ``serving_dtype="float32"``, ``embedding_cache_dir`` and
    ``featurize_sample_rows`` set and the int8 tier pinned at
    ``threshold=8``.  Its picks were recorded while it served at float32.
    """
    rng = np.random.default_rng(20261018)
    for i in range(36):
        legacy_graph(rng, f"member{i}", i % 3)
    return [legacy_graph(rng, f"query{j}", j % 3) for j in range(6)]


class TestLegacyMixedTierSave:
    PATH = DATA / "advisor_v2_mixed_tier.npz"

    def test_loads_and_serves_its_picks_from_float64_rows(self):
        expected = json.loads(self.PATH.with_suffix(".json").read_text())
        with np.load(self.PATH) as data:
            metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
            saved_rows = data["rcs_embeddings"]
        saved = metadata["config"]
        assert metadata["format_version"] == FORMAT_VERSION == 2
        assert (saved["dtype"], saved["serving_dtype"]) == ("float64",
                                                            "float32")
        assert saved["embedding_cache_dir"] and saved["featurize_sample_rows"]
        assert saved_rows.dtype == np.float32

        node = load_advisor(str(self.PATH))
        assert node.config.dtype == "float64"
        assert node.rcs.embeddings.dtype == np.float64
        np.testing.assert_array_equal(node.rcs.embeddings,
                                      saved_rows.astype(np.float64))
        # The saved int8 block was stamped over float32 rows, so the store
        # is rebuilt from the cast ones.
        np.testing.assert_array_equal(
            node.rcs.index.codes, QuantizedStore(node.rcs.embeddings).codes)
        picks = node.recommend_batch(mixed_tier_queries(),
                                     expected["accuracy_weight"])
        assert [rec.model for rec in picks] == expected["picks"]
        assert node.embed(mixed_tier_queries()[0]).dtype == np.float64


def warm_int8_queries():
    """The query graphs the warm-int8 fixture's picks were recorded on.

    The fixture advisor was written by the last build that saved the int8
    store's codes (a ``quant_*`` block whose generation stamp matched its
    rows, which that build attached on load without requantizing).  It was
    fitted at float64 on the 36 member graphs drawn first from the same
    generator, family ``i % 3`` labelled with Q-errors
    ``(1.1, 3.0, 6.0)`` rotated right by the family, with the int8 tier
    pinned at ``threshold=8``.
    """
    rng = np.random.default_rng(20261019)
    for i in range(36):
        legacy_graph(rng, f"member{i}", i % 3)
    return [legacy_graph(rng, f"query{j}", j % 3) for j in range(6)]


class TestWarmInt8Save:
    PATH = DATA / "advisor_v2_warm_int8.npz"

    def test_loads_with_the_saved_codes_and_picks(self):
        expected = json.loads(self.PATH.with_suffix(".json").read_text())
        with np.load(self.PATH) as data:
            metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
            saved_codes = data["quant_codes"]
            saved_zero_point = data["quant_zero_point"]
        assert metadata["format_version"] == FORMAT_VERSION == 2
        assert metadata["quantizer"]["kind"] == "int8"
        assert metadata["config"]["ann"] == {"threshold": 8}

        node = load_advisor(str(self.PATH))
        store = node.rcs.index
        assert isinstance(store, QuantizedStore)
        np.testing.assert_array_equal(store.codes, saved_codes)
        assert store.scale == metadata["quantizer"]["meta"]["scale"]
        np.testing.assert_array_equal(store.zero_point, saved_zero_point)
        picks = node.recommend_batch(warm_int8_queries(),
                                     expected["accuracy_weight"])
        assert [rec.model for rec in picks] == expected["picks"]

    def test_resaving_drops_the_block_and_keeps_the_picks(self, tmp_path):
        expected = json.loads(self.PATH.with_suffix(".json").read_text())
        path = tmp_path / "resaved.npz"
        save_advisor(load_advisor(str(self.PATH)), str(path))
        with np.load(path) as data:
            metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
            assert "quant_codes" not in data.files
        assert "quantizer" not in metadata
        picks = load_advisor(str(path)).recommend_batch(
            warm_int8_queries(), expected["accuracy_weight"])
        assert [rec.model for rec in picks] == expected["picks"]


def add_quantizer_block(path: str, kind: str) -> None:
    """Give the save at ``path`` a quantizer block as earlier builds wrote
    one, with all-zero codes no rebuilt store would have."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    rows = arrays["rcs_embeddings"]
    arrays["quant_codes"] = np.zeros(rows.shape, dtype=np.int8)
    arrays["quant_zero_point"] = np.zeros(rows.shape[1])
    metadata = json.loads(bytes(arrays["metadata"]).decode("utf-8"))
    metadata["quantizer"] = {"kind": kind, "generation": "0" * 16,
                             "meta": {"scale": 1.0, "added": 3,
                                      "clipped": 1}}
    arrays["metadata"] = np.frombuffer(
        json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


class TestInt8StorePersistence:
    @pytest.fixture
    def int8_advisor(self):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=16, embedding_dim=8, use_incremental=False, seed=0,
            dml=DMLConfig(epochs=4, batch_size=6, seed=0),
            ann=ANNConfig(threshold=8),
            quantization=QuantizationConfig(overfetch=2)))
        advisor.fit_graphs(graphs, labels)
        assert isinstance(advisor.rcs.index, QuantizedStore)
        return advisor, graphs

    def test_save_holds_rows_only_and_load_requantizes(self, int8_advisor,
                                                       tmp_path):
        advisor, graphs = int8_advisor
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        with np.load(path) as data:
            metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
            assert not [name for name in data.files
                        if name.startswith("quant_")]
        assert "quantizer" not in metadata
        node = load_advisor(path)
        np.testing.assert_array_equal(node.rcs.index.codes,
                                      advisor.rcs.index.codes)
        assert ([r.model for r in node.recommend_batch(graphs, 0.9)]
                == [r.model for r in advisor.recommend_batch(graphs, 0.9)])

    @pytest.mark.parametrize("kind", ["int8", "pq", "ivf-int8", "ivf-pq"])
    def test_a_quantizer_block_of_any_kind_is_ignored(
            self, int8_advisor, tmp_path, kind):
        """A v2 save from an earlier build may carry a quantizer block of
        any kind; the store is rebuilt from the rows, never read from it.
        (The parent-written fixture above covers a block whose stamp
        matched its rows.)"""
        advisor, graphs = int8_advisor
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        add_quantizer_block(path, kind)
        node = load_advisor(path)
        store = node.rcs.index
        assert isinstance(store, QuantizedStore)
        np.testing.assert_array_equal(
            store.codes, QuantizedStore(node.rcs.embeddings).codes)
        assert store.scale == advisor.rcs.index.scale
        assert ([r.model for r in node.recommend_batch(graphs, 0.9)]
                == [r.model for r in advisor.recommend_batch(graphs, 0.9)])

    def test_saved_store_is_dropped_when_the_rule_says_exact(
            self, int8_advisor, tmp_path):
        advisor, graphs = int8_advisor
        advisor.config.ann = ANNConfig(threshold=0)
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        node = load_advisor(path)
        assert node.rcs.index is None
        assert node.recommend(graphs[0], 0.9).model in MODELS


class TestNonFiniteRows:
    """A save whose RCS rows hold a NaN or an infinity must not load: its
    drift threshold would be NaN (nothing flagged) and, on the int8 tier,
    its scale NaN."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("threshold", [4096, 8])
    def test_load_raises_and_names_the_row(self, fitted, tmp_path, value,
                                           threshold):
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        rewrite_config(path, lambda config: config["ann"].update(
            threshold=threshold))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["rcs_embeddings"] = arrays["rcs_embeddings"].copy()
        arrays["rcs_embeddings"][5, 2] = value
        np.savez(path, **arrays)
        with pytest.raises(AdvisorLoadError, match=r"row\(s\) 5"):
            load_advisor(path)

    def test_the_clean_save_flags_a_far_graph(self, fitted, tmp_path):
        advisor, graphs, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        far = FeatureGraph("far", np.full((2, graphs[0].vertex_dim), 50.0),
                           np.zeros((2, 2)))
        assert load_advisor(path).is_drifted(far)
