"""Round-trip tests for advisor persistence (save_advisor / load_advisor)."""

from __future__ import annotations

import copy
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from faults import FaultPlan
from repro.core.advisor import SIZE_MINIMA, AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.core.graph import FeatureGraph
from repro.core.persistence import (FORMAT_VERSION, AdvisorLoadError,
                                    _label_from_dict, _label_to_dict,
                                    load_advisor, save_advisor)
from repro.core.serving import (ANNConfig, QuantizationConfig,
                                QuantizedStore, RecommendationCandidateSet)
from repro.testbed.scores import WEIGHT_GRID, DatasetLabel, ScoreLabel

MODELS = ("A", "B", "C")

#: Every config field, by block, that saves of earlier builds carry for a
#: feature since removed: the serving tiers (sign-hash LSH, E2LSH, PQ,
#: IVF), the int8 store's drift knobs, the embedding cache's disk tier,
#: the mixed-tier mode, the featurizer sketch and thread pool, and the
#: tensor-cache switch.  This build defines none of them.
REMOVED_FIELDS = {
    "config": ("embedding_cache_dir", "serving_dtype",
               "featurize_sample_rows", "featurize_workers"),
    "dml": ("use_tensor_cache",),
    "ann": ("num_tables", "num_bits", "num_probes", "min_candidates",
            "max_candidates", "bucket_cap", "whiten", "family",
            "auto_e2lsh", "probe_sample", "probe_fallback_threshold",
            "probe_min_recall", "probe_max_pool_fraction", "e2lsh_threshold",
            "e2lsh", "seed"),
    "quantization": ("enabled", "mode", "num_subspaces", "codebook_size",
                     "kmeans_iters", "kmeans_sample", "residual", "seed",
                     "min_size", "ivf", "ivf_cells", "nprobe",
                     "ivf_min_size", "drift_clip_fraction",
                     "drift_outlier_factor"),
}


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

    def test_exact_scan_at_every_size_round_trips(self, tmp_path):
        """``ANNConfig(threshold=0)`` (the exact scan at every size) is
        saved as its threshold and reloads equal, serving the same
        picks."""
        graphs, labels = tiny_corpus()
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=16, embedding_dim=8, use_incremental=False, seed=0,
            dml=DMLConfig(epochs=4, batch_size=6, seed=0),
            ann=ANNConfig(threshold=0)))
        advisor.fit_graphs(graphs, labels)
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        with np.load(path) as data:
            metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
        assert metadata["config"]["ann"] == {"threshold": 0}
        reloaded = load_advisor(path)
        assert reloaded.config.ann == ANNConfig(threshold=0)
        assert reloaded.config == advisor.config
        assert ([reloaded.recommend(g, 0.9).model for g in graphs]
                == [advisor.recommend(g, 0.9).model for g in graphs])

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

    @pytest.mark.parametrize("version", [
        0, 1, FORMAT_VERSION + 1, FORMAT_VERSION + 999, str(FORMAT_VERSION),
        None])
    def test_version_mismatch_rejected(self, fitted, tmp_path, version):
        """This build reads only the version it writes: an older save
        fails like a newer one, as do a version held as a string and no
        version at all (None), and the error names the version."""
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        metadata = json.loads(bytes(arrays["metadata"]).decode("utf-8"))
        if version is None:
            del metadata["format_version"]
        else:
            metadata["format_version"] = version
        arrays["metadata"] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(AdvisorLoadError,
                           match=f"format version {version!r} "):
            load_advisor(path)

    @pytest.mark.parametrize("block", [
        None, "config", "dml", "incremental", "ann", "quantization"])
    def test_metadata_of_the_wrong_json_shape_raises_typed(
            self, fitted, tmp_path, block):
        """The metadata member, or one of its config blocks, holding a
        JSON list instead of an object fails the load with the typed
        error, not an ``AttributeError``."""
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        metadata = json.loads(bytes(arrays["metadata"]).decode("utf-8"))
        if block is None:
            metadata = [1, 2]
        elif block == "config":
            metadata["config"] = [1, 2]
        else:
            metadata["config"][block] = [1, 2]
        arrays["metadata"] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(AdvisorLoadError,
                           match="cannot load advisor") as info:
            load_advisor(path)
        assert not isinstance(info.value.__cause__, AttributeError)
        if block is None:
            assert "not a JSON object" in str(info.value)

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


    @pytest.mark.parametrize("field, value, message", [
        ("hidden_dim", 0, "config field hidden_dim must be at least 1, "
                          "got 0"),
        ("vertex_dim", -5, "saved vertex_dim must be an int of at least 1, "
                           "got -5"),
    ], ids=["hidden-dim-0", "negative-vertex-dim"])
    def test_an_encoder_size_no_encoder_has_raises_typed(
            self, fitted, tmp_path, field, value, message):
        """Refused by name before an encoder is built: no arithmetic
        error, and no warning from the weight init."""
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        rewrite_metadata(path, lambda metadata: (
            metadata["config"] if field == "hidden_dim"
            else metadata).update({field: value}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AdvisorLoadError,
                               match=re.escape(f"ValueError: {message}")
                               ) as info:
                load_advisor(path)
        assert type(info.value.__cause__) is ValueError

    @pytest.mark.parametrize("value", [0, 2.5, "8", True, None])
    def test_a_saved_vertex_dim_that_is_no_positive_int_raises_typed(
            self, fitted, tmp_path, value):
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        rewrite_metadata(path, lambda metadata: metadata.update(
            {"vertex_dim": value}))
        with pytest.raises(AdvisorLoadError,
                           match=re.escape(f"saved vertex_dim must be an int "
                                           f"of at least 1, got {value!r}")):
            load_advisor(path)

    @pytest.mark.parametrize("block, field, value, message", [
        (None, "dtype", "int8",
         "config field dtype must be 'float32' or 'float64', got 'int8'"),
        ("dml", "epochs", "8",
         "config field dml.epochs must be int, got '8'"),
        ("quantization", "overfetch", "8",
         "config field quantization.overfetch must be int, got '8'"),
        (None, "use_incremental", "false",
         "config field use_incremental must be bool, got 'false'"),
        (None, "knn_k", True, "config field knn_k must be int, got True"),
        (None, "ann", None,
         "config field ann must be a JSON object, got None"),
    ], ids=["dtype-int8", "string-epochs", "string-overfetch",
            "string-use-incremental", "bool-knn-k", "ann-null"])
    def test_a_config_value_of_the_wrong_type_raises_typed(
            self, fitted, tmp_path, block, field, value, message):
        """A value that is not of its field's declared type fails the load
        and names the field; ``dtype: "int8"`` would build an int8
        encoder and serve other picks, and a string ``overfetch`` would
        fail only once the int8 tier searches."""
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        rewrite_config(path, lambda config: (
            config if block is None else config[block]).update(
                {field: value}))
        with pytest.raises(AdvisorLoadError, match=re.escape(message)):
            load_advisor(path)

    @pytest.mark.parametrize("overrides, message", [
        ({"dtype": "int8"}, "config field dtype must be 'float32'"),
        ({"dtype": np.float32}, "config field dtype must be str"),
        ({"dml": DMLConfig(epochs="8")},
         "config field dml.epochs must be int"),
        ({"quantization": QuantizationConfig(overfetch=8.0)},
         "config field quantization.overfetch must be int, got 8.0"),
        ({"use_incremental": 1}, "config field use_incremental must be bool"),
        ({"knn_k": True}, "config field knn_k must be int, got True"),
        ({"dml": DMLConfig(weights=(0.5, "1"))},
         "config field dml.weights must be tuple[float, ...]"),
        ({"ann": None}, "config field ann must be ANNConfig, got None"),
    ], ids=["dtype-int8", "numpy-dtype", "string-epochs", "float-overfetch",
            "int-use-incremental", "bool-knn-k", "string-weight", "ann-none"])
    def test_the_constructor_refuses_the_same_values(self, overrides,
                                                     message):
        with pytest.raises((TypeError, ValueError),
                           match=re.escape(message)):
            AutoCEConfig(**overrides)

    @pytest.mark.parametrize("name, least", sorted(SIZE_MINIMA.items()))
    def test_a_size_below_its_least_value_is_refused_by_name(self, name,
                                                             least):
        """Each size field takes its least value and refuses one less,
        at construction and when loaded from a save."""
        def config_with(value):
            block, _, field = name.rpartition(".")
            if not block:
                return AutoCEConfig(**{field: value})
            nested = type(getattr(AutoCEConfig(), block))
            return AutoCEConfig(**{block: nested(**{field: value})})

        config_with(least)
        with pytest.raises(ValueError, match=re.escape(
                f"config field {name} must be at least {least}, "
                f"got {least - 1}")):
            config_with(least - 1)

    @pytest.mark.parametrize("block, field, value", [
        (None, "embedding_dim", 0), (None, "num_layers", -1),
        (None, "max_columns", 0), (None, "embedding_cache_size", -1),
        ("ann", "threshold", -1), ("quantization", "overfetch", 0),
    ], ids=["embedding-dim-0", "negative-num-layers", "max-columns-0",
            "negative-cache-size", "negative-ann-threshold", "overfetch-0"])
    def test_a_saved_size_below_its_least_value_raises_typed(
            self, fitted, tmp_path, block, field, value):
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        rewrite_config(path, lambda config: (
            config if block is None else config[block]).update(
                {field: value}))
        name = field if block is None else f"{block}.{field}"
        with pytest.raises(AdvisorLoadError, match=re.escape(
                f"config field {name} must be at least")):
            load_advisor(path)

    @pytest.mark.parametrize("field, value, error, message", [
        ("embedding_cache_size", "7", TypeError,
         "config field embedding_cache_size must be int, got '7'"),
        ("knn_k", True, TypeError, "config field knn_k must be int, got True"),
        ("dtype", "int8", ValueError,
         "config field dtype must be 'float32' or 'float64', got 'int8'"),
        ("ann", None, TypeError, "config field ann must be ANNConfig, got None"),
        ("hidden_dim", 0, ValueError,
         "config field hidden_dim must be at least 1, got 0"),
        ("quantization", QuantizationConfig(overfetch=0), ValueError,
         "config field quantization.overfetch must be at least 1, got 0"),
        ("embedding_cache_size", -1, ValueError,
         "config field embedding_cache_size must be at least 0, got -1"),
    ], ids=["string-cache-size", "bool-knn-k", "dtype-int8", "ann-none",
            "hidden-dim-0", "overfetch-0", "negative-cache-size"])
    def test_a_save_refuses_a_value_set_after_construction_unwritten(
            self, fitted, tmp_path, field, value, error, message):
        """The save runs the constructor's check, before it writes: a
        field set to a value of the wrong type would save a file
        ``load_advisor`` refuses."""
        advisor, _, _ = fitted
        edited = copy.copy(advisor)
        edited.config = copy.copy(advisor.config)
        setattr(edited.config, field, value)
        path = tmp_path / "advisor.npz"
        with pytest.raises(error, match=re.escape(message)):
            save_advisor(edited, str(path))
        assert not path.exists()
        save_advisor(advisor, str(path))
        assert load_advisor(str(path)).config == advisor.config

    def test_an_int_counts_as_a_float(self, fitted, tmp_path):
        assert AutoCEConfig(dml=DMLConfig(lr=1, weights=(0, 1))).dml.lr == 1
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        rewrite_config(path, lambda config: config["dml"].update(tau=1))
        assert load_advisor(path).config.dml.tau == 1

    @pytest.mark.parametrize("names, num_graphs, message", [
        (3, 12, "3 graph names for 12 saved graphs"),
        (12, 3, "12 graph names for 3 saved graphs"),
        (3, 3, "3 graphs for 12 labels"),
        (13, 13, "13 graphs for 12 labels"),
    ])
    def test_graph_counts_that_disagree_raise_typed(
            self, fitted, tmp_path, names, num_graphs, message):
        """A save lists one graph name per saved graph and one graph per
        label; a load that kept fewer would fail only at the next
        ``adapt_online``."""
        advisor, _, _ = fitted
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)

        def edit(metadata):
            metadata["graph_names"] = [f"g{i}" for i in range(names)]
            metadata["num_graphs"] = num_graphs

        rewrite_metadata(path, edit)
        with pytest.raises(AdvisorLoadError, match=message):
            load_advisor(path)


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
    tier, the mixed-tier mode, the featurizer sketch or thread pool, or
    the tensor-cache switch carry config fields this build does not
    define; such a save fails to load, and the error names the field."""

    @pytest.mark.parametrize("block, name", [
        ("config", "not_a_field"),
        ("ann", "not_a_field"),
        ("quantization", "not_a_field"),
        ("dml", "not_a_field"),
        # Every field of a removed feature.
        *[(block, name) for block, names in REMOVED_FIELDS.items()
          for name in names],
        # A prefix, a case variant or a compound of such names.
        ("config", "embedding_cache"),
        ("config", "Serving_dtype"),
        ("ann", "e2lsh_radius"),
        ("ann", "Family"),
        ("quantization", "ivf_nprobe"),
        ("quantization", "pq_mode"),
        # A field of one block placed in another.
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
        with pytest.raises(AdvisorLoadError, match=f"'{name}'"):
            load_advisor(path)


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
        assert node.config == advisor.config
        np.testing.assert_array_equal(node.rcs.index.codes,
                                      advisor.rcs.index.codes)
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
