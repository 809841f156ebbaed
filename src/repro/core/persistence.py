"""Saving and loading a trained advisor (offline training → online serving).

The paper's deployment story (Fig. 2) trains AutoCE offline and serves
recommendations online; a cloud vendor trains once and ships the advisor to
every tenant-facing node.  This module persists everything a serving node
needs into one ``.npz`` file:

* the advisor configuration (JSON),
* the GIN encoder weights (in ``Module.parameters()`` order),
* the training feature graphs (needed only for later online adapting),
* the labels, and the RCS embeddings.

Labels round-trip losslessly: :class:`DatasetLabel` keeps its raw testbed
measurements (so D-error and percentile re-normalization still work after a
reload), while synthetic :class:`ScoreLabel` instances (from Mixup or from
:meth:`~repro.testbed.scores.DatasetLabel.with_accuracy_metric`) keep their
normalized scores.

Typical usage::

    save_advisor(advisor, "advisor.npz")
    advisor = load_advisor("advisor.npz")
    advisor.recommend(new_dataset, accuracy_weight=0.9)
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import asdict

import numpy as np

from ..testbed.scores import DatasetLabel, ScoreLabel
from .advisor import AutoCE, AutoCEConfig
from .dml import DMLConfig, DMLTrainer
from .encoder import GINEncoder
from .graph import FeatureGraph
from .incremental import IncrementalConfig
from .serving import (ANNConfig, QuantizationConfig,
                      RecommendationCandidateSet)

#: Bump on any change to the on-disk layout.  Version 2 added an optional
#: quantizer block (``quant_*`` arrays and a ``"quantizer"`` metadata
#: entry) that earlier builds wrote; this build writes none and ignores
#: one on load, rebuilding the int8 store from the rows.
FORMAT_VERSION = 2

#: Versions this build can read.  Version-1 saves simply have no quantizer
#: block.
_SUPPORTED_VERSIONS = frozenset({1, 2})


class AdvisorLoadError(ValueError):
    """A saved advisor could not be loaded — missing file, torn or
    corrupt payload, or an incompatible format.

    :func:`load_advisor` is all-or-nothing: any failure raises this (a
    ``ValueError`` subclass, so pre-existing callers keep working) and
    never returns a half-restored advisor.  The original exception is
    chained as ``__cause__``.
    """

#: Config fields of earlier builds whose features are gone: the serving
#: tiers (sign-hash LSH, E2LSH with its nested ``e2lsh`` block, PQ, IVF)
#: and the int8 store's drift-recalibration knobs, plus, at the top level,
#: the disk tier of the embedding cache, the mixed-tier serving mode, the
#: row-sampling featurizer sketch and the featurizer thread pool, and in
#: the DML block the switch back to per-batch graph padding.  Loading
#: drops exactly these; any other unknown field still fails the load.
_REMOVED_FIELDS = {
    "config": frozenset({
        "embedding_cache_dir", "serving_dtype", "featurize_sample_rows",
        "featurize_workers"}),
    "dml": frozenset({"use_tensor_cache"}),
    "ann": frozenset({
        "num_tables", "num_bits", "num_probes", "min_candidates",
        "max_candidates", "bucket_cap", "whiten", "family", "auto_e2lsh",
        "probe_sample", "probe_fallback_threshold", "probe_min_recall",
        "probe_max_pool_fraction", "e2lsh_threshold", "e2lsh", "seed"}),
    "quantization": frozenset({
        "enabled", "mode", "num_subspaces", "codebook_size", "kmeans_iters",
        "kmeans_sample", "residual", "seed", "min_size", "ivf", "ivf_cells",
        "nprobe", "ivf_min_size", "drift_clip_fraction",
        "drift_outlier_factor"}),
}

#: DatasetLabel array fields persisted when present (None-able ones last).
_RAW_LABEL_FIELDS = ("qerror_means", "latency_means", "qerror_medians",
                     "fit_times", "qerror_p95", "qerror_p99")


def _config_to_dict(config: AutoCEConfig) -> dict:
    return asdict(config)


def _config_from_dict(payload: dict) -> AutoCEConfig:
    payload = _current_fields(payload, "config")
    dml = _current_fields(payload["dml"], "dml")
    # JSON has no tuples; restore the weight grid's declared type.
    dml["weights"] = tuple(dml["weights"])
    payload["dml"] = DMLConfig(**dml)
    payload["incremental"] = IncrementalConfig(**payload["incremental"])
    # Advisors saved before the scale-out serving fields existed load with
    # the defaults (exact search), and the dtype tier default when absent.  `.get(...) is not None`, not `in`: an advisor
    # configured with the int8 tier explicitly off serializes the field as
    # JSON null, which must round-trip to None rather than crash the load.
    if payload.get("ann") is not None:
        payload["ann"] = ANNConfig(**_current_fields(payload["ann"], "ann"))
    if payload.get("quantization") is not None:
        payload["quantization"] = QuantizationConfig(
            **_current_fields(payload["quantization"], "quantization"))
    return AutoCEConfig(**payload)


def _current_fields(block: dict, name: str) -> dict:
    """Config ``block`` without the removed fields listed under ``name``."""
    return {key: value for key, value in block.items()
            if key not in _REMOVED_FIELDS[name]}


def _label_to_dict(label: ScoreLabel) -> dict:
    """JSON-serializable label payload (arrays as lists)."""
    payload: dict = {"model_names": list(label.model_names)}
    if isinstance(label, DatasetLabel):
        payload["kind"] = "dataset"
        for name in _RAW_LABEL_FIELDS:
            value = getattr(label, name, None)
            payload[name] = None if value is None else np.asarray(value).tolist()
    else:
        payload["kind"] = "score"
        payload["sa"] = label.sa.tolist()
        payload["se"] = label.se.tolist()
    return payload


def _label_from_dict(payload: dict) -> ScoreLabel:
    names = tuple(payload["model_names"])
    if payload["kind"] == "dataset":
        # JSON stores arrays as plain lists; hand DatasetLabel real float64
        # arrays so reloaded labels behave bit-identically to the originals
        # (indexing, percentile re-normalization, D-error).
        kwargs = {
            name: (None if payload.get(name) is None
                   else np.asarray(payload[name], dtype=np.float64))
            for name in _RAW_LABEL_FIELDS
        }
        return DatasetLabel(model_names=names, **kwargs)
    return ScoreLabel(model_names=names,
                      sa=np.asarray(payload["sa"], dtype=np.float64),
                      se=np.asarray(payload["se"], dtype=np.float64))


def save_advisor(advisor: AutoCE, path: str) -> None:
    """Persist a fitted advisor to a single uncompressed ``.npz`` file.

    The RCS is saved as its rows and labels; :func:`load_advisor` builds
    it again from them, int8 store included when the tier rule calls for
    one.
    """
    if advisor.encoder is None or advisor.rcs is None:
        raise ValueError("cannot save an unfitted advisor; call fit() first")
    if len(advisor.rcs) != len(advisor._labels) or any(
            served is not trained
            for served, trained in zip(advisor.rcs.labels, advisor._labels)):
        # The save pairs the RCS rows with the training labels: a load
        # would refuse the file, or serve the rows under other labels.
        raise ValueError(
            f"cannot save an advisor whose RCS ({len(advisor.rcs)} members) "
            f"is not built on its {len(advisor._labels)} training labels")

    metadata = {
        "format_version": FORMAT_VERSION,
        "config": _config_to_dict(advisor.config),
        "vertex_dim": advisor.encoder.vertex_dim,
        "graph_names": [g.name for g in advisor._graphs],
        "num_graphs": len(advisor._graphs),
        "num_params": len(advisor.encoder.parameters()),
    }
    arrays: dict[str, np.ndarray] = {
        "rcs_embeddings": advisor.rcs.embeddings,
    }
    labels = advisor._labels
    if (labels and all(type(label) is ScoreLabel for label in labels)
            and all(label.model_names == labels[0].model_names
                    for label in labels)):
        # Uniform synthetic corpora (the common serving shape) stack into
        # two [N, m] arrays instead of N JSON dicts — per-member JSON is
        # what used to dominate large-corpus load_advisor time.
        metadata["labels"] = {"kind": "score_stack",
                              "model_names": list(labels[0].model_names)}
        arrays["label_sa"] = np.stack(
            [np.asarray(label.sa, dtype=np.float64) for label in labels])
        arrays["label_se"] = np.stack(
            [np.asarray(label.se, dtype=np.float64) for label in labels])
    else:
        metadata["labels"] = [_label_to_dict(label) for label in labels]
    arrays["metadata"] = np.frombuffer(
        json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    for i, param in enumerate(advisor.encoder.parameters()):
        arrays[f"param_{i}"] = param.numpy()
    for i, graph in enumerate(advisor._graphs):
        arrays[f"graph_{i}_vertices"] = graph.vertices
        arrays[f"graph_{i}_edges"] = graph.edges
    # Stored, not deflated: the bulk of a save is float embedding rows and
    # weights, which zlib shrinks by only a few percent while costing ~10x
    # the read time.
    np.savez(path, **arrays)


def load_advisor(path: str) -> AutoCE:
    """Reload an advisor saved by :func:`save_advisor`, ready to recommend.

    All-or-nothing: a missing file, a torn/truncated write, flipped bytes,
    a format mismatch, or a config field this build does not know raise
    :class:`AdvisorLoadError`; a successfully returned advisor is always
    fully restored.
    """
    try:
        return _load_advisor(path)
    except AdvisorLoadError:
        raise
    except (OSError, ValueError, KeyError, TypeError, EOFError,
            RuntimeError, zipfile.BadZipFile,
            zlib.error) as error:
        raise AdvisorLoadError(
            f"cannot load advisor from {path!r}: "
            f"{type(error).__name__}: {error}") from error


def _load_advisor(path: str) -> AutoCE:
    with np.load(path) as data:
        metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
        version = metadata.get("format_version")
        if version not in _SUPPORTED_VERSIONS:
            raise ValueError(
                f"unsupported advisor format version {version!r} "
                f"(this build reads versions "
                f"{sorted(_SUPPORTED_VERSIONS)})")

        config = _config_from_dict(metadata["config"])
        advisor = AutoCE(config)
        advisor.encoder = GINEncoder(
            vertex_dim=metadata["vertex_dim"],
            hidden_dim=config.hidden_dim,
            embedding_dim=config.embedding_dim,
            num_layers=config.num_layers,
            seed=config.seed,
            dtype=np.dtype(config.dtype),
        )
        params = advisor.encoder.parameters()
        if len(params) != metadata["num_params"]:
            raise ValueError(
                "saved parameter count does not match the encoder "
                f"architecture ({metadata['num_params']} != {len(params)})")
        for i, param in enumerate(params):
            saved = data[f"param_{i}"]
            if saved.shape != param.numpy().shape:
                raise ValueError(
                    f"parameter {i} shape mismatch: {saved.shape} vs "
                    f"{param.numpy().shape}")
            param.data[...] = saved

        labels_meta = metadata["labels"]
        if isinstance(labels_meta, dict):
            # v2 stacked score labels: rows of the two [N, m] arrays.
            names = tuple(labels_meta["model_names"])
            sa, se = data["label_sa"], data["label_se"]
            advisor._labels = [ScoreLabel(model_names=names,
                                          sa=sa[i], se=se[i])
                               for i in range(len(sa))]
        else:
            advisor._labels = [_label_from_dict(p) for p in labels_meta]
        advisor._graphs = [
            FeatureGraph(name=name,
                         vertices=data[f"graph_{i}_vertices"],
                         edges=data[f"graph_{i}_edges"])
            for i, name in enumerate(metadata["graph_names"])
        ]
        # RCS rows live at the config's dtype, so the reloaded node serves
        # the exact same rows.  A save of the removed mixed-tier mode holds
        # them at its serving tier instead; they are cast to the dtype the
        # encoder embeds queries at.  Any quantizer block an earlier build
        # wrote is ignored: the RCS requantizes the rows itself.
        advisor.rcs = RecommendationCandidateSet(
            np.asarray(data["rcs_embeddings"], dtype=config.dtype),
            list(advisor._labels), ann=config.ann,
            quantization=config.quantization)

    advisor.trainer = DMLTrainer(advisor.encoder, config.dml)
    return advisor
