"""Dataset serialization: one ``.npz`` file per dataset.

Columns are stored as raw int64 arrays under ``{table}__{column}`` keys and
the schema (table order, column order, foreign keys) as a JSON metadata
blob, so a dataset round-trips exactly — including the PK–FK join graph.
Used by the command-line interface to pass datasets between ``generate``,
``label`` and ``recommend`` invocations.
"""

from __future__ import annotations

import json
import zipfile
import zlib

import numpy as np

from .schema import Dataset, ForeignKey
from .table import Table

#: Bump on any change to the on-disk layout.
FORMAT_VERSION = 1

_SEPARATOR = "__"


class DatasetLoadError(ValueError):
    """A dataset file could not be loaded — missing or unreadable, not an
    ``.npz`` archive, torn, without its metadata, or of another format
    version.

    The dataset-file sibling of
    :class:`~repro.core.persistence.AdvisorLoadError`: a ``ValueError``
    subclass, so pre-existing callers keep working, with the original
    exception chained as ``__cause__``.
    """


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset to ``path`` as a compressed ``.npz`` archive."""
    metadata = {
        "format_version": FORMAT_VERSION,
        "name": dataset.name,
        "tables": {t.name: t.column_names for t in dataset.tables.values()},
        "foreign_keys": [
            {"child": fk.child, "fk_column": fk.fk_column, "parent": fk.parent}
            for fk in dataset.foreign_keys
        ],
    }
    arrays: dict[str, np.ndarray] = {
        "metadata": np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8),
    }
    for table in dataset.tables.values():
        if _SEPARATOR in table.name:
            raise ValueError(
                f"table name {table.name!r} may not contain {_SEPARATOR!r}")
        for column, values in table.columns.items():
            arrays[f"{table.name}{_SEPARATOR}{column}"] = values
    np.savez_compressed(path, **arrays)


def load_dataset(path: str) -> Dataset:
    """Reload a dataset saved by :func:`save_dataset`.

    Any file that does not hold such a dataset raises
    :class:`DatasetLoadError`.
    """
    try:
        return _load_dataset(path)
    except (OSError, ValueError, KeyError, TypeError, EOFError,
            zipfile.BadZipFile, zlib.error) as error:
        raise DatasetLoadError(
            f"cannot load dataset from {path!r}: "
            f"{type(error).__name__}: {error}") from error


def _load_dataset(path: str) -> Dataset:
    with np.load(path) as data:
        metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
        if not isinstance(metadata, dict):
            raise ValueError("dataset metadata is not a JSON object")
        version = metadata.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported dataset format version {version!r} "
                f"(this build reads version {FORMAT_VERSION})")
        tables = []
        for name, columns in metadata["tables"].items():
            tables.append(Table(name, {
                column: data[f"{name}{_SEPARATOR}{column}"]
                for column in columns
            }))
        foreign_keys = [ForeignKey(**fk) for fk in metadata["foreign_keys"]]
    return Dataset(metadata["name"], tables, foreign_keys)
