"""Dataset serialization: one ``.npz`` file per dataset.

Used by the command-line interface to pass datasets between ``generate``,
``label`` and ``recommend`` invocations.  A dataset round-trips exactly —
every column bit for bit, plus the PK–FK join graph.

**Format 2** (written by :func:`save_dataset`) is an *uncompressed*
two-member ``.npz`` (``np.savez``):

* ``metadata``: a UTF-8 JSON object — ``format_version``, ``name``,
  ``tables`` (table → column names, in order), ``rows`` (table → row
  count) and ``foreign_keys``;
* ``columns``: one 1-D int64 block holding every column, table by table
  and column by column in metadata order.  Table ``t`` with ``n`` rows
  contributes ``n`` values per column, so the block length is the sum over
  tables of rows × column count, and a column is a slice of the block.

Why one stored block: the 116 serve-cold request datasets of
``benchmarks/e2e``, written in five layouts and loaded into a
:class:`Dataset` (p50 over files of the best of 5 loads, 2-CPU machine),
measured

============================================  ==========  ===========
layout                                        load p50    median file
============================================  ==========  ===========
format 1: one deflated member per column      2.73 ms     65.5 KiB
metadata + block, deflated                    1.56 ms     64.0 KiB
metadata + block, stored (format 2)           0.60 ms     322.5 KiB
raw JSON header + block, zlib                 1.29 ms     63.8 KiB
raw JSON header + block                       0.24 ms     322.0 KiB
============================================  ==========  ===========

Parsing one zip member per column is most of format 1's load, and
inflating costs about 1 ms of every load, so format 2 stores one block
uncompressed.  It stays an ``.npz`` that ``np.load`` opens and keeps
zip's CRC-32 check, so a flipped byte raises :class:`DatasetLoadError`
instead of loading a silently wrong column, which a raw block would.
The price is 5× the disk: about 390 MB instead of 80 MB for the paper's
1 200 datasets.

:func:`load_dataset` reads only the format this build writes; a file of
any other version raises :class:`DatasetLoadError` naming the version.
"""

from __future__ import annotations

import json
import zipfile
import zlib

import numpy as np

from .schema import Dataset, ForeignKey
from .table import Table

#: Bump on any change to the on-disk layout.
FORMAT_VERSION = 2


class DatasetLoadError(ValueError):
    """A dataset file could not be loaded — missing or unreadable, not an
    ``.npz`` archive, torn or failing its CRC, without its metadata, of
    another format version, with a column block that does not match its
    row counts, or holding no valid dataset (no table, say).

    The dataset-file sibling of
    :class:`~repro.core.persistence.AdvisorLoadError`: a ``ValueError``
    subclass, so pre-existing callers keep working, with the original
    exception chained as ``__cause__``.
    """


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset to ``path`` as a format-2 ``.npz`` archive."""
    tables = list(dataset.tables.values())
    metadata = {
        "format_version": FORMAT_VERSION,
        "name": dataset.name,
        "tables": {t.name: t.column_names for t in tables},
        "rows": {t.name: t.num_rows for t in tables},
        "foreign_keys": [
            {"child": fk.child, "fk_column": fk.fk_column, "parent": fk.parent}
            for fk in dataset.foreign_keys
        ],
    }
    block = np.concatenate(
        [values for t in tables for values in t.columns.values()])
    np.savez(path,
             metadata=np.frombuffer(json.dumps(metadata).encode("utf-8"),
                                    dtype=np.uint8),
             columns=block)


def load_dataset(path: str) -> Dataset:
    """Reload a dataset saved by :func:`save_dataset`.

    Any file that does not hold such a dataset raises
    :class:`DatasetLoadError`.
    """
    try:
        return _load_dataset(path)
    except (OSError, ValueError, KeyError, TypeError, EOFError,
            RuntimeError, zipfile.BadZipFile,
            zlib.error) as error:
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
        if not isinstance(metadata.get("tables"), dict):
            raise ValueError("dataset metadata has no table map")
        columns = _split_block(data["columns"], metadata["tables"],
                               metadata.get("rows"))
    tables = [Table(name, table_columns)
              for name, table_columns in columns.items()]
    foreign_keys = [ForeignKey(**fk) for fk in metadata["foreign_keys"]]
    return Dataset(metadata["name"], tables, foreign_keys)


def _split_block(block: np.ndarray, tables: dict[str, list[str]],
                 rows: object) -> dict[str, dict[str, np.ndarray]]:
    """The columns: consecutive slices of the one int64 block."""
    if block.dtype != np.int64 or block.ndim != 1:
        raise ValueError(
            f"column block must be 1-D int64, not {block.ndim}-D "
            f"{block.dtype}")
    if not isinstance(rows, dict):
        raise ValueError("dataset metadata lacks per-table row counts")
    for name in tables:
        count = rows.get(name)
        if type(count) is not int or count < 0:
            raise ValueError(
                f"table {name!r} has no non-negative integer row count "
                f"(got {count!r})")
    expected = sum(rows[name] * len(columns)
                   for name, columns in tables.items())
    if len(block) != expected:
        raise ValueError(
            f"column block holds {len(block)} values, but the row counts "
            f"need {expected}")
    split: dict[str, dict[str, np.ndarray]] = {}
    offset = 0
    for name, columns in tables.items():
        count = rows[name]
        split[name] = {}
        for column in columns:
            split[name][column] = block[offset:offset + count]
            offset += count
    return split
