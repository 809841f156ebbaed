"""Dataset .npz round-trip (repro.db.io)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.db.io import (FORMAT_VERSION, DatasetLoadError, load_dataset,
                         save_dataset)
from repro.db.schema import Dataset, ForeignKey
from repro.db.table import Table


def small_dataset():
    parent = Table("parent", {"pk": np.arange(10), "a": np.arange(10) % 3})
    child = Table("child", {"fk_parent": np.array([0, 1, 1, 5, 9]),
                            "b": np.array([4, 4, 2, 0, 7])})
    return Dataset("tiny", [parent, child],
                   [ForeignKey("child", "fk_parent", "parent")])


class TestRoundTrip:
    def test_exact_columns(self, tmp_path):
        path = str(tmp_path / "ds.npz")
        original = small_dataset()
        save_dataset(original, path)
        restored = load_dataset(path)
        assert restored.name == original.name
        assert restored.table_names == original.table_names
        for name in original.table_names:
            orig_t, rest_t = original[name], restored[name]
            assert orig_t.column_names == rest_t.column_names
            for col in orig_t.column_names:
                np.testing.assert_array_equal(orig_t[col], rest_t[col])

    def test_foreign_keys_restored(self, tmp_path):
        path = str(tmp_path / "ds.npz")
        save_dataset(small_dataset(), path)
        restored = load_dataset(path)
        assert restored.foreign_keys == [
            ForeignKey("child", "fk_parent", "parent")]

    def test_generated_dataset_round_trips(self, tmp_path):
        path = str(tmp_path / "gen.npz")
        original = generate_dataset(random_spec(17))
        save_dataset(original, path)
        restored = load_dataset(path)
        assert restored.table_names == original.table_names
        assert len(restored.foreign_keys) == len(original.foreign_keys)
        # The join graph is semantically identical: same connected subsets.
        tables = tuple(original.table_names)
        assert restored.is_connected_subset(tables) == \
            original.is_connected_subset(tables)

    def test_restored_dataset_validates(self, tmp_path):
        """load_dataset goes through Dataset.__init__, re-running validation."""
        path = str(tmp_path / "ds.npz")
        save_dataset(small_dataset(), path)
        restored = load_dataset(path)
        assert restored["child"].fk_columns() == ["fk_parent"]


class TestErrors:
    def test_reserved_separator_in_table_name(self, tmp_path):
        table = Table("bad__name", {"pk": np.arange(3)})
        ds = Dataset("x", [table], [])
        with pytest.raises(ValueError, match="may not contain"):
            save_dataset(ds, str(tmp_path / "x.npz"))

    def test_version_mismatch(self, tmp_path):
        path = str(tmp_path / "ds.npz")
        save_dataset(small_dataset(), path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["metadata"]).decode())
        meta["format_version"] = FORMAT_VERSION + 1
        arrays["metadata"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(DatasetLoadError, match="format version"):
            load_dataset(path)

    @pytest.mark.parametrize("kind", [
        "missing", "directory", "not-a-zip", "torn", "no-metadata",
        "metadata-not-an-object", "missing-column"])
    def test_unloadable_file_raises_dataset_load_error(self, kind, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset(), str(path))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        if kind == "missing":
            path = tmp_path / "absent.npz"
        elif kind == "directory":
            path = tmp_path
        elif kind == "not-a-zip":
            path.write_bytes(b"not an npz payload")
        elif kind == "torn":
            path.write_bytes(path.read_bytes()[:100])
        elif kind == "no-metadata":
            del arrays["metadata"]
            np.savez_compressed(path, **arrays)
        elif kind == "metadata-not-an-object":
            arrays["metadata"] = np.frombuffer(b"[1, 2]", dtype=np.uint8)
            np.savez_compressed(path, **arrays)
        else:
            del arrays["child__b"]
            np.savez_compressed(path, **arrays)
        with pytest.raises(DatasetLoadError,
                           match="cannot load dataset from") as info:
            load_dataset(str(path))
        assert info.value.__cause__ is not None
