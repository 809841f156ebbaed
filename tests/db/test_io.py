"""Dataset .npz round-trip (repro.db.io)."""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.graph import build_feature_graph
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.db.io import (FORMAT_VERSION, DatasetLoadError, load_dataset,
                         save_dataset)
from repro.db.schema import Dataset, ForeignKey
from repro.db.table import Table


#: ``small_dataset()`` saved by the last build that wrote format 1.
FORMAT_1_FILE = Path(__file__).parent / "data" / "dataset_v1.npz"


def small_dataset():
    parent = Table("parent", {"pk": np.arange(10), "a": np.arange(10) % 3})
    child = Table("child", {"fk_parent": np.array([0, 1, 1, 5, 9]),
                            "b": np.array([4, 4, 2, 0, 7])})
    return Dataset("tiny", [parent, child],
                   [ForeignKey("child", "fk_parent", "parent")])


def read_members(path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def read_format_2(path) -> tuple[dict, np.ndarray]:
    members = read_members(path)
    assert sorted(members) == ["columns", "metadata"]
    return (json.loads(bytes(members["metadata"]).decode()),
            members["columns"])


def write_format_2(path, metadata: dict, block: np.ndarray) -> None:
    np.savez(path, metadata=np.frombuffer(json.dumps(metadata).encode(),
                                          dtype=np.uint8),
             columns=block)


def assert_same_dataset(actual: Dataset, expected: Dataset) -> None:
    """Names, table and column order, column bits and dtypes, FK list."""
    assert actual.name == expected.name
    assert actual.table_names == expected.table_names
    for name in expected.table_names:
        assert actual[name].column_names == expected[name].column_names
        for column in expected[name].column_names:
            loaded = actual[name][column]
            assert loaded.dtype == np.int64
            assert loaded.flags.c_contiguous and loaded.flags.writeable
            np.testing.assert_array_equal(loaded, expected[name][column],
                                          strict=True)
    assert actual.foreign_keys == expected.foreign_keys


def assert_same_feature_graph(actual: Dataset, expected: Dataset) -> None:
    a, b = build_feature_graph(actual), build_feature_graph(expected)
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert a.edges.tobytes() == b.edges.tobytes()
    assert a.fingerprint() == b.fingerprint()


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

    @pytest.mark.parametrize("spec_seed", [0, 17, 42, 123])
    def test_generated_dataset_is_bit_identical(self, spec_seed, tmp_path):
        path = str(tmp_path / "gen.npz")
        original = generate_dataset(random_spec(spec_seed))
        save_dataset(original, path)
        restored = load_dataset(path)
        assert_same_dataset(restored, original)
        assert_same_feature_graph(restored, original)

    def test_restored_dataset_validates(self, tmp_path):
        """load_dataset goes through Dataset.__init__, re-running validation."""
        path = str(tmp_path / "ds.npz")
        save_dataset(small_dataset(), path)
        restored = load_dataset(path)
        assert restored["child"].fk_columns() == ["fk_parent"]


class TestFormat2Layout:
    def test_two_stored_members(self, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset(), str(path))
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert [m.filename for m in members] == ["metadata.npy",
                                                 "columns.npy"]
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)

    def test_metadata_and_block(self, tmp_path):
        path = tmp_path / "ds.npz"
        original = small_dataset()
        save_dataset(original, str(path))
        metadata, block = read_format_2(path)
        assert metadata == {
            "format_version": FORMAT_VERSION,
            "name": "tiny",
            "tables": {"parent": ["pk", "a"], "child": ["fk_parent", "b"]},
            "rows": {"parent": 10, "child": 5},
            "foreign_keys": [{"child": "child", "fk_column": "fk_parent",
                              "parent": "parent"}],
        }
        assert FORMAT_VERSION == 2
        assert block.dtype == np.int64 and block.ndim == 1
        np.testing.assert_array_equal(block, np.concatenate([
            original["parent"]["pk"], original["parent"]["a"],
            original["child"]["fk_parent"], original["child"]["b"]]))

    def test_table_with_zero_rows(self, tmp_path):
        path = str(tmp_path / "ds.npz")
        parent = Table("parent", {"pk": np.arange(4), "a": np.arange(4)})
        child = Table("child", {"fk_parent": np.array([], dtype=np.int64),
                                "b": np.array([], dtype=np.int64)})
        original = Dataset("sparse", [parent, child],
                           [ForeignKey("child", "fk_parent", "parent")])
        save_dataset(original, path)
        assert_same_dataset(load_dataset(path), original)


class TestFormat1Compatibility:
    """Dataset files written before format 2 still load."""

    def test_fixture_is_format_1(self):
        members = read_members(FORMAT_1_FILE)
        metadata = json.loads(bytes(members["metadata"]).decode())
        assert metadata["format_version"] == 1
        assert "child__b" in members and "columns" not in members

    def test_fixture_loads_bit_identically(self):
        restored = load_dataset(str(FORMAT_1_FILE))
        assert_same_dataset(restored, small_dataset())
        assert_same_feature_graph(restored, small_dataset())

    def test_resave_writes_format_2(self, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(load_dataset(str(FORMAT_1_FILE)), str(path))
        metadata, _ = read_format_2(path)
        assert metadata["format_version"] == FORMAT_VERSION
        assert_same_dataset(load_dataset(str(path)), small_dataset())


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
        if kind == "missing-column":
            # A format-1 file (one member per column) without one column.
            arrays = read_members(FORMAT_1_FILE)
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

    @pytest.mark.parametrize("version", [1, 2])
    def test_zero_table_file_raises_dataset_load_error(self, version,
                                                       tmp_path):
        path = tmp_path / "empty.npz"
        metadata = {"format_version": version, "name": "empty",
                    "tables": {}, "foreign_keys": []}
        if version == 1:
            np.savez_compressed(path, metadata=np.frombuffer(
                json.dumps(metadata).encode(), dtype=np.uint8))
        else:
            write_format_2(path, {**metadata, "rows": {}},
                           np.zeros(0, dtype=np.int64))
        with pytest.raises(DatasetLoadError,
                           match="at least one table") as info:
            load_dataset(str(path))
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("tables", [None, ["parent", "child"], "parent"])
    def test_metadata_without_a_table_map_raises_dataset_load_error(
            self, version, tables, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset(), str(path))
        metadata, block = read_format_2(path)
        metadata["format_version"] = version
        if tables is None:
            del metadata["tables"]
        else:
            metadata["tables"] = tables
        write_format_2(path, metadata, block)
        with pytest.raises(DatasetLoadError, match="no table map") as info:
            load_dataset(str(path))
        assert isinstance(info.value.__cause__, ValueError)

    def test_flipped_block_byte_fails_the_crc(self, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset(), str(path))
        _, block = read_format_2(path)
        payload = bytearray(path.read_bytes())
        start = payload.find(block.tobytes())
        assert start > 0
        payload[start + 8] ^= 0x01  # parent.pk[1]: 1 -> 0, still in range
        path.write_bytes(bytes(payload))
        with pytest.raises(DatasetLoadError, match="CRC") as info:
            load_dataset(str(path))
        assert isinstance(info.value.__cause__, zipfile.BadZipFile)

    @pytest.mark.parametrize("offset, mask, message", [
        (6, 0xFF, "zip file version"),
        (8, 0xFF, "flag bit 5"),
        (8, 0x01, "encrypted"),
        (10, 0xFF, "compression method"),
    ], ids=["version-needed", "flags", "encrypted-flag", "compression"])
    def test_flipped_zip_directory_field_raises_dataset_load_error(
            self, offset, mask, message, tmp_path):
        """zipfile refuses these header values with NotImplementedError or
        RuntimeError rather than BadZipFile; the loader still answers
        with its typed error, so the serving daemon reports the file."""
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset(), str(path))
        payload = bytearray(path.read_bytes())
        entry = payload.find(b"PK\x01\x02")   # first central-directory entry
        assert entry > 0
        payload[entry + offset] ^= mask
        path.write_bytes(bytes(payload))
        with pytest.raises(DatasetLoadError, match=message) as info:
            load_dataset(str(path))
        assert isinstance(info.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("source", ["format-1", "format-2"])
    def test_every_flipped_byte_raises_typed_or_loads_the_same_dataset(
            self, source, tmp_path):
        """Bit rot anywhere in the file: the loader either refuses it
        with DatasetLoadError or returns the saved dataset unchanged
        (the byte sat in a field nothing reads, such as a timestamp)."""
        if source == "format-1":
            clean = FORMAT_1_FILE.read_bytes()
        else:
            save_dataset(small_dataset(), str(tmp_path / "clean.npz"))
            clean = (tmp_path / "clean.npz").read_bytes()
        path = tmp_path / "flipped.npz"
        loaded = 0
        for position in range(len(clean)):
            payload = bytearray(clean)
            payload[position] ^= 0xFF
            path.write_bytes(bytes(payload))
            try:
                dataset = load_dataset(str(path))
            except DatasetLoadError:
                continue
            assert_same_dataset(dataset, small_dataset())
            loaded += 1
        assert loaded < len(clean) // 2

    @pytest.mark.parametrize("kind, message", [
        ("torn", "cannot load dataset from"),
        ("block-short", "need 30"),
        ("block-long", "need 30"),
        ("block-float", "1-D int64"),
        ("block-2d", "1-D int64"),
        ("no-block", "columns"),
        ("rows-missing", "row counts"),
        ("rows-not-an-object", "row counts"),
        ("rows-missing-a-table", "'child'"),
        ("rows-negative", "'child'"),
        ("rows-float", "'child'"),
        ("rows-string", "'child'"),
        ("rows-bool", "'child'"),
    ])
    def test_bad_format_2_file_raises_dataset_load_error(self, kind, message,
                                                         tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(small_dataset(), str(path))
        metadata, block = read_format_2(path)
        rows = metadata["rows"]
        if kind == "torn":
            payload = path.read_bytes()
            path.write_bytes(payload[:len(payload) // 2])
        elif kind == "no-block":
            np.savez(path, metadata=np.frombuffer(
                json.dumps(metadata).encode(), dtype=np.uint8))
        else:
            if kind == "block-short":
                block = block[:-1]
            elif kind == "block-long":
                block = np.append(block, np.int64(0))
            elif kind == "block-float":
                block = block.astype(np.float64)
            elif kind == "block-2d":
                block = block.reshape(2, -1)
            elif kind == "rows-missing":
                del metadata["rows"]
            elif kind == "rows-not-an-object":
                metadata["rows"] = [10, 5]
            elif kind == "rows-missing-a-table":
                del rows["child"]
            elif kind == "rows-negative":
                # Balanced so the block length alone would not notice.
                rows["parent"], rows["child"] = 16, -1
            elif kind == "rows-float":
                rows["child"] = 5.0
            elif kind == "rows-string":
                rows["child"] = "5"
            else:
                rows["child"] = True
            write_format_2(path, metadata, block)
        with pytest.raises(DatasetLoadError, match=message) as info:
            load_dataset(str(path))
        assert info.value.__cause__ is not None
